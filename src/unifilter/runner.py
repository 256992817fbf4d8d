"""Two processes for one stage: this one and one forked worker.  This module
owns the fork, the pipe protocol and every failure path: an exception in the
worker is raised again here with its own type, a dead worker is an OSError
naming its exit code or signal, and a closed or reset pipe is end of file."""

import multiprocessing
from contextlib import contextmanager
from itertools import chain

# Processes of task_runner: train and score split each batch into this many groups.
TASK_GROUPS = 2
# A closed pipe; a reset one is a peer that closed with a message unread.
_CLOSED = (EOFError, BrokenPipeError, ConnectionResetError)


def balanced_groups(costs: list[int], n_groups: int) -> list[list[int]]:
    """Positions 0..len(costs)-1 in n_groups of near-equal total cost.

    Costliest first, each to the lightest group (the lowest index on a tie),
    so the split depends on the costs alone.  Each group is in ascending order.
    """
    loads, groups = [0] * n_groups, [[] for _ in range(n_groups)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += costs[i]
    return [sorted(group) for group in groups]


def in_order(groups, results) -> list:
    """The groups' per-position results as one list in position order."""
    # the positions differ, so no two results are compared
    return [value for _, value in sorted(zip(chain(*groups), chain(*results)))]


def _serve(conn, parent_end, run_task):
    """The worker's loop: run each task received and send back (True,
    result) or (False, the exception).  Returns when the pipe closes, so the
    worker never outlives its parent nor writes to one that stopped listening."""
    parent_end.close()          # an inherited copy would keep the pipe open
    try:
        while True:
            task = conn.recv()
            try:
                reply = (True, run_task(task))
            except Exception as exc:    # re-raised in the parent with its own type
                reply = (False, exc)
            conn.send(reply)
    except _CLOSED:
        return


@contextmanager
def task_runner(run_task, fork: bool):
    """Yields run_pair([first, second]) -> [run_task(first), run_task(second)].

    With fork, a worker forked here, once, runs `second` while this process
    runs `first`, and sends its result back over the pipe; it shares
    whatever this process mapped shared before the fork, and is joined on
    the way out.  Without fork, this process runs both in turn.
    """
    if not fork:
        yield lambda tasks: [run_task(task) for task in tasks]
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child_end, conn, run_task), daemon=True)
    proc.start()
    child_end.close()

    def over_pipe(op, *args):
        try:
            return op(*args)
        except _CLOSED:
            proc.join()
            code = proc.exitcode
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise OSError(f"the forked worker process died ({how})") from None

    def run_pair(tasks: list) -> list:
        first, second = tasks
        over_pipe(conn.send, second)
        result = run_task(first)
        ok, value = over_pipe(conn.recv)
        if not ok:
            raise value
        return [result, value]

    try:
        yield run_pair
    finally:
        conn.close()
        proc.join()
