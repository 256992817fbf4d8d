"""One ordered map over two processes: this one and one forked worker.

task_runner forks the worker once and yields run_map(items, chunk), which
returns run_task(item) for each item in item order.  Whenever the worker's
previous reply has arrived it gets the next `chunk` items; this process
runs the items after them one at a time and checks for the reply between
them.  At most one chunk is in flight, so neither side blocks on a full
pipe, and held memory is bounded by that chunk and the results queued
behind it.  Which process runs an item depends on timing, never a result.

This module owns the fork, the pipe protocol and every failure path.  The
first error in item order wins, whichever process raised it: an exception
in the worker is raised again here with its own type, after the results of
the items before it.  A dead worker is an OSError naming its exit code or
signal, and a closed or reset pipe is end of file.
"""

import multiprocessing
import os
from collections import deque
from contextlib import contextmanager

# Processes of task_runner: train splits each batch into this many groups.
TASK_GROUPS = 2
# Items the worker takes at a time when the caller names no other number.
MAP_CHUNK = 8
# A closed pipe; a reset one is a peer that closed with a message unread.
_CLOSED = (EOFError, BrokenPipeError, ConnectionResetError)
# This process's ends of the live workers' pipes: a worker forked later closes
# its copies, or the earlier worker would never see end of file.
_PARENT_ENDS = set()
# The queue entry of the chunk in flight.
_AWAITED = object()


def fork_by_default() -> bool:
    """Whether a map forks when the caller does not say: more than one usable CPU."""
    return len(os.sched_getaffinity(0)) > 1


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


def _serve(conn, run_task):
    """The worker's loop: run each chunk received and send back (results,
    None), or the results before the first exception and that exception.
    Returns when the pipe closes, so the worker never outlives its parent nor
    writes to one that stopped listening."""
    for end in _PARENT_ENDS:    # inherited copies would keep those pipes open
        end.close()
    try:
        while True:
            results, error = [], None
            for task in conn.recv():
                try:
                    results.append(run_task(task))
                except Exception as exc:    # re-raised in the parent with its own type
                    error = exc
                    break
            conn.send((results, error))
    except _CLOSED:
        return


def _attempt(fn, *args):
    """(True, fn(*args)), or (False, the exception it raised)."""
    try:
        return True, fn(*args)
    except Exception as exc:    # re-raised in item order by _ordered_map
        return False, exc


def _ordered_map(run_task, conn, over_pipe, items, chunk: int):
    """run_task(item) for each item in order; see the module docstring."""
    items = iter(items)
    queue = deque()     # (ok, result or exception) in item order; _AWAITED: the chunk in flight
    done = False        # no more items are taken: they ran out, or one failed
    while True:
        while queue and queue[0] is not _AWAITED:
            ok, value = queue.popleft()
            if not ok:
                raise value
            yield value
        waiting = bool(queue)       # only the chunk in flight is left
        if done and not waiting:
            return
        if waiting and (done or len(queue) > 2 * chunk or over_pipe(conn.poll)):
            results, error = over_pipe(conn.recv)
            queue.popleft()
            if error is not None:
                queue.appendleft((False, error))
                done = True
            queue.extendleft((True, value) for value in reversed(results))
            continue
        taken, error = [], None
        try:
            while len(taken) < (1 if waiting else chunk):
                taken.append(next(items))
        except StopIteration:
            done = True
        except Exception as exc:    # a bad item (an unreadable line, say) fails in its place
            done, error = True, exc
        if waiting and taken:
            queue.append(_attempt(run_task, taken[0]))
            done = done or not queue[-1][0]
        elif taken:
            over_pipe(conn.send, taken)
            queue.append(_AWAITED)
        if error is not None:
            queue.append((False, error))


@contextmanager
def task_runner(run_task, fork: bool):
    """Yields run_map(items, chunk=MAP_CHUNK) -> an iterator of run_task(item)
    in item order.

    With fork, a worker forked here, once, runs chunks of items as the
    module docstring says; it shares whatever this process mapped shared
    before the fork, and is joined on the way out.  Without fork, this
    process runs every item in turn.
    """
    if not fork:
        yield lambda items, chunk=MAP_CHUNK: map(run_task, items)
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(child_end, run_task), daemon=True)

    def over_pipe(op, *args):
        try:
            return op(*args)
        except _CLOSED:
            proc.join()
            code = proc.exitcode
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise OSError(f"the forked worker process died ({how})") from None

    _PARENT_ENDS.add(conn)
    try:
        proc.start()
        child_end.close()
        yield lambda items, chunk=MAP_CHUNK: _ordered_map(run_task, conn, over_pipe, items, chunk)
    finally:
        _PARENT_ENDS.discard(conn)
        conn.close()
        child_end.close()
        if proc.pid is not None:
            proc.join()


def ordered_map(items, fn, chunk: int = MAP_CHUNK, fork: bool | None = None):
    """Yield fn(item) for each item in order, on task_runner's two processes
    when fork (by default, fork_by_default()); a worker is forked at the
    first item asked for and joined when the map ends or is closed."""
    with task_runner(fn, fork_by_default() if fork is None else fork) as run_map:
        yield from run_map(items, chunk)
