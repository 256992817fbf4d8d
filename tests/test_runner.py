"""The two-process runner: its ordered map, its worker loop and the failure
paths it owns."""

import multiprocessing
import os
import signal
import threading

import pytest
from hypothesis import given, settings, strategies as st

from unifilter.common import SchemaError
from unifilter.records import read_records
from unifilter.runner import _serve, ordered_map, task_runner


class _ClosedPipe:
    """A worker's end of a pipe whose parent end is gone: recv raises."""

    def __init__(self, error):
        self.error = error

    def recv(self):
        raise self.error

    def send(self, obj):
        raise AssertionError("nothing was received, so nothing is sent")


@pytest.mark.parametrize("error", [EOFError, ConnectionResetError, BrokenPipeError])
def test_the_worker_returns_when_its_pipe_closes_or_resets(error):
    """A parent that failed with the worker's reply still unread resets the
    pipe; the worker returns as at end of file, with no traceback."""
    assert _serve(_ClosedPipe(error()), lambda task: task) is None


def test_a_worker_killed_with_its_task_unread_is_an_oserror():
    """The worker is stopped before it reads its task, then killed while
    this process runs its own: the pipe resets, which reads as a dead
    worker, not as a ConnectionResetError."""
    def run_task(task):
        if task == "kill":
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=30)
            assert not worker.is_alive()
        return task

    with pytest.raises(OSError, match=f"killed by signal {signal.SIGKILL}") as caught:
        with task_runner(run_task, fork=True) as run_map:
            assert list(run_map(["a", "b"], 1)) == ["a", "b"]
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGSTOP)
            os.waitpid(worker.pid, os.WUNTRACED)    # stopped, not reaped
            list(run_map(["unread", "kill"], 1))    # the worker's chunk is the first item
    assert type(caught.value) is OSError
    assert multiprocessing.active_children() == []


def _square_and_pid(i: int):
    return i * i, os.getpid()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 60), chunk=st.integers(1, 9))
def test_one_process_and_two_give_the_same_results_in_order(n, chunk):
    one = list(ordered_map(range(n), _square_and_pid, chunk, fork=False))
    two = list(ordered_map(range(n), _square_and_pid, chunk, fork=True))
    assert [r for r, _ in one] == [r for r, _ in two] == [i * i for i in range(n)]
    assert {pid for _, pid in one} <= {os.getpid()}
    if n:       # the first chunk always goes to the worker
        assert two[0][1] != os.getpid()
    assert multiprocessing.active_children() == []


def test_the_earlier_bad_line_wins_whichever_process_reads_it(tmp_path, monkeypatch):
    """Lines 1-4 go to the worker, which fails at line 2 only after this
    process has failed at line 5: line 2 is reported, after line 1's result."""
    from unifilter import records

    path = tmp_path / "corpus.jsonl"
    good = '{"id": "s%d", "score": 0.5, "modality": "caption"}\n'
    lines = [good % 1, '{"id": "s2", "score": 0.5}\n', good % 3, good % 4, "not json\n",
             good % 6]
    path.write_text("".join(lines))
    parent = os.getpid()
    events = []

    def fn(rec, line):
        events.append(rec.id)
        return rec.id

    def slow_decode_in_the_worker(numbered, kind):
        if os.getpid() != parent and numbered[0] == 2:
            threading.Event().wait(0.5)     # this process reaches line 5 first
        return real(numbered, kind)

    real = records.decode_line
    monkeypatch.setattr(records, "decode_line", slow_decode_in_the_worker)
    reader = read_records(path, "scored", fn, chunk=4, fork=True)
    assert next(reader) == "s1"
    with pytest.raises(SchemaError, match="line 2:") as caught:
        next(reader)
    assert caught.value.line_no == 2
    assert events == []     # every decoded line so far was the worker's
    assert multiprocessing.active_children() == []


def test_lines_larger_than_the_pipe_buffer_do_not_deadlock():
    """Chunks sent and results returned are each many times a pipe's 64 KiB."""
    items = [str(i) * 200_000 for i in range(7)]
    out = list(ordered_map(items, lambda text: text * 2, chunk=3, fork=True))
    assert out == [text * 2 for text in items]
    assert multiprocessing.active_children() == []


def test_two_live_maps_do_not_hang_on_close():
    """The second worker closes its inherited copy of the first map's pipe,
    so the first worker sees end of file when its map closes first."""
    first = ordered_map(range(40), lambda i: i + 1, chunk=2, fork=True)
    second = ordered_map(range(40), lambda i: i + 2, chunk=2, fork=True)
    assert next(first) == 1 and next(second) == 2
    closed = threading.Event()

    def close_first():
        first.close()
        closed.set()

    threading.Thread(target=close_first, daemon=True).start()
    assert closed.wait(timeout=30), "closing the first map hung"
    assert list(second) == list(range(3, 42))
    assert multiprocessing.active_children() == []
