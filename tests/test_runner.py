"""The two-process runner: its worker loop and the failure paths it owns."""

import multiprocessing
import os
import signal

import pytest

from unifilter.runner import _serve, task_runner


class _ClosedPipe:
    """A worker's end of a pipe whose parent end is gone: recv raises."""

    def __init__(self, error):
        self.error = error

    def recv(self):
        raise self.error

    def send(self, obj):
        raise AssertionError("nothing was received, so nothing is sent")

    def close(self):
        pass


@pytest.mark.parametrize("error", [EOFError, ConnectionResetError, BrokenPipeError])
def test_the_worker_returns_when_its_pipe_closes_or_resets(error):
    """A parent that failed with the worker's reply still unread resets the
    pipe; the worker returns as at end of file, with no traceback."""
    closed = _ClosedPipe(error())
    assert _serve(closed, closed, lambda task: task) is None


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
        with task_runner(run_task, fork=True) as run_pair:
            assert run_pair(["a", "b"]) == ["a", "b"]
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGSTOP)
            os.waitpid(worker.pid, os.WUNTRACED)    # stopped, not reaped
            run_pair(["kill", "unread"])
    assert type(caught.value) is OSError
    assert multiprocessing.active_children() == []

