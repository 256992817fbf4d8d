"""Span recorder for the traced benchmark runs.

A traced run replaces public functions of the program with wrappers, at the
module attribute where each caller looks them up, so no program file changes.
Each wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent).  A layer's self time is a
span's duration minus the durations of its direct children.

A wrapped generator records one span per ``next``, so lazy work such as
decoding a JSONL line is charged to the generator and not to its consumer.

A span opened on a worker thread with no span of its own open takes as
parent the span open on the thread that made the recorder: the one waiting
for the worker.  Children on several threads may overlap, so a parent's
self time is its duration minus the union of its children's intervals, and
layer times summed over threads are thread time, not wall time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)


class Recorder:
    """Keeps spans and counters in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        outer = stack or self._owner_stack
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, outer[-1] if outer else -1])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, fn, name: str, hook=None):
        """Return fn traced under ``name``.

        ``hook(recorder, args, kwargs, result)`` runs inside the span after
        fn returns (for a generator: once, before the first item, with
        result None) and records work counts from the arguments.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.add(name + "_calls")
                if hook is not None:
                    hook(self, args, kwargs, None)
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self.begin(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self.end(idx)
                        yield item
                finally:
                    it.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add(name + "_calls")
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
            finally:
                self.end(idx)
            return result
        return traced


def child_ns(spans: list[list]) -> list[int]:
    """Time covered by each span's direct children, by span index: the length
    of the union of their intervals, so overlapping children count once."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    covered = [0] * len(spans)
    for parent, intervals in children.items():
        intervals.sort()
        lo, hi = intervals[0]
        for start, end in intervals[1:]:
            if start > hi:
                covered[parent] += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        covered[parent] += hi - lo
    return covered


def self_times(spans: list[list]) -> dict[str, int]:
    """Self time in ns per span name: duration minus direct children."""
    covered = child_ns(spans)
    totals: dict[str, int] = defaultdict(int)
    for i, span in enumerate(spans):
        totals[span[NAME]] += span[END] - span[START] - covered[i]
    return dict(totals)


def coverage(spans: list[list]) -> dict[int, float]:
    """Share of each root span's duration that its direct children cover."""
    covered = child_ns(spans)
    return {i: covered[i] / max(1, span[END] - span[START])
            for i, span in enumerate(spans) if span[PARENT] < 0}


def durations_ns(spans: list[list], name: str) -> list[int]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]
