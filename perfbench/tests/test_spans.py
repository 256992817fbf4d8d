"""Tests of the benchmark's span recorder and traced child runs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402  (puts the program's source on sys.path)
from spans import Recorder, coverage, self_times  # noqa: E402
from workloads import WORKLOADS, Train  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["leaf", 15, 25, 1],
        ["b", 50, 90, 0],
        ["a", 92, 97, 0],          # a second call of the same layer adds up
    ]
    assert self_times(spans) == {"root": 100 - 30 - 40 - 5, "a": 30 - 10 + 5,
                                 "leaf": 10, "b": 40}
    assert coverage(spans) == {0: 0.75}


def test_overlapping_children_are_covered_once():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 50, 0],
        ["a", 30, 70, 0],          # overlaps the first child, as worker threads do
        ["a", 80, 90, 0],
    ]
    assert self_times(spans) == {"root": 100 - 60 - 10, "a": 40 + 40 + 10}
    assert coverage(spans) == {0: 0.7}


def test_worker_thread_spans_hang_under_the_waiting_span():
    sleep_s = 0.03
    rec = Recorder()
    work = rec.wrap(lambda _: time.sleep(sleep_s), "work")
    with rec.span("stage"):
        with rec.span("pool"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(4)))
    work_spans = [s for s in rec.spans if s[0] == "work"]
    assert [s[3] for s in work_spans] == [1] * 4
    assert list(coverage(rec.spans)) == [0]
    totals = self_times(rec.spans)
    pool_ns = rec.spans[1][2] - rec.spans[1][1]
    assert totals["work"] / 1e9 >= 4 * sleep_s          # thread time: four sleeps
    assert 0 <= totals["pool"] < pool_ns - 2 * sleep_s * 1e9
    assert rec.counts["work_calls"] == 4


def test_wrapped_calls_nest_and_count():
    rec = Recorder()
    inner = rec.wrap(lambda x: x + 1, "inner",
                     hook=lambda r, args, kwargs, result: r.add("work", args[0]))
    outer = rec.wrap(lambda x: inner(inner(x)), "outer")
    with rec.span("stage"):
        assert outer(1) == 3
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["stage", "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    assert rec.counts["inner_calls"] == 2 and rec.counts["work"] == 1 + 2
    totals = self_times(rec.spans)
    stage = rec.spans[0]
    assert sum(totals.values()) == stage[2] - stage[1]


def test_wrapped_generator_is_timed_on_every_next():
    work_s, pause_s, items = 0.02, 0.03, 3

    def produce():
        for i in range(items):
            time.sleep(work_s)          # lazy work, done inside next()
            yield i

    rec = Recorder()
    traced = rec.wrap(produce, "gen")
    with rec.span("consumer"):
        it = traced()                   # creating the generator runs nothing
        assert rec.spans[1:] == []
        for _ in it:
            time.sleep(pause_s)         # the consumer's own time
    gen_spans = [s for s in rec.spans if s[0] == "gen"]
    assert len(gen_spans) == items + 1  # the last next() raises StopIteration
    assert all(s[3] == 0 for s in gen_spans)
    totals = self_times(rec.spans)
    assert items * work_s <= totals["gen"] / 1e9 < items * work_s + 0.015
    assert totals["consumer"] / 1e9 >= items * pause_s
    assert rec.counts["gen_calls"] == 1


def test_wrapped_generator_closes_the_original():
    closed = []

    def produce():
        try:
            yield from range(10)
        finally:
            closed.append(True)

    rec = Recorder()
    for item in rec.wrap(produce, "gen")():
        if item == 2:
            break
    assert closed == [True]
    assert all(s[2] >= s[1] for s in rec.spans)


def _short_stages(name: str, work: Path):
    """A short version of each workload: a quarter of its size, one epoch."""
    wl = WORKLOADS[name]
    if name == "train":
        wl = Train()
        wl.levels_count, wl.epochs = 10, 1
        wl.config = {**Train.config, "epochs": 1}
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    wl.setup(inputs, 5, wl.size // 4)
    return wl.stages(inputs, work / "out", 5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_covers_every_stage(name):
    work = Path(run.WORK) / f"test-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        stages = _short_stages(name, work)
        (work / "out").mkdir()
        bench = run.Run(WORKLOADS[name], 5, work)
        result = bench.child(stages, trace=True)
        assert result["ok"], result
        metrics = result["layers"]
        assert metrics["trace.coverage_share"][0] >= 0.95
        for stage in stages:
            assert metrics[f"cli.{stage[0]}_s"][0] > 0
        assert set(metrics) >= {f"{t}_s" for t in layers.TIMED}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_traced_score_with_two_workers_keeps_its_spans_under_the_stage():
    work = Path(run.WORK) / "test-score-workers2"
    shutil.rmtree(work, ignore_errors=True)
    try:
        score = _short_stages("score", work)[0] + ["--workers", "2"]
        (work / "out").mkdir()
        result = run.Run(WORKLOADS["score"], 5, work).child([score], trace=True)
        assert result["ok"], result
        metrics = result["layers"]
        assert metrics["trace.coverage_share"][0] >= 0.95
        assert metrics["classifier.score_record_p50_ms"][0] > 0
        assert 0 <= metrics["filtering.score_corpus_s"][0] < metrics["cli.score_s"][0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
