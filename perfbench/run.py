"""Benchmark of the unifilter CLI pipeline: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {train,score} --seed N \
        --seconds S --trace {0,1}

Set-up writes the workload's inputs from --seed (and the fixed reference
input) five times and reports the median as ``setup_s``.  The run then
starts a fresh child interpreter per repetition (perfbench/child.py) while
the next repetition is expected to end within --seconds, and reports
medians.  With --trace 0 it prints the
end-to-end metrics of untraced repetitions; with --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics.  Outputs
are checked on every run; the last line of stdout is the result object.

The harness never sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
UNIFILTER_THREADS: children inherit them exactly as found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "UNIFILTER_THREADS")

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (imports the program only when a workload sets up)


class Run:
    """State of one benchmark run: its directory, tallies and checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.wl, self.seed, self.work = workload, seed, work
        self.inputs, self.ref_inputs = work / "inputs", work / "ref_inputs"
        self.attempted = self.failed = 0
        self.checks: dict[str, bool] = {}
        self.n_children = 0

    def child(self, stages: list[list[str]], trace: bool = False) -> dict:
        """Run the stages in a fresh interpreter; returns its result plus wall_s."""
        self.n_children += 1
        spec = self.work / f"spec{self.n_children}.json"
        result_path = self.work / f"result{self.n_children}.json"
        spec.write_text(json.dumps({"src": str(SRC), "stages": stages, "trace": trace,
                                    "result": str(result_path)}), encoding="utf-8")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            stderr = proc.stderr.decode("utf-8", "replace")
        except subprocess.TimeoutExpired:
            stderr = f"child timed out after {CHILD_TIMEOUT_S} s"
        wall_s = time.perf_counter() - t0
        result = {"stages": []}
        if result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        ok = sum(1 for s in result["stages"] if s["rc"] == 0)
        self.attempted += len(stages)
        self.failed += len(stages) - ok
        if ok < len(stages):
            print(f"perfbench: stage failed in {stages[ok][0]!r}: {stderr.strip()[-2000:]}",
                  file=sys.stderr)
        result["wall_s"] = wall_s
        result["ok"] = ok == len(stages)
        return result

    def check(self, name: str, fn) -> None:
        """Record checks from fn(); an exception fails the check named ``name``."""
        try:
            results = fn()
        except (OSError, KeyError, ValueError, TypeError, ArithmeticError) as exc:
            results = {name: False}
            print(f"perfbench: check {name} raised {exc!r}", file=sys.stderr)
        for key, ok in results.items():
            self.checks[key] = self.checks.get(key, True) and bool(ok)

    def setup(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            for path in (self.inputs, self.ref_inputs):
                shutil.rmtree(path, ignore_errors=True)
                path.mkdir(parents=True)
            t0 = time.perf_counter()
            self.wl.setup(self.inputs, self.seed)
            self.wl.reference_setup(self.ref_inputs)
            self.child([])                 # imports the program once, so caches are warm
            times.append(time.perf_counter() - t0)
        return times

    def repetition(self, index: int, trace: bool) -> dict:
        out = self.work / f"rep{index}"
        out.mkdir()
        result = self.child(self.wl.stages(self.inputs, out, self.seed), trace)
        result["out"] = out
        result["stage_s"] = {s["name"]: s["seconds"] for s in result["stages"]}
        result["units"], result["core_units"] = 0, 0
        if result["ok"]:
            result["units"], result["core_units"] = self.wl.units(self.inputs, out)
            result["digests"] = {name: workloads.sha256(out / name)
                                 for name in self.wl.outputs}
            self.attempted += result["units"]
            self.failed += self.wl.rejects(out)
        if index > 0:      # the first repetition's outputs are kept for the checks
            shutil.rmtree(out, ignore_errors=True)
        return result

    def measure(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced (and traced) repetitions while the next one is expected to
        end within ``seconds``; at least one."""
        plain, traced = [], []
        t0 = time.perf_counter()
        while True:
            plain.append(self.repetition(len(plain) + len(traced), trace=False))
            if trace:
                traced.append(self.repetition(len(plain) + len(traced), trace=True))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(plain) > seconds:
                return plain, traced

    def verify(self, reps: list[dict]) -> None:
        first = reps[0]
        if first["ok"]:
            self.check("outputs", lambda: self.wl.check(self.inputs, first["out"]))
        self.checks["reruns.byte_identical"] = all(
            r["ok"] and r["digests"] == first.get("digests") for r in reps)

        out = self.work / "determinism"
        stages = self.wl.determinism_stages(self.inputs, out)
        if stages:
            out.mkdir()
            det = self.child(stages)
            timed = (first["out"] / "scores.jsonl").read_bytes() if first["ok"] else None
            for stage in stages:
                path = Path(stage[stage.index("--out") + 1])
                name = "determinism." + path.stem
                self.check(name, lambda: {name: det["ok"] and path.read_bytes() == timed})

        out = self.work / "reference"
        out.mkdir()
        ref = self.child(self.wl.reference_stages(self.ref_inputs, out))
        self.check("reference", lambda: workloads.compare_reference(
            self.wl.name, self.wl.reference_values(self.ref_inputs, out)) if ref["ok"]
            else {"reference": False})

        self.attempted += len(self.checks)
        self.failed += sum(1 for ok in self.checks.values() if not ok)

    @property
    def failed_share(self) -> float:
        return self.failed / max(1, self.attempted)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(units: int, seconds: float | None) -> float:
    return units / seconds if units and seconds else 0.0


def end_to_end(run: Run, setup_times: list[float], reps: list[dict]) -> dict:
    core = run.wl.core_stage
    return {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median(r["wall_s"] for r in reps), "s"),
        "records_per_s": (_median(_rate(r["units"], r["wall_s"]) for r in reps), "rec/s"),
        "core_items_per_s": (_median(_rate(r["core_units"], r["stage_s"].get(core))
                                     for r in reps), "items/s"),
        "peak_rss_mb": (_median(r.get("peak_rss_mb", 0.0) for r in reps), "MB"),
        "ok_share": (1.0 - run.failed_share, "ratio"),
    }


def per_layer(run: Run, plain: list[dict], traced: list[dict], e2e: dict) -> dict:
    """Medians of the traced repetitions' layer metrics, the tracing overhead,
    and end-to-end values carried under the names of the layer they time."""
    ok = [r for r in traced if r["ok"]]
    out = {}
    for name, (_, unit) in (ok[0]["layers"].items() if ok else ()):
        out[name] = (_median(r["layers"][name][0] for r in ok), unit)
    wall_plain = _median(r["wall_s"] for r in plain)
    wall_traced = _median(r["wall_s"] for r in traced)
    out["trace.overhead_share"] = (wall_traced / wall_plain - 1.0 if wall_plain else 0.0,
                                   "ratio")

    core_rate = e2e["core_items_per_s"][0]
    for stage, name, unit in (("train", "train_samples_per_s", "samples/s"),
                              ("score", "score_records_per_s", "rec/s")):
        out[name] = (core_rate if run.wl.core_stage == stage else 0.0, unit)
    first = plain[0]
    out["val_accuracy"] = (run.wl.val_accuracy(first["out"]) if first["ok"] else 0.0, "ratio")
    out["failed_share"] = (run.failed_share, "ratio")
    return out


def environment(reps: list[dict]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    workers = None
    manifest = reps[0]["out"] / "scores.jsonl.manifest.json"
    if manifest.is_file():
        workers = workloads.read_json(manifest)["config"]["workers"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads_in_child": reps[0].get("blas_threads", {}),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "score_workers": workers,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unifilter" / "cli.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed,
              WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run.work.mkdir(parents=True)
        setup_times = run.setup()
        plain, traced = run.measure(args.seconds, bool(args.trace))
        run.verify(plain + traced)
        env = environment(plain)
        metrics = end_to_end(run, setup_times, plain)
        if args.trace:
            metrics = per_layer(run, plain, traced, metrics)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    failed_checks = sorted(name for name, ok in run.checks.items() if not ok)
    print(json.dumps({"env": env, "failed_checks": failed_checks,
                      "setup_s": setup_times,
                      "wall_s": [r["wall_s"] for r in plain],
                      "traced_wall_s": [r["wall_s"] for r in traced]}))
    print(json.dumps({
        "correct": not failed_checks and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
