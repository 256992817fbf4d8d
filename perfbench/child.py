"""One measured run of a workload: a fresh interpreter driving the CLI.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``src`` (the program's source root), ``stages`` (one argv list
per CLI subcommand), ``trace`` (bool) and ``result`` (a path).  The stages
run back to back through ``unifilter.cli.main(argv)``, the console script's
entry, and the child writes stage times, its own peak RSS, the BLAS thread
count it sees and, when traced, the per-layer metrics to ``result``.  The
child changes no environment variable, so a thread policy the program sets
at CLI entry takes effect here as it would for a user.
"""

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_info() -> dict:
    """OpenBLAS libraries mapped into this process and their thread counts.

    Reads the count through the library's own getter; never sets it.
    """
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:     # no /proc: report nothing rather than guess
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def run_stage(cli, argv: list[str]) -> int:
    """One subcommand; its exit code, with a traceback counted as code 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:               # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:                       # a failed stage, not a crashed benchmark
        traceback.print_exc()
        return 1


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = time.perf_counter()
    import unifilter.cli as cli
    import_s = time.perf_counter() - t0

    recorder = None
    if spec["trace"]:
        import layers
        from spans import Recorder
        recorder = Recorder()
        layers.install(recorder)

    stages = []
    for argv in spec["stages"]:
        t0 = time.perf_counter()
        with recorder.span("cli." + argv[0]) if recorder else contextlib.nullcontext():
            rc = run_stage(cli, argv)
        stages.append({"name": argv[0], "rc": rc, "seconds": time.perf_counter() - t0})
        if rc != 0:
            break

    result = {
        "import_s": import_s,
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": blas_info(),
    }
    if recorder:
        result["layers"] = layers.metrics(recorder, import_s)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
