"""Every metric of every workload, untraced and traced, as one table.

Usage, from the repository root:

    python3 perfbench/report.py [--seed N]

Runs perfbench/run.py once per workload and trace mode, for the
``run_seconds`` that BENCHMARK.json fixes, prints each metric with its unit,
and exits 1 if any run's outputs failed their checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print(f"\n{name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<34} {entry['value']:>14.6g}  {entry['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
