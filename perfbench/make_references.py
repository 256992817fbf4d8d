"""Record the outputs that every run's reference check compares against.

Usage, from the repository root, at a commit whose outputs are known good:

    python3 perfbench/make_references.py

It runs each workload's reference stages on the fixed reference input and
writes perfbench/references.json.  Rerunning it at the same commit must
leave the file unchanged.
"""

import json
import shutil
import sys

from run import WORK, Run
from workloads import REFERENCES, WORKLOADS


def main() -> int:
    references = {}
    for wl in WORKLOADS.values():
        run = Run(wl, 0, WORK / f"references-{wl.name}")
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.ref_inputs.mkdir(parents=True)
            wl.reference_setup(run.ref_inputs)
            out = run.work / "reference"
            out.mkdir()
            if not run.child(wl.reference_stages(run.ref_inputs, out))["ok"]:
                print(f"reference stages of {wl.name} failed", file=sys.stderr)
                return 1
            references[wl.name] = wl.reference_values(run.ref_inputs, out)
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
