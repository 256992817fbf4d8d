"""Every program function the benchmark's traced run wraps still resolves.

perfbench/layers.py names each wrapped function by module and attribute
(TARGETS).  A rename breaks only a traced benchmark run; this test looks each
name up with getattr, without installing any wrapper, so it fails here first.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_bench_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = []
    for module_name, attr, _, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench TARGETS that no longer resolve: {missing}"
