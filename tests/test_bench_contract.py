"""The benchmark's span list must name functions that exist in pkde, and
its smoke run must pass.

A traced function that is deleted or renamed would otherwise show up only
as a zero per-layer metric under `absent_spans`; a change that breaks a
benchmark run or its output check would show up only when it is measured.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    missing = [
        f"{module}.{name}"
        for module, name in _load_spans().TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_smoke_run_passes():
    # Every workload, tiny, in both modes: metric names, units and outputs.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
