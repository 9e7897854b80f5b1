"""The benchmark's span list must name functions that exist in pkde.

A traced function that is deleted or renamed would otherwise show up only
as a zero per-layer metric under `absent_spans`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
