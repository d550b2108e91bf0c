"""The benchmark's tracer (bench/spans.py) wraps module-level names of
mupcf by (module, attribute); each must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [(mod, attr) for mod, attr, _ in spans.WRAPPED
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
