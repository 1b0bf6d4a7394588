"""The benchmark's tracer wraps skeinlab functions by name, so a rename
under src/ breaks every traced bench pass; this reads bench/ only."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = []
    for name in spans.TRACED:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"skeinlab.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(name)
    assert missing == []
