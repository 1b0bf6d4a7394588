"""Tooling checks.  The benchmark's tracer wraps skeinlab functions by
name, so a rename under src/ breaks every traced bench pass; and the
package, which declares no dependencies, imports only the standard
library."""
import ast
import importlib
import importlib.util
import sys
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


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so every import in the
    # package is relative or from the standard library
    src = Path(__file__).resolve().parents[1] / "src" / "skeinlab"
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
