"""Tooling checks.  The benchmark's tracer wraps skeinlab functions by
name, so a rename under src/ breaks every traced bench pass; the
package, which declares no dependencies, imports only the standard
library; and no private helper in the package lives on for tests alone."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "skeinlab"


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
    outside = []
    for path in sorted(SRC.glob("*.py")):
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


def test_every_private_helper_in_src_has_a_src_caller():
    # a module-level _name function or class that only tests call belongs
    # under tests/ as an oracle, or nowhere; a helper's own body does not
    # count as a caller
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    own = stmt.name
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    assert defined
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used) == []
