"""Tooling checks.  The benchmark's tracer wraps skeinlab functions by
name, so a rename under src/ breaks every traced bench pass; the
package, which declares no dependencies, imports only the standard
library, loads every name it imports and reads no environment variable; the
one strand tracer, temperley_lieb.glue, has its three callers; no private helper in the
package lives on for tests alone; every public name, and every option of
a public function, has a user besides the unit tests; no parameter of a
private function is a constant in disguise; every private name the docs
mention exists; importing the package and loading its fixtures fills no
engine cache and loads no heavy standard module; and the README's
bracket examples print what their comments say."""
import ast
import collections
import contextlib
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import skeinlab
from skeinlab.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "skeinlab"
TESTS = Path(__file__).resolve().parent


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


# Run in a fresh interpreter: `import skeinlab; skeinlab.load_fixtures()`,
# the set-up that the benchmark's setup_s times, then every functools
# cache of the engine modules by name with its size, and the size of
# CROSSING's glued table.
CACHES_AFTER_IMPORT = """
import json, skeinlab
skeinlab.load_fixtures()
from skeinlab import colored_states, skein_eval, temperley_lieb
sizes = {f"{m.__name__}.{name}": f.cache_info().currsize
         for m in (skein_eval, temperley_lieb, colored_states)
         for name, f in vars(m).items() if hasattr(f, "cache_info")}
print(json.dumps([sizes, len(skein_eval.CROSSING._glued)]))
"""


def test_import_and_fixture_load_fill_no_engine_cache():
    # import time is set-up time for every caller, so no table (grid
    # templates, projectors, glued rows) is built before it is asked for
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", CACHES_AFTER_IMPORT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    sizes, glued = json.loads(out.stdout)
    assert {"skeinlab.skein_eval._grid_template", "skeinlab.skein_eval.projector_node",
            "skeinlab.temperley_lieb.jones_wenzl"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size} == {}
    assert glued == 0


# Run in a fresh interpreter without `site` (whose .pth files may preload
# modules): import what bench/child.py imports before its set-up clock,
# then the package, its fixtures and the CLI, and print the modules that
# were not loaded before.
NEW_AFTER_IMPORT = """
import json, resource, sys, time
before = set(sys.modules)
import skeinlab
skeinlab.load_fixtures()
import skeinlab.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Standard modules that cost more to import than the package's own code:
# dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in
# decimal; multiprocessing pulls in pickle, socket and signal; pathlib
# pulls in fnmatch, ipaddress and urllib.parse.
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions",
                 "decimal", "typing", "importlib.resources", "multiprocessing",
                 "pathlib"}


def test_import_loads_no_heavy_standard_module():
    # every process pays the import before it computes anything, so the
    # start-up path stays off these modules; verify loads multiprocessing
    # only where it opens its pool
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", NEW_AFTER_IMPORT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    new = set(json.loads(out.stdout))
    assert "skeinlab.cli" in new
    assert sorted(new & HEAVY_MODULES) == []


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


def test_every_imported_name_is_used():
    # a name that a module imports but never loads is left over from
    # deleted code; __init__ imports the names of its __all__ to re-export
    # them, and a __future__ import is a compiler directive
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            loaded |= set(skeinlab.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in loaded]
    assert unused == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_the_package_reads_no_environment():
    # every setting is an argument or a CLI flag, so a run cannot change
    # with a variable that nothing shows; os.environ, os.getenv and
    # os.putenv, by attribute or by from-import, are refused in src/
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: os.{name}" for name in names
                      if name in ENVIRONMENT_READERS]
    assert found == []


GLUE_CALLERS = ["skein_eval.CouponNode.glued", "temperley_lieb._close_last",
                "temperley_lieb._stack_pair"]


def test_glue_has_three_callers():
    # temperley_lieb.glue is the one strand tracer: TL stacking, the
    # partial trace and the sweep's splice name it, and nothing else in
    # src/ does (the bigon fusion is a TL_2 product, not a second gluing)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name != "glue":
                    visit(child, f"{scope}.{child.name}")
                continue
            if getattr(child, "id", getattr(child, "attr", None)) == "glue":
                found.append(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert callable(skeinlab.temperley_lieb.glue)
    assert sorted(found) == GLUE_CALLERS


def test_only_laurent_takes_gcds():
    # Q(A) has one normal form and laurent._reduce is the one function
    # that reduces to it; a module that imports, calls or names
    # laurent_gcd would be a second normalizer (laurent_lcm stays the
    # way to clear denominators)
    assert callable(getattr(skeinlab.laurent, "_reduce", None))
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (getattr(node, "attr", None), getattr(node, "id", None),
                     getattr(node, "name", None), getattr(node, "value", None))
            if "laurent_gcd" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = SPANS.parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def module_aliases(tree: ast.Module) -> set:
    """The names a module binds to skeinlab modules (`from . import x`)."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level and not node.module or node.module == "skeinlab")
            for alias in node.names}


def text_outside_unit_tests() -> str:
    """The README, the acceptance tests and the benchmark, joined."""
    texts = [README.read_text(), ACCEPTANCE.read_text()]
    texts += [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    return "\n".join(texts)


def words_outside_unit_tests() -> set:
    """Every word of the README, the acceptance tests and the benchmark."""
    return set(re.findall(r"\w+", text_outside_unit_tests()))


def test_every_public_name_has_a_user_besides_tests():
    # a name in skeinlab.__all__ is used in src/ outside its own
    # definition (the re-export in __init__ aside), by the benchmark, in
    # the README or by the acceptance tests; one that only unit tests
    # use belongs under tests/ as an oracle, or nowhere (__version__ is
    # metadata, read from outside).  In src/ a use is a loaded name or an
    # attribute of a skeinlab module: a field or method of the same name
    # (StateGraph.circle_count) is not a use
    used = {"__version__"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        modules = module_aliases(tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute)
                     and getattr(node.value, "id", None) in modules} - {own}
    assert sorted(set(skeinlab.__all__) - used - words_outside_unit_tests()) == []


def test_every_public_method_has_a_user_besides_tests():
    # a public method or property of a class in skeinlab.__all__ whose
    # name no other src/ definition shares is used in src/ outside its
    # own body, by the benchmark, in the README or by the acceptance
    # tests; one that only unit tests call belongs nowhere.  A public
    # classmethod or staticmethod is called on its class, so it is used
    # only as ClassName.method, whatever other definitions share its name
    # (TLElement.zero beside LaurentPolynomial.zero)
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    defined = collections.Counter(
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    public = set(skeinlab.__all__)
    methods, class_methods = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name in public):
                continue
            for item in node.body:
                if (not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or item.name.startswith("_")):
                    continue
                if {getattr(d, "id", None) for d in item.decorator_list} & {
                        "classmethod", "staticmethod"}:
                    class_methods.add(f"{node.name}.{item.name}")
                elif defined[item.name] == 1:
                    methods.add(item.name)
    assert methods and class_methods

    def uses(node, inside=()):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = (*inside, node.name)
        name = getattr(node, "attr", getattr(node, "id", None))
        if name is not None and name not in inside:
            yield name
            if isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner is not None:
                    yield f"{owner}.{name}"
        for child in ast.iter_child_nodes(node):
            yield from uses(child, inside)

    used = {name for tree in trees for name in uses(tree)}
    used |= {".".join(pair)
             for pair in re.findall(r"\b(?=(\w+)\.(\w+))", text_outside_unit_tests())}
    assert sorted((methods | class_methods) - used - words_outside_unit_tests()) == []


def test_every_public_option_has_a_caller_besides_tests():
    # each defaulted public parameter of a public function, or of a
    # public class's __init__, is passed by keyword or by position in some call
    # in src/ (outside the callee's own body), the benchmark, the README
    # or the acceptance tests; an option only unit tests set belongs
    # nowhere.  A call through functools.partial is not a call of its
    # target
    sources = [(path, path.read_text()) for path in sorted(SRC.glob("*.py"))]
    sources += [(path, path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    sources += [(README, readme_code("python")), (ACCEPTANCE, ACCEPTANCE.read_text())]
    passed = collections.defaultdict(set)  # callee name -> positions, keywords
    for path, text in sources:
        for stmt in ast.parse(text, str(path)).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in (None, own):
                    continue
                args = itertools.takewhile(lambda a: not isinstance(a, ast.Starred),
                                           node.args)
                passed[name] |= {*range(len(list(args))), *(k.arg for k in node.keywords)}
    unset = []
    for name in skeinlab.__all__:
        obj = getattr(skeinlab, name)
        if inspect.isclass(obj) and inspect.isfunction(obj.__init__):
            params = [*inspect.signature(obj.__init__).parameters.values()][1:]
        elif inspect.isroutine(obj) and not inspect.isclass(obj):
            params = inspect.signature(obj).parameters.values()
        else:
            continue  # a constant, or a class with a built-in __init__
        for i, p in enumerate(params):
            if p.default is p.empty or p.name.startswith("_") or p.name in passed[name]:
                continue
            if p.kind is p.POSITIONAL_OR_KEYWORD and i in passed[name]:
                continue
            unset.append(f"{name}: {p.name}")
    assert unset == []


def test_no_private_parameter_is_a_constant():
    # a parameter of a private src/ function (a _name, not a dunder) that
    # every src/ call passes the same literal, or leaves at the same
    # literal default, is a constant dressed as a knob: the private
    # counterpart of test_every_public_option_has_a_caller_besides_tests.
    # A function src/ also names outside a call (a key=, a callback) is
    # left out, since not all its calls are in view; a name defined twice
    # gathers the calls of both, which can only hide such a parameter
    defs = collections.defaultdict(list)  # name -> (module, params, defaults)
    calls = collections.defaultdict(list)  # name -> list of ast.Call
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        funcs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    a = node.args
                    positional = a.posonlyargs + a.args
                    defaults = dict(zip([p.arg for p in positional][::-1], a.defaults[::-1]))
                    defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list)
                    if id(node) in methods and not static:
                        positional = positional[1:]
                    defs[node.name].append((path.name, [p.arg for p in positional],
                                            [p.arg for p in a.kwonlyargs], defaults))
            elif isinstance(node, ast.Call):
                funcs.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls[name].append(node)
        referenced |= {getattr(node, "id", getattr(node, "attr", None))
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in funcs}

    def literal(node):
        try:
            value = ast.literal_eval(node)
        except (ValueError, TypeError, SyntaxError):
            return None
        return type(value), repr(value)

    constant = []
    for name, versions in defs.items():
        if name in referenced or not calls[name]:
            continue
        for module, positional, keyword_only, defaults in versions:
            for param in positional + keyword_only:
                seen = set()
                for call in calls[name]:
                    if (any(isinstance(arg, ast.Starred) for arg in call.args)
                            or any(k.arg is None for k in call.keywords)):
                        seen.add(None)
                        continue
                    given = {k.arg: k.value for k in call.keywords}
                    given.update(zip(positional, call.args))
                    node = given.get(param, defaults.get(param))
                    seen.add(None if node is None else literal(node))
                if len(seen) == 1 and None not in seen:
                    [(_, value)] = seen
                    constant.append(f"{module}: {name}({param}) is always {value}")
    assert constant == []


def code_and_prose(paths) -> tuple:
    """(every NAME token, [(file name, docstring or comment)]) of `paths`."""
    code, prose = set(), []
    for path in paths:
        text = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                code.add(tok.string)
            elif tok.type == tokenize.COMMENT:
                prose.append((path.name, tok.string))
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                prose.append((path.name, ast.get_docstring(node) or ""))
    return code, prose


def test_every_private_name_the_docs_mention_exists():
    # a _name in a README code span or in a docstring or comment of src/
    # or tests/ is a name in code (a trailing * a prefix of one): in src/
    # code, or for tests/ prose in src/ or tests/ code; and a dotted
    # module.name of a skeinlab module is an attribute of that module.  So
    # the docs cannot name a helper that is gone.  A subscript such as J~_n
    # or [n k]_A does not start after a space, "(", ".", "," or a backquote
    mention = re.compile(r"(?:^|(?<=[\s(.,`]))_[A-Za-z]\w*\*?")
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    dotted = re.compile(rf"(?<![\w.])({'|'.join(modules)})\.(\w+)")
    code, prose = code_and_prose(sorted(SRC.glob("*.py")))
    test_code, test_prose = code_and_prose(sorted(TESTS.glob("*.py")))
    prose += [(README.name, span) for span in re.findall(r"`([^`\n]+)`", README.read_text())]
    missing, resolved = set(), 0
    for where, text, names in ([(w, t, code) for w, t in prose]
                               + [(w, t, code | test_code) for w, t in test_prose]):
        for name in mention.findall(text):
            if not any(c.startswith(name[:-1]) if name.endswith("*") else c == name
                       for c in names):
                missing.add(f"{where}: {name}")
        for module, name in dotted.findall(text):
            if hasattr(importlib.import_module(f"skeinlab.{module}"), name):
                resolved += 1
            else:
                missing.add(f"{where}: {module}.{name}")
    assert sorted(missing) == []
    assert resolved  # the dotted form is read at all


def readme_code(language: str) -> str:
    """The fenced blocks of README.md in the given language, joined."""
    return "".join(re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S))


def test_readme_python_quick_start_prints_what_it_says():
    # the quick start runs, and each commented bracket output is printed
    code = readme_code("python")
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), scope)
    checked = re.findall(r"^print\((bracket\(.*\))\)\s+# (.*)$", code, re.M)
    assert checked
    for expr, comment in checked:
        assert str(eval(expr, scope)) == comment, expr


def test_readme_sh_bracket_prints_what_it_says():
    # each `skeinlab bracket` line is followed by its stdout as comments
    lines = readme_code("sh").splitlines()
    checked = 0
    for k, line in enumerate(lines):
        if not line.startswith("skeinlab bracket "):
            continue
        expect = []
        for following in lines[k + 1:]:
            if not following.startswith("# "):
                break
            expect.append(following[2:] + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(shlex.split(line)[1:]) == 0, line
        assert expect and out.getvalue() == "".join(expect), line
        checked += 1
    assert checked
