"""Rules the library source keeps."""

import ast
import builtins
import importlib
import inspect
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from modk3 import counting
from modk3.families import preset

SRC = Path(__file__).resolve().parent.parent / "src" / "modk3"
BENCH = SRC.parent.parent / "bench"


def test_no_assert_in_the_library():
    # python -O strips assert statements, so a verified identity must raise
    # VerificationError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and found == []


def test_no_sympy_import_in_the_library():
    # sympy is the tests' oracle, not a runtime dependency
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "sympy"]
    assert sorted(SRC.glob("*.py")) and found == []


def test_every_identity_is_named_in_a_test():
    # each identity the library verifies has a test that makes it fail and
    # names it: a check no test can trip may be dead or wrong
    identities = {ast.literal_eval(node.args[0])
                  for path in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "VerificationError"}
    tests = "\n".join(path.read_text() for path in SRC.parent.parent.glob(
        "tests/**/*.py"))
    assert len(identities) > 10
    assert sorted(i for i in identities if i not in tests) == []


def test_verify_all_loads_no_sympy():
    # python -m modk3.cli verify all --pmax 97, then a look at sys.modules
    code = ("import runpy, sys\n"
            "sys.argv = ['modk3', 'verify', 'all', '--pmax', '97']\n"
            "try:\n"
            "    runpy.run_module('modk3.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'sympy']\n"
            "print(code, sorted(loaded)[:5], file=sys.stderr)\n"
            "sys.exit(3 if code or loaded else 0)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.rstrip().endswith('"suite": "betti"}')


def test_the_hecke_side_reads_nothing_from_eta():
    # forms check compares coefficient_sequence with the eta products, so
    # the Hecke side may not read a coefficient off that side
    tree = ast.parse((SRC / "cmforms.py").read_text())
    func = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "coefficient_sequence")
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(func)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert names and not names & {"_eta_coefficients", "form_series"}


def test_every_library_exception_is_a_value_error():
    # cli.run prints a ValueError as an ok: false record, so no other
    # exception may escape a command as a traceback; cli.UsageError is the
    # one exception, which run reports itself
    import importlib
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"modk3.{path.stem}")
        found += [f"{module.__name__}.{name}"
                  for name, obj in vars(module).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__
                  and not issubclass(obj, ValueError)]
    assert len(found) < len(list(SRC.glob("*.py")))  # the walk saw modules
    assert found == ["modk3.cli.UsageError"]


def _raised_builtins(tree) -> list:
    """(enclosing "Class.function", name, line) of each ``raise X(...)`` and
    ``raise X`` whose X names a built-in exception class that is not a
    ValueError."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = getattr(child.exc, "func", child.exc)
                obj = getattr(builtins, getattr(exc, "id", ""), None)
                if (isinstance(obj, type) and issubclass(obj, BaseException)
                        and not issubclass(obj, ValueError)):
                    found.append((".".join(scope), exc.id, child.lineno))
            walk(child, scope)

    walk(tree, ())
    return found


# the built-in exceptions the library raises on purpose, each caught
ALLOWED_RAISES = {
    # the quotient's contract: kodaira._valuation_classes catches it
    ("zpoly.py", "ZPoly.exquo", "ArithmeticError"),
    # an unknown family name: cli.run reports it as an ok: false record
    ("families.py", "preset", "KeyError"),
}


def test_every_raised_builtin_is_a_value_error():
    # cli.run reports a ValueError as an ok: false record; any other
    # built-in exception raised in the library must be caught by its caller
    found = {(path.name, scope, name) for path in sorted(SRC.glob("*.py"))
             for scope, name, _ in _raised_builtins(
                 ast.parse(path.read_text(), str(path)))}
    assert found == ALLOWED_RAISES
    snippet = ("def f():\n    raise TypeError\n"
               "class C:\n    def g(self):\n        raise ArithmeticError(1)\n"
               "    def h(self, exc):\n        raise ValueError\n"
               "        raise VerificationError('x', {}, 0, 1)\n"
               "        raise exc.Error\n        raise\n")
    assert [site[:2] for site in _raised_builtins(ast.parse(snippet))] == [
        ("f", "TypeError"), ("C.g", "ArithmeticError")]


FLOAT_CALLS = {"sqrt", "log", "exp", "fft", "roots"}


def _float_sites(tree) -> list:
    """Nodes through which a float can enter: float literals and the name
    float, math/numpy calls that return floats (sqrt, log, exp, fft,
    roots), numpy float dtypes, and true division."""
    float_types = {name for name, obj in vars(np).items()
                   if isinstance(obj, type) and issubclass(obj, np.inexact)}

    def float_dtype(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and np.dtype(node.value).kind in "fc")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            bad = isinstance(node.value, (float, complex))
        elif isinstance(node, ast.Name):
            bad = node.id in ("float", "complex")
        elif isinstance(node, ast.Attribute):
            bad = node.attr in FLOAT_CALLS or node.attr in float_types
        elif isinstance(node, ast.ImportFrom):
            bad = any(a.name in FLOAT_CALLS | float_types for a in node.names)
        elif isinstance(node, ast.keyword):
            bad = node.arg == "dtype" and float_dtype(node.value)
        elif isinstance(node, ast.Call):
            bad = (isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("astype", "dtype")
                   and any(map(float_dtype, node.args)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            bad = isinstance(node.op, ast.Div)
        else:
            bad = False
        if bad:
            found.append(node)
    return found


def test_no_floating_point_in_the_library():
    # every verified value is an exact integer; a float anywhere
    # in the library could round one silently
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in _float_sites(ast.parse(path.read_text(), str(path)))]
    assert sorted(SRC.glob("*.py")) and found == []


def test_the_float_rule_catches_each_kind_of_site():
    allowed = ("y = math.isqrt(n) // 2\n"
               "z = np.zeros(4, dtype=np.int64).astype('i8')\n")
    assert _float_sites(ast.parse(allowed)) == []
    for line in ("x = 0.5", "x = float(n)", "x = math.sqrt(n)",
                 "x = np.log(a)", "x = math.exp(1)", "x = np.fft.fft(a)",
                 "x = np.roots(c)", "from math import sqrt",
                 "x = np.zeros(3, dtype=np.float64)",
                 "x = np.zeros(3, dtype='f8')", "x = a.astype('float32')",
                 "x = a / b", "x = Fraction(a) / b",
                 "x = Fraction(a) / Fraction(b)", "x /= 2", "x = 1j"):
        assert _float_sites(ast.parse(line)), line


def _unreached(sources: dict, roots: list) -> list:
    """Public functions and methods of the modules in ``sources`` (name ->
    text) that no walk from ``roots`` ((module, name) pairs) reaches.

    A walk reads every name in a reached node: a module-level name is
    followed to its definition, through ``from .module import`` lines; an
    attribute reaches every method of that name; a reached class reaches
    its bases, decorators, class-level statements and dunder methods."""
    nodes, imports, methods = {}, {}, {}  # nodes[module, "Class.method"] too
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (
                        node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[module, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name):
                        nodes[module, name.id] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        qual = f"{node.name}.{item.name}"
                        nodes[module, qual] = item
                        methods.setdefault(item.name, []).append((module, qual))
    reached, todo = set(), list(roots)

    def reach(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        if (module, name) in nodes:
            todo.append((module, name))

    while todo:
        module, name = todo.pop()
        if (module, name) in reached:
            continue
        reached.add((module, name))
        node = nodes[module, name]
        parts = [node]
        if isinstance(node, ast.ClassDef):
            parts = node.bases + node.decorator_list + [
                item for item in node.body
                if not isinstance(item, ast.FunctionDef)]
            todo += [(module, f"{node.name}.{item.name}") for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name.startswith("__")]
        for sub in (n for part in parts for n in ast.walk(part)):
            if isinstance(sub, ast.Name):
                reach(module, sub.id)
            elif isinstance(sub, ast.Attribute):
                todo += methods.get(sub.attr, [])
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
                for alias in sub.names:
                    reach(sub.module, alias.name)
    public = [(module, name) for (module, name), node in nodes.items()
              if isinstance(node, ast.FunctionDef) and name[0] != "_"
              and "._" not in name]
    return sorted(f"{m}.{n}" for m, n in set(public) - reached)


def test_the_cli_reaches_every_public_function():
    # the library holds what a command runs: the walk starts at the
    # console script (cli.main) and at the cmd_* function of each
    # cli.COMMANDS entry, which run() looks up by name
    from modk3 import cli
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    roots = [("cli", "main")] + [("cli", f"cmd_{command}_{action}")
                                 for command, action in cli.COMMANDS]
    assert _unreached(sources, roots) == []


def test_the_reachability_walk_follows_each_kind_of_reference():
    sources = {
        "a": ("from .b import Box, f as g\n"
              "TABLE = {1: g}\n"
              "def cmd_x(args): return TABLE, Box(1).get()\n"
              "def unused(): return dead_end()\n"),
        "b": ("def f(): return _helper()\n"
              "def _helper(): from .c import late; return late()\n"
              "def dead_end(): pass\n"
              "class Box:\n"
              "    def __post_init__(self): return k()\n"
              "    def get(self): pass\n"
              "    def put(self): pass\n"
              "def k(): pass\n"),
        "c": "def late(): pass\ndef never(): pass\n",
    }
    assert _unreached(sources, [("a", "cmd_x")]) == [
        "a.unused", "b.Box.put", "b.dead_end", "c.never"]


def test_the_bench_reads_library_functions():
    # bench/tracer.py keys spans on the (family, p) arguments of the KEYED
    # functions, and bench/run.py reads the caches of two of them; a
    # renamed or re-signed function would surface only as a KeyError or a
    # wrong key inside a traced bench run
    tree = ast.parse((BENCH / "tracer.py").read_text())
    keyed = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["KEYED"])
    cached = ("counting.k3_point_count", "kodaira.integral_model")
    run_text = (BENCH / "run.py").read_text()
    assert all(name in run_text for name in cached)

    def library_function(name):
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"modk3.{module}"), attr)
        assert inspect.isfunction(inspect.unwrap(fn)), name
        assert inspect.unwrap(fn).__module__ == f"modk3.{module}", name
        return fn

    assert keyed and all(hasattr(library_function(name), "cache_info")
                         for name in cached)
    for name in keyed:
        params = inspect.signature(library_function(name)).parameters
        assert list(params)[:2] == ["family", "p"], name


def test_a_window_misses_the_count_cache_once_per_prime(monkeypatch):
    # bench/run.py reports k3_point_count's cache misses as the counts a
    # workload computed: a window of primes not yet counted is one miss a
    # prime, and reading it again is one hit a prime
    fresh = lru_cache(maxsize=None)(counting.k3_point_count.__wrapped__)
    monkeypatch.setattr(counting, "k3_point_count", fresh)
    monkeypatch.setattr(counting, "_counts", {})
    family = preset("g62")
    primes = counting.good_primes(family, 5, 60)
    counting.k3_point_counts(family, primes)
    assert fresh.cache_info().misses == len(primes) == len(counting._counts)
    counting.k3_point_counts(family, primes)
    assert fresh.cache_info()[:2] == (len(primes), len(primes))
