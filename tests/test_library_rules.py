"""Rules the library source keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modk3"


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
