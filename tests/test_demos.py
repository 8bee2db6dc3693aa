"""Every demo runs to the end in-process with its output captured (about a
second for all five once modk3 is imported), and every name it imports
from modk3 exists."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("modk3")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    # the demos print these words, or a False flag, when a check fails
    for word in ("FAIL", "MISMATCH", "False"):
        assert word not in out, word
