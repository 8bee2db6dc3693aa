"""Rules the library source keeps."""

import ast
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
