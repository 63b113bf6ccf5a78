import ast
from pathlib import Path

import windtree

SRC = Path(windtree.__file__).resolve().parent


def test_package_has_no_assert_statement():
    # `python -O` strips assert statements; an invariant check raises
    # AssertionError explicitly so that it runs in every mode
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
