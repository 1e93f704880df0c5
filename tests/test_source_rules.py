"""Rules on the library's source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sunflowers"


def test_library_checks_are_exceptions_not_asserts():
    # `python -O` strips assert statements; every check must survive it
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
