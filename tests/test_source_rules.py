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


def test_every_module_level_import_is_used():
    # __init__ imports to re-export; every other module reads what it imports
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
