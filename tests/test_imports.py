"""Every import in the package is at module level, so no module cycle hides in a function body."""

import ast
from pathlib import Path

import hyperklein


def test_no_import_inside_a_function():
    files = sorted(Path(hyperklein.__file__).parent.glob("*.py"))
    assert files
    found = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not found, f"imports inside function bodies: {', '.join(sorted(found))}"
