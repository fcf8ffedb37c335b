"""Every import in the package is at module level, so no module cycle hides in a function body,
and no operation has a second `_rows` copy beside it."""

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


def test_no_operation_has_a_second_rows_copy():
    # each operation is one function on rows; an `f_rows` beside an `f` would
    # be a second copy of it
    files = sorted(Path(hyperklein.__file__).parent.glob("*.py"))
    twins = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        twins += [f"{path.name}:{name}" for name in sorted(names) if name.endswith("_rows") and name[: -len("_rows")] in names]
    assert not twins, f"functions with a _rows twin: {', '.join(twins)}"
