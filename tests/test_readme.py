"""README.md's paper-to-code map and command-line examples stay true: every
code, suite and test name in its table resolves, and every example command
exits with the code written beside it."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from hyperklein import cli, verify
from hyperklein.data import gen_tree_dataset, save_dataset

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _table_rows():
    """The map's rows, each a list of its cells' backticked names."""
    section = README.split("## Paper-to-code map", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| ") and not line.startswith("| Claim")]
    return [[re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split(" | ")] for line in lines]


def _test_names(path):
    """Every class and function node id in a test file: "Class", "Class::test", "test"."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)}
    return names


def _node_ids():
    """Every `tests/...::name` the README names, in its table or prose."""
    return sorted(set(re.findall(r"`(tests/[\w/]+\.py::[\w:]+)`", README)))


def test_the_map_covers_the_papers_claims():
    rows = _table_rows()
    assert rows and all(len(cells) == 4 for cells in rows)
    assert all(code and tests for _, code, _, tests in rows)


def test_every_code_name_resolves():
    for _, code, _, _ in _table_rows():
        for name in code:
            module, attr = name.rsplit(".", 1)
            assert callable(getattr(importlib.import_module(f"hyperklein.{module}"), attr)), name


def test_every_suite_name_is_a_suite():
    suites = [name for _, _, names, _ in _table_rows() for name in names]
    assert suites and set(suites) <= set(verify.suite_names())


@pytest.mark.parametrize("node_id", _node_ids())
def test_every_test_name_resolves(node_id):
    path, name = node_id.split("::", 1)
    assert name in _test_names(ROOT / path)


def _examples():
    """The example commands and the exit code written beside each."""
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        (shlex.split(command), int(code))
        for command, code in re.findall(r"^(hyperklein .+?)\s+# exit (\d)$", block, flags=re.MULTILINE)
    ]


def test_examples_exit_with_their_documented_codes(tmp_path, monkeypatch):
    examples = _examples()
    assert {code for _, code in examples} == {0, 1, 2}
    monkeypatch.chdir(tmp_path)
    save_dataset(gen_tree_dataset(4, 8, 0.1, seed=0), tmp_path / "tree.json")
    (tmp_path / "points.csv").write_text("0.5,0.1\n", encoding="utf-8")
    for argv, code in examples:
        assert cli.main(argv[1:]) == code, argv
    assert (tmp_path / "sheet.csv").read_text(encoding="utf-8").count(",") == 2


def test_exit_codes_match_the_cli():
    table = dict(re.findall(r"^\| (\d) \| (.+) \|$", README, flags=re.MULTILINE))
    assert sorted(table) == ["0", "1", "2", "3", "4"]
    codes = (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC, cli.EXIT_SELFTEST)
    assert codes == (0, 1, 2, 3, 4)
