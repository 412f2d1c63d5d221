"""The README stays in step with the code it documents: its config example
is the shipped example config, its exit-code table lists every row of
``cli.EXITS`` with that row's code and stderr prefix and names each class
of ``drinfeld_orders.errors`` once and no other error, and every dotted
name in its library layout table exists in the package."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from drinfeld_orders import errors
from drinfeld_orders.cli import EXITS

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
PACKAGE = REPO / "src" / "drinfeld_orders"


def test_readme_config_example_is_the_shipped_config():
    (example,) = re.findall(r"```json\n(.*?)```", README, re.S)
    shipped = (REPO / "configs" / "example_f5.json").read_text()
    assert json.loads(example) == json.loads(shipped)


@pytest.mark.parametrize("error, code, prefix", EXITS, ids=lambda v: getattr(v, "__name__", None))
def test_readme_exit_table_lists_each_exit(error, code, prefix):
    rows = [line.split("|")[1:-1] for line in README.splitlines() if line.startswith("| ")]
    assert [
        cells
        for cells in rows
        if len(cells) == 3
        and f"`{error.__name__}`" in cells[0]
        and cells[1].strip() == str(code)
        and cells[2].strip() == f"`{prefix}:`"
    ]


def test_readme_exit_table_names_each_error_class_once():
    # a class added to or removed from errors.py cannot go unnoticed here
    table = README.split("| error | exit | stderr |", 1)[1].split("\n\n", 1)[0]
    defined = [
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert defined and sorted(re.findall(r"`(\w+Error)`", table)) == sorted(defined)


def _bound_here(node):
    """The names that one statement binds in its own scope."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name.split(".")[0])
    return names


def _package_names():
    """The dotted names the package defines: drinfeld_orders.<module>,
    <module>.<name> for a name bound at a module's top level,
    <Class>.<name> for a name bound in a class body or as self.<name>, and
    <module>.<name> for each name a module imports from another module."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        module = path.stem
        found.add(f"drinfeld_orders.{module}")
        tree = ast.parse(path.read_text())
        found |= {f"{module}.{name}" for stmt in tree.body for name in _bound_here(stmt)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.ClassDef):
                members = {name for stmt in node.body for name in _bound_here(stmt)}
                members |= {
                    sub.attr
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                }
                found |= {f"{node.name}.{name}" for name in members}
    return found


def test_readme_layout_names_exist_in_the_package():
    # a kernel deleted from the code cannot stay documented in the layout
    table = README.split("## Library layout", 1)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `drinfeld_orders.")]
    dotted = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", "\n".join(rows)))
    assert len(dotted) >= 10
    assert sorted(dotted - _package_names()) == []
