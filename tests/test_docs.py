"""The README stays in step with the code it documents: its config example
is the shipped example config, and its exit-code table lists every row of
``cli.EXITS`` with that row's code and stderr prefix."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from drinfeld_orders.cli import EXITS

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


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
