"""Byte-for-byte snapshots of the CLI on the shipped configs.

Each case is one command line; ``tests/golden/<case>.out`` holds its
stdout and ``tests/golden/exit_codes.json`` its exit code.  The cases are
``analyze`` in text and JSON, ``analyze --candidate-bound 1`` (exit 5) and
``check-module`` for every module a config names.

To re-record after an intended report change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from drinfeld_orders.cli import ENV_CANDIDATE_BOUND, main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"


def _cases():
    cases = {}
    for cfg in sorted((REPO / "configs").glob("*.json")):
        stem = cfg.stem
        path = str(cfg)
        cases[f"{stem}.analyze.text"] = ["analyze", path]
        cases[f"{stem}.analyze.json"] = ["analyze", path, "--format", "json"]
        cases[f"{stem}.analyze.bound1"] = ["analyze", path, "--candidate-bound", "1"]
        for module in json.loads(cfg.read_text()).get("modules", []):
            name = module["name"]
            cases[f"{stem}.check-module.{name}"] = ["check-module", path, "--name", name]
    return cases


CASES = _cases()


def _run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def test_golden_cases_are_recorded():
    recorded = json.loads(EXIT_CODES.read_text())
    assert sorted(recorded) == sorted(CASES)
    assert len(CASES) == 3 * 3 + 5  # three analyze runs per config, five modules


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    rc, stdout = _run(CASES[case])
    assert rc == json.loads(EXIT_CODES.read_text())[case]
    assert stdout == (GOLDEN_DIR / f"{case}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop(ENV_CANDIDATE_BOUND, None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], stdout = _run(argv)
        (GOLDEN_DIR / f"{case}.out").write_text(stdout, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
