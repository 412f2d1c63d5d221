"""The package's records are ``typing.NamedTuple``s: values that compare and
hash by their fields and refuse assignment, and a CLI start-up that never
imports ``dataclasses`` (nor ``inspect``, which it would pull in)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from drinfeld_orders import (
    KElem,
    OrderHNF,
    Poly,
    analyze_weil_class,
    factor,
    squarefree_decompose,
)
from drinfeld_orders.cli import load_config
from drinfeld_orders.skew import MembershipSurvey

from oracles import int_poly, paper_weil

REPO = Path(__file__).resolve().parent.parent


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    code = (
        "import drinfeld_orders.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_equal_order_triples_are_equal_and_hash_equal(f5):
    def triple():
        return OrderHNF(int_poly(f5, [1, 1]), int_poly(f5, [2]), int_poly(f5, [0, 1]))

    first, second = triple(), triple()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: "entry"}[second] == "entry"
    assert first != first._replace(b=Poly.zero(f5))
    assert repr(first) == "OrderHNF(a=T+1, b=2, c=T)"


def all_records(f5):
    analysis = analyze_weil_class(paper_weil(f5))
    f = int_poly(f5, [1, 0, 1]) * int_poly(f5, [1, 1]) ** 2
    one = Poly.one(f5)
    order = analysis.orders[0].order
    return [
        load_config(str(REPO / "configs" / "example_f5.json")),
        analysis.weil,
        analysis.local,
        analysis.sf,
        analysis.mo,
        squarefree_decompose(f),
        factor(f),
        order,
        analysis.orders[0],
        analysis,
        KElem.make(one, one, one, one),
        MembershipSurvey(order, (True, True)),
    ]


def test_every_field_of_every_record_refuses_assignment(f5):
    records = all_records(f5)
    assert len({type(r).__name__ for r in records}) == 12
    for record in records:
        assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_replaced_weil_cubic_recomputes_its_cache(f5):
    W = paper_weil(f5)
    depressed, disc = W.depressed, W.disc
    copy = W._replace()
    assert type(copy) is type(W) and copy == W and copy is not W
    assert "depressed" not in vars(copy) and "disc" not in vars(copy)
    assert copy.depressed == depressed and copy.depressed is not depressed
    assert copy.disc == disc and copy.disc is not disc
    # a field replaced is a new class: its depressed form is its own
    shifted = W._replace(a1=W.a1 + Poly.one(f5))
    assert shifted.depressed[0] != depressed[0]
    assert W.depressed is depressed
