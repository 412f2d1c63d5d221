"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each
(run with `pytest tests/test_acceptance.py -s` to see the lines).

Criteria 4 and 5 each have a documented expected failure: the module
tau^3 + tau^2 + tau does not lie in the stated isogeny class.  Its
coefficients sit in F_5, where the twist acts trivially, so its Frobenius
minimal polynomial is prod(x - u_i^3) over the roots u_i of
u^3 + u^2 + u - T; Newton's identities give x^3 + (2T+3)x^2 +
(3T^2+3T+1)x + 4T^3, and direct skew arithmetic agrees.  No monic-in-tau
module exists in the stated class at all: matching leading coefficients in
M(pi) = 0 forces lc(phi_T) to be a root of 4c^3 + c^2 + c + 1, whose roots
are the three conjugates of -alpha^2.  The original assertions are kept
verbatim under strict xfail, and the corrected witness
psi_star = -alpha^2 tau^3 + 2 tau^2 + alpha^2 tau (in the class, with
endomorphism ring A[pi]) exercises the same identification path.
"""

from __future__ import annotations

import random
import time

import pytest

from drinfeld_orders import (
    OrderHNF,
    Poly,
    analyze_weil_class,
    closure_check,
    divisors,
    identify_endo_ring,
    mult_table,
    squarefree_decompose,
    verify_weil_action,
    survey_candidates,
)
from drinfeld_orders.factor import factor

from oracles import (
    closure_oracle,
    exact_sqrt,
    expand,
    frobenius_order_hnf,
    int_poly,
    irreducible_oracle,
    paper_weil,
)
from test_gf import build_field
from test_poly import rand_poly


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def test_criterion_1_discriminants_and_index():
    W = paper_weil()
    F = W.field
    t0 = time.perf_counter()
    analysis = analyze_weil_class(W)
    elapsed = time.perf_counter() - t0
    T = Poly.x(F)
    t4 = int_poly(F, [4, 1])
    quad = int_poly(F, [2, 4, 1])
    ok = (
        analysis.sf.disc_m0 == T * T * t4 * t4 * quad
        and analysis.mo.delta == (t4 * t4 * quad).monic()
        and analysis.mo.index == T
        and elapsed < 1.0
    )
    _report(
        "1 (discriminants, index, <1s)",
        ok,
        f"disc(M0)={analysis.sf.disc_m0.to_str()}, Delta={analysis.mo.delta.to_str()}, "
        f"I={analysis.mo.index.to_str()}, {elapsed * 1000:.0f} ms",
    )
    assert ok


def test_criterion_2_integral_basis(example_analysis):
    mo = example_analysis.mo
    F = example_analysis.weil.field
    ok = mo.beta2 == int_poly(F, [4]) and mo.alpha2 == int_poly(F, [3])
    _report(
        "2 (integral basis)",
        ok,
        f"beta2={mo.beta2.to_str()}, alpha2={mo.alpha2.to_str()}",
    )
    assert ok


def test_criterion_3_enumeration(example_analysis):
    F = example_analysis.weil.field
    T = Poly.x(F)
    one, zero = Poly.one(F), Poly.zero(F)
    got = [r.order for r in example_analysis.orders]
    want = [OrderHNF(a=one, b=zero, c=one), OrderHNF(a=T, b=zero, c=one)]
    frob_report = example_analysis.orders[1]
    ok = got == want and frob_report.conductor_norm == T * T
    _report(
        "3 (enumeration)",
        ok,
        f"{len(got)} rings, conductor norm of A[pi] = {frob_report.conductor_norm.to_str()}",
    )
    assert ok


def test_criterion_4_identification_phi(module_phi, example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    candidates = [r.order for r in example_analysis.orders]
    end = candidates[identify_endo_ring(survey_candidates(module_phi, candidates, sf, mo))]
    ok = end == OrderHNF(a=Poly.one(F), b=Poly.zero(F), c=Poly.one(F))
    _report("4 (End phi = O_max)", ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="tau^3+tau^2+tau is not in the stated isogeny class; its Weil "
    "polynomial is x^3+(2T+3)x^2+(3T^2+3T+1)x+4T^3 (see module docstring)",
)
def test_criterion_4_identification_psi_as_printed(
    module_psi_literal, example_analysis
):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    _report(
        "4 (End psi = A[pi], module as printed)",
        False,
        "documented defect: the module lies in a different class",
    )
    assert verify_weil_action(module_psi_literal, W)
    candidates = [r.order for r in example_analysis.orders]
    end = candidates[
        identify_endo_ring(survey_candidates(module_psi_literal, candidates, sf, mo))
    ]
    assert end == OrderHNF(a=Poly.x(F), b=Poly.zero(F), c=Poly.one(F))


def test_criterion_4_identification_corrected_witness(
    module_psi_star, example_analysis
):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    candidates = [r.order for r in example_analysis.orders]
    end = candidates[
        identify_endo_ring(survey_candidates(module_psi_star, candidates, sf, mo))
    ]
    ok = verify_weil_action(module_psi_star, W) and end == OrderHNF(
        a=Poly.x(F), b=Poly.zero(F), c=Poly.one(F)
    )
    _report("4 (End psi_star = A[pi], corrected witness)", ok)
    assert ok


def test_criterion_5_weil_action_phi(module_phi, example_weil):
    ok = verify_weil_action(module_phi, example_weil)
    _report("5 (Weil action, phi)", ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="tau^3+tau^2+tau is not in the stated isogeny class "
    "(see module docstring)",
)
def test_criterion_5_weil_action_psi_as_printed(module_psi_literal, example_weil):
    _report(
        "5 (Weil action, psi as printed)",
        False,
        "documented defect: M(pi) != 0 for this module",
    )
    assert verify_weil_action(module_psi_literal, example_weil)


def test_criterion_5_weil_action_corrected_witness(module_psi_star, example_weil):
    ok = verify_weil_action(module_psi_star, example_weil)
    _report("5 (Weil action, psi_star)", ok)
    assert ok


def test_criterion_6_closure_oracle_equivalence(instance_pool):
    from drinfeld_orders import enumerate_candidates

    assert len(instance_pool) >= 20
    disagreements = 0
    triples = 0
    for analysis in instance_pool:
        m2 = mult_table(analysis.sf, analysis.mo)
        for order in enumerate_candidates(analysis.sf, analysis.mo):
            triples += 1
            if closure_check(order, m2) != closure_oracle(
                order, analysis.sf, analysis.mo
            ):
                disagreements += 1
    ok = disagreements == 0
    _report(
        "6 (closure oracle equivalence)",
        ok,
        f"{len(instance_pool)} instances, {triples} candidate triples, "
        f"{disagreements} disagreements",
    )
    assert ok


def test_criterion_7_identity_suite(instance_pool):
    checked_frob_hnf = 0
    for analysis in instance_pool:
        mo = analysis.mo
        W = analysis.weil
        # disc(M0) = I^2 * Delta up to a unit
        assert analysis.sf.disc_m0.monic() == (mo.index * mo.index * mo.delta).monic()
        # disc(O) = (ac)^2 * Delta for every emitted order
        for rep in analysis.orders:
            n = rep.order.a * rep.order.c
            assert rep.disc == (n * n * mo.delta)
            assert rep.conductor_norm == n * n
        # A[pi] has HNF (I, 0, 1) whenever g = 1
        if analysis.sf.g.is_one:
            frob = frobenius_order_hnf(analysis.sf, mo)
            assert frob == OrderHNF(
                a=mo.index, b=Poly.zero(W.field), c=Poly.one(W.field)
            )
            checked_frob_hnf += 1
        # height characterisation
        h = analysis.local.height
        div_a2 = W.a2.is_zero or (W.a2 % W.pv).is_zero
        div_a1 = W.a1.is_zero or (W.a1 % W.pv).is_zero
        assert h in (1, 2, 3)
        assert (h == 1) == (not div_a2)
        assert (h == 3) == (div_a2 and div_a1)
    ok = checked_frob_hnf >= 10
    _report(
        "7 (identity suite)",
        True,
        f"{len(instance_pool)} instances, {checked_frob_hnf} with g = 1",
    )
    assert ok


def test_criterion_8_algebra_substrate():
    fields = [build_field(q) for q in (2, 3, 4, 5, 7, 9)]
    per_field = 84  # 6 * 84 = 504 >= 500 samples per operation
    t0 = time.perf_counter()

    rng = random.Random(801)
    for F in fields:
        for _ in range(per_field):
            f = rand_poly(F, 12, rng)
            if f.is_zero:
                f = Poly.one(F)
            decomp = squarefree_decompose(f)
            assert expand(f, decomp) == f

    rng = random.Random(802)
    for F in fields:
        for _ in range(per_field):
            f = rand_poly(F, 12, rng)
            if f.is_zero:
                f = Poly.x(F)
            fac = factor(f)
            assert expand(f, fac) == f
            for prime, _ in fac:
                assert irreducible_oracle(prime)

    rng = random.Random(803)
    for F in fields:
        for _ in range(per_field):
            s = rand_poly(F, 6, rng, monic=True)
            assert exact_sqrt(s * s) == s
            assert exact_sqrt(s * s * Poly.x(F)) is None

    rng = random.Random(804)
    for F in fields:
        for _ in range(per_field):
            f = rand_poly(F, 12, rng)
            if f.is_zero:
                f = Poly.one(F)
            fac = factor(f)
            ds = divisors(F, fac)
            want = 1
            for _, mult in fac:
                want *= mult + 1
            assert len(ds) == want == len(set(ds))
            assert all(d.divides(f) for d in ds)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        "8 (algebra substrate)",
        ok,
        f"4 x {6 * per_field} samples in {elapsed:.1f} s (< 60 s)",
    )
    assert ok
