from __future__ import annotations

from pathlib import Path

import pytest

from drinfeld_orders import (
    OrderHNF,
    Poly,
    PrimeField,
    WeilCubic,
    analyze_weil_class,
    closure_check,
    enumerate_candidates,
    make_extension_field,
    maximal_order_data,
    mult_table,
    order_disc,
    poly_gcd,
    squarefree_decompose,
    standard_form,
    validate_weil_necessary,
)
from drinfeld_orders.cli import load_config
from drinfeld_orders.orders import assess_order

from oracles import (
    EXPECTED_REJECTIONS,
    candidate_count_oracle,
    closure_oracle,
    contains_frobenius,
    element_in_lattice,
    frobenius_coords,
    frobenius_order_hnf,
    int_poly,
    sandwich_endo_oracle,
    v_maximality,
)

REPO = Path(__file__).resolve().parent.parent


def _candidates(analysis, prime_to=None):
    return enumerate_candidates(analysis.sf, analysis.mo, prime_to)


def test_mult_table_trivial_shape(f5):
    # I = 1, alpha2 = beta2 = 0: rows encode pi~^3 = -c1 pi~ - c2
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=Poly.one(f5), mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    mo = maximal_order_data(sf)
    assert mo.index.is_one and mo.alpha2.is_zero and mo.beta2.is_zero
    m2 = mult_table(sf, mo)
    zero, one = Poly.zero(f5), Poly.one(f5)
    assert m2[0] == (zero, zero, one)
    assert m2[1] == (zero, -sf.c2, -sf.c1)
    assert m2[2] == (-sf.c2, -sf.c1, zero)


def test_mult_table_worked_example(example_analysis):
    F = example_analysis.weil.field
    m2 = mult_table(example_analysis.sf, example_analysis.mo)
    T = Poly.x(F)
    assert m2[0] == (int_poly(F, [2]), int_poly(F, [1]), T)
    assert m2[2][2] == int_poly(F, [4])


def test_mult_table_against_companion_matrices(instance_pool):
    # every row must match the coordinates of omega1^2, omega2^2, omega1*omega2
    from oracles import companion_matrix, mat_mul, omega2_numerator

    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        m2 = mult_table(sf, mo)
        F = sf.c1.field
        I = mo.index
        c_mat = companion_matrix(sf)
        w2n = omega2_numerator(sf, mo)
        one = Poly.one(F)
        products = {
            0: (mat_mul(c_mat, c_mat), one),  # omega1^2
            1: (mat_mul(w2n, w2n), I * I),  # omega2^2
            2: (mat_mul(c_mat, w2n), I),  # omega1*omega2
        }
        for row_idx, (mat, den) in products.items():
            x, y, z = mat[0][0], mat[1][0], mat[2][0]
            u0 = x - z * mo.alpha2
            u1 = y - z * mo.beta2
            u2 = z * I
            want = m2[row_idx]
            assert u0 == want[0] * den
            assert u1 == want[1] * den
            assert u2 == want[2] * den


def test_closure_maximal_order_always(instance_pool):
    for analysis in instance_pool:
        F = analysis.weil.field
        o = OrderHNF(a=Poly.one(F), b=Poly.zero(F), c=Poly.one(F))
        assert closure_check(o, mult_table(analysis.sf, analysis.mo))


def test_closure_frobenius_order_example(example_analysis):
    F = example_analysis.weil.field
    T = Poly.x(F)
    o = OrderHNF(a=T, b=Poly.zero(F), c=Poly.one(F))
    assert closure_check(o, mult_table(example_analysis.sf, example_analysis.mo))
    assert frobenius_order_hnf(example_analysis.sf, example_analysis.mo) == o


def test_closure_violator_detected(example_analysis):
    # a = T^2 with c = 1 requires T^2 | I = T: not closed
    F = example_analysis.weil.field
    T = Poly.x(F)
    o = OrderHNF(a=T * T, b=Poly.zero(F), c=Poly.one(F))
    assert not closure_check(o, mult_table(example_analysis.sf, example_analysis.mo))
    assert not closure_oracle(o, example_analysis.sf, example_analysis.mo)


def test_closure_agrees_with_companion_oracle(instance_pool):
    total = 0
    for analysis in instance_pool:
        m2 = mult_table(analysis.sf, analysis.mo)
        for order in _candidates(analysis):
            got = closure_check(order, m2)
            want = closure_oracle(order, analysis.sf, analysis.mo)
            assert got == want, f"closure mismatch on {order}"
            total += 1
    assert total >= len(instance_pool)


def test_closure_agreement_on_arbitrary_triples(instance_pool):
    # the two closure deciders must agree on any HNF triple, candidate or not
    import random

    from drinfeld_orders import divisors
    from drinfeld_orders.factor import factor
    from drinfeld_orders.poly import polys_below_degree

    rng = random.Random(4242)
    checked = 0
    for analysis in instance_pool[:12]:
        W, sf, mo = analysis.weil, analysis.sf, analysis.mo
        F = W.field
        pool_a = divisors(F, factor(sf.g * sf.g * mo.index * W.pv))
        pool_c = divisors(F, factor(sf.g * W.pv))
        m2 = mult_table(sf, mo)
        for _ in range(12):
            a = pool_a[rng.randrange(len(pool_a))]
            c = pool_c[rng.randrange(len(pool_c))]
            bs = list(polys_below_degree(F, a.degree)) or [Poly.zero(F)]
            b = bs[rng.randrange(len(bs))]
            order = OrderHNF(a=a, b=b, c=c)
            assert closure_check(order, m2) == closure_oracle(
                order, sf, mo
            ), f"disagreement on arbitrary triple {order}"
            checked += 1
    assert checked >= 100


def test_contains_frobenius_cases(f5):
    T = Poly.x(f5)
    one, zero = Poly.one(f5), Poly.zero(f5)
    # (a, b, c) = (I, 0, 1) with g = 1: contained
    assert contains_frobenius(OrderHNF(a=T, b=zero, c=one), one)
    # c does not divide g
    assert not contains_frobenius(OrderHNF(a=T, b=zero, c=T), one)
    # g = s*t with c = s, a | b*t: witness case
    s = T + one
    t = T
    g = s * t
    order = OrderHNF(a=T, b=zero, c=s)
    assert contains_frobenius(order, g)
    order = OrderHNF(a=T * T, b=T, c=s)  # a | b*t = T^2
    assert contains_frobenius(order, g)
    order = OrderHNF(a=T * T, b=one, c=s)  # T^2 does not divide T
    assert not contains_frobenius(order, g)


def test_contains_frobenius_matches_lattice_membership(instance_pool):
    for analysis in instance_pool[:10]:
        W, sf, mo = analysis.weil, analysis.sf, analysis.mo
        pi, _ = frobenius_coords(W, sf)
        one = Poly.one(W.field)
        for order in _candidates(analysis):
            got = contains_frobenius(order, sf.g)
            want = element_in_lattice(order, pi, one, mo)
            assert got == want


def test_v_maximality_cases(f5, example_analysis):
    T = Poly.x(f5)
    one, zero = Poly.one(f5), Poly.zero(f5)
    # example: pv does not divide a2, every order passes
    for order in _candidates(example_analysis):
        assert v_maximality(order, example_analysis.weil, example_analysis.local)
    # pv | a2: gcd(pv, ac) = 1 required
    W = WeilCubic(field=f5, a1=Poly.one(f5), a2=T * T, mu=f5.element(1), pv=T, m=3)
    local = validate_weil_necessary(W)
    assert local.pv_divides_a2
    assert not v_maximality(OrderHNF(a=T, b=zero, c=one), W, local)
    assert v_maximality(OrderHNF(a=T + one, b=zero, c=one), W, local)


def test_order_disc_worked_example(example_analysis):
    F = example_analysis.weil.field
    T = Poly.x(F)
    rep = [r for r in example_analysis.orders if r.order.a == T][0]
    assert rep.conductor_norm == T * T
    assert rep.disc == (T * T * example_analysis.mo.delta)
    maximal = example_analysis.orders[0]
    assert maximal.conductor_norm.is_one
    assert maximal.disc == example_analysis.mo.delta


def test_order_disc_degree_law(instance_pool):
    for analysis in instance_pool:
        for order in _candidates(analysis):
            d = order.a.degree + order.c.degree
            disc, norm = order_disc(order, analysis.mo.delta)
            assert norm.degree == 2 * d
            assert disc.degree == 2 * d + analysis.mo.delta.degree
            assert disc == norm * analysis.mo.delta


def test_enumerate_worked_example(example_analysis):
    F = example_analysis.weil.field
    T = Poly.x(F)
    one, zero = Poly.one(F), Poly.zero(F)
    got = [r.order for r in example_analysis.orders]
    assert got == [OrderHNF(a=one, b=zero, c=one), OrderHNF(a=T, b=zero, c=one)]


def test_enumerate_single_order_when_trivial(f5):
    # I = 1 and g = 1: only the maximal order remains
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=Poly.one(f5), mu=f5.element(1), pv=T, m=1)
    analysis = analyze_weil_class(W)
    assert analysis.sf.g.is_one and analysis.mo.index.is_one
    assert len(_candidates(analysis)) == 1
    assert analysis.candidate_count == 1
    assert len(analysis.orders) == 1


def test_candidate_count_is_full_sandwich(instance_pool):
    for analysis in instance_pool:
        assert analysis.candidate_count == len(
            _candidates(analysis)
        )


def test_divisor_filter_is_v_maximality(instance_pool):
    # pv irreducible: gcd(pv, a*c) = 1 iff pv divides neither a nor c.  With
    # pv dropped from the primes of g and g^2*I before the divisors are
    # expanded, the enumeration is the full sandwich less every triple with
    # pv | a or pv | c, and the candidate count is still the full sandwich
    shipped = [
        analyze_weil_class(load_config(str(path)).weil)
        for path in sorted((REPO / "configs").glob("*.json"))
    ]
    split = [a for a in [*instance_pool, *shipped] if a.local.pv_divides_a2]
    assert any(a in split for a in shipped)
    pruned = 0
    for analysis in split:
        W = analysis.weil
        full = _candidates(analysis)
        want = [o for o in full if not W.pv.divides(o.a) and not W.pv.divides(o.c)]
        assert want == [o for o in full if v_maximality(o, W, analysis.local)]
        assert _candidates(analysis, W.pv) == want
        assert analysis.candidate_count == len(full)
        pruned += len(want) < len(full)
    assert pruned


def _content_family(p, u, e, mu, m):
    """x^3 + u*T^e*x + mu*T^m over F_p, with pv = T."""
    F = PrimeField(p)
    return WeilCubic(
        field=F,
        a1=Poly.zero(F),
        a2=int_poly(F, [0] * e + [u]),
        mu=F.element(mu),
        pv=Poly.x(F),
        m=m,
    )


def _maximal(F):
    return OrderHNF(a=Poly.one(F), b=Poly.zero(F), c=Poly.one(F))


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs its calls; returns the log."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_v_maximality_filters_divisors_before_closure(monkeypatch):
    # x^3 + 3T^4 x + 2T^6 over F_11: pv = T divides a2 and every proper
    # candidate has T | a*c, so only O_max is enumerated, and it is accepted
    # with neither a closure test nor a multiplication table
    import drinfeld_orders.orders as orders_module

    W = _content_family(11, 3, 4, 2, 6)
    closures = _counting(monkeypatch, orders_module, "closure_check")
    tables = _counting(monkeypatch, orders_module, "mult_table")
    analysis = analyze_weil_class(W)
    assert analysis.local.pv_divides_a2
    assert analysis.candidate_count == 425
    assert [r.order for r in analysis.orders] == [_maximal(W.field)]
    assert closures == [] and tables == []


def test_maximal_order_closes_under_any_table():
    # a = c = 1 divides every entry, so closure_check accepts O_max whatever
    # the nine entries of the table are
    import random

    rng = random.Random(30)
    f5 = PrimeField(5)
    f25 = make_extension_field(f5, int_poly(f5, [2, 0, 1]))
    for F in (f5, PrimeField(13), f25):
        o_max = _maximal(F)
        for _ in range(40):
            m2 = tuple(
                tuple(
                    Poly(F, [F.element(rng.randrange(F.q)) for _ in range(rng.randrange(5))])
                    for _ in range(3)
                )
                for _ in range(3)
            )
            assert closure_check(o_max, m2)


def _closure_pipeline(analysis):
    """The accepted orders as every enumerated triple, O_max included, that
    passes assess_order against the class's multiplication table."""
    W, sf, mo = analysis.weil, analysis.sf, analysis.mo
    prime_to = W.pv if analysis.local.pv_divides_a2 else None
    m2 = mult_table(sf, mo)
    reports = (assess_order(o, mo, m2) for o in enumerate_candidates(sf, mo, prime_to))
    return tuple(r for r in reports if r is not None)


def test_accepted_orders_match_the_closure_pipeline(instance_pool):
    # shipped configs, the random pool and the class-sandwich shape
    # x^3 + u*T^(2m/3)*x + mu*T^m over F_11 and F_13
    analyses = [
        analyze_weil_class(load_config(str(path)).weil)
        for path in sorted((REPO / "configs").glob("*.json"))
    ]
    analyses += list(instance_pool)
    analyses += [
        analyze_weil_class(_content_family(p, u, 2 * m // 3, mu, m))
        for p, u, mu, m in [(11, 3, 2, 6), (11, 1, 4, 6), (13, 2, 2, 6), (13, 10, 1, 9)]
    ]
    analyses += [analyze_weil_class(_content_family(*args)) for args in CONTENT_FAMILY]
    proper = 0
    for analysis in analyses:
        assert analysis.orders == _closure_pipeline(analysis)
        proper += len(analysis.orders) > 1
    assert proper


def test_mult_table_built_only_for_proper_triples(monkeypatch, example_weil, instance_pool):
    import drinfeld_orders.orders as orders_module

    tables = _counting(monkeypatch, orders_module, "mult_table")
    analysis = analyze_weil_class(example_weil)
    assert len(analysis.orders) == 2 and len(tables) == 1
    lone = 0
    for W in [a.weil for a in instance_pool] + [_content_family(*a) for a in CONTENT_FAMILY]:
        sf = standard_form(W)
        mo = maximal_order_data(sf)
        prime_to = W.pv if validate_weil_necessary(W).pv_divides_a2 else None
        if len(enumerate_candidates(sf, mo, prime_to)) > 1:
            continue
        tables.clear()
        analyze_weil_class(W)
        assert tables == []
        lone += 1
    assert lone


def test_candidate_count_matches_pairwise_gcd_oracle():
    # x^3 + u T^e x + mu T^m over F_5 and F_7; x^3 + T^5 over F_5 (u = 0)
    # has g = I = T, so the prime T enters both c | g and a | g^2*I
    W = _content_family(5, 0, 0, 1, 5)
    analysis = analyze_weil_class(W)
    assert analysis.sf.g == analysis.mo.index == Poly.x(W.field)
    assert analysis.candidate_count == 20 == candidate_count_oracle(analysis.sf, analysis.mo)
    shared = 0
    for p in (5, 7):
        for u in (0, 1, 2):
            for e in range(7):
                for m in range(1, 8):
                    try:
                        analysis = analyze_weil_class(_content_family(p, u, e, 1, m))
                    except EXPECTED_REJECTIONS:
                        continue
                    sf, mo = analysis.sf, analysis.mo
                    assert analysis.candidate_count == candidate_count_oracle(sf, mo)
                    shared += not poly_gcd(sf.g, mo.index).is_one
    assert shared


def test_large_sandwich_single_order():
    # x^3 + T^8 x + T^12 over F_7 (m = 12): 14,937 candidates, only O_max
    W = _content_family(7, 1, 8, 1, 12)
    analysis = analyze_weil_class(W)
    assert analysis.candidate_count == 14937
    assert [r.order for r in analysis.orders] == [_maximal(W.field)]


CONTENT_FAMILY = [(7, 0, 0, 1, 5), (11, 3, 4, 2, 6), (13, 2, 4, 2, 6), (7, 1, 8, 1, 12)]


def test_enumerated_triples_pass_the_tests_they_skip(instance_pool):
    # assess_order runs closure only: the enumeration must build no triple
    # without pi, and with prime_to = pv none that fails v-maximality
    analyses = list(instance_pool) + [
        analyze_weil_class(_content_family(*args)) for args in CONTENT_FAMILY
    ]
    filtered = 0
    for analysis in analyses:
        W, sf = analysis.weil, analysis.sf
        assert all(contains_frobenius(o, sf.g) for o in _candidates(analysis))
        kept = _candidates(analysis, W.pv)
        assert all(v_maximality(o, W, analysis.local) for o in kept)
        filtered += analysis.local.pv_divides_a2
    assert filtered >= len(CONTENT_FAMILY)


def test_factor_runs_only_on_the_repeated_part(monkeypatch, instance_pool):
    # a prime dividing disc(M) once divides neither g nor I, so standard_form
    # splits only the parts of multiplicity >= 2 of disc(M), one call each,
    # and runs one square-free decomposition, of disc(M) itself: the parts it
    # splits are square-free already.  Validation factors nothing, the
    # residual cubic of a supersingular class with 3 | m included
    import sys

    import drinfeld_orders.factor as factor_module

    calls, decomposed = [], []

    def recording(original, log):
        def wrapper(f):
            log.append(f)
            return original(f)

        return wrapper

    # factor() reaches both through the factor module's globals, so its
    # calls are recorded too
    for original, log in (
        (factor_module.squarefree_factors, calls),
        (factor_module.squarefree_decompose, decomposed),
    ):
        wrapper = recording(original, log)
        for name, module in list(sys.modules.items()):
            if name == "drinfeld_orders" or name.startswith("drinfeld_orders."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    classes = [a.weil for a in instance_pool]
    classes += [_content_family(*args) for args in CONTENT_FAMILY]
    residuals = factored = 0
    for W in classes:
        calls.clear()
        decomposed.clear()
        local = validate_weil_necessary(W)
        assert calls == [] and decomposed == []
        residuals += local.supersingular and W.m % 3 == 0
        sf = analyze_weil_class(W).sf
        d = sf.g**6 * sf.disc_m0
        assert decomposed == [d]
        repeated = [part for part, v in squarefree_decompose(d) if v >= 2]
        assert calls == repeated
        factored += len(calls)
        for f in calls:
            assert poly_gcd(f, f.derivative()).is_one
            assert (d % (f * f)).is_zero
    assert residuals and factored


def test_enumerate_matches_sandwich_oracle(instance_pool):
    for analysis in instance_pool:
        got = sorted((r.order for r in analysis.orders), key=lambda o: o.sort_key())
        want = sorted(sandwich_endo_oracle(analysis), key=lambda o: o.sort_key())
        assert got == want, (
            f"enumeration mismatch for q={analysis.weil.field.q}, "
            f"M with a1={analysis.weil.a1.to_str()}, a2={analysis.weil.a2.to_str()}"
        )


def test_every_emitted_order_in_sandwich(instance_pool):
    # A[pi] <= O <= O_max, tested coordinate-wise both ways
    for analysis in instance_pool:
        W, sf, mo = analysis.weil, analysis.sf, analysis.mo
        pi, pi2 = frobenius_coords(W, sf)
        one = Poly.one(W.field)
        for rep in analysis.orders:
            assert element_in_lattice(rep.order, pi, one, mo)
            assert element_in_lattice(rep.order, pi2, one, mo)


def test_frobenius_order_hnf_when_g_trivial(instance_pool):
    for analysis in instance_pool:
        if not analysis.sf.g.is_one:
            continue
        frob = frobenius_order_hnf(analysis.sf, analysis.mo)
        assert frob == OrderHNF(
            a=analysis.mo.index,
            b=Poly.zero(analysis.weil.field),
            c=Poly.one(analysis.weil.field),
        )


def test_frobenius_order_present_when_v_maximal(instance_pool):
    for analysis in instance_pool:
        frob = frobenius_order_hnf(analysis.sf, analysis.mo)
        passes_v = v_maximality(frob, analysis.weil, analysis.local)
        emitted = [r.order for r in analysis.orders]
        if passes_v:
            assert frob in emitted
        else:
            assert frob not in emitted


def test_acceptance_predicate_rechecks(instance_pool):
    # re-running the three checks on each emitted order returns true thrice
    for analysis in instance_pool:
        m2 = mult_table(analysis.sf, analysis.mo)
        for rep in analysis.orders:
            assert closure_check(rep.order, m2)
            assert contains_frobenius(rep.order, analysis.sf.g)
            assert v_maximality(rep.order, analysis.weil, analysis.local)
            assert rep.is_endo_ring


def test_no_emitted_order_divisible_by_pv_when_split(instance_pool):
    for analysis in instance_pool:
        if not analysis.local.pv_divides_a2:
            continue
        for rep in analysis.orders:
            assert poly_gcd(analysis.weil.pv, rep.order.a * rep.order.c).degree == 0


def test_candidate_bound_enforced(example_weil):
    from drinfeld_orders import CandidateBoundExceededError

    with pytest.raises(CandidateBoundExceededError):
        analyze_weil_class(example_weil, candidate_bound=1)
