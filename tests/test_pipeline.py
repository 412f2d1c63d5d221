"""End-to-end runs on instances away from the main worked example."""

from __future__ import annotations

from drinfeld_orders import (
    DrinfeldModule,
    OrderHNF,
    Poly,
    PrimeField,
    SkewRing,
    WeilCubic,
    analyze_weil_class,
    identify_endo_ring,
    make_extension_field,
    verify_weil_action,
    survey_candidates,
)

from oracles import const_poly, frobenius_order_hnf, int_poly, motive_class


def test_supersingular_pure_cubic_end_to_end():
    # M = x^3 + T over F5: a1 = a2 = 0 exercises the b1 = 0 branch of the
    # standard form; the class is supersingular with m = 1, so L = F_5
    # itself and the Frobenius is tau.  phi_T = 4 tau^3 satisfies
    # pi^3 + phi_T = (1 + 4) tau^3 = 0.
    F = PrimeField(5)
    T = Poly.x(F)
    W = WeilCubic(field=F, a1=Poly.zero(F), a2=Poly.zero(F), mu=F.element(1), pv=T, m=1)
    analysis = analyze_weil_class(W)
    assert analysis.local.supersingular
    assert analysis.sf.c1.is_zero and analysis.sf.b1.is_zero
    assert analysis.mo.delta == T * T
    assert analysis.mo.index.is_one
    assert [r.order for r in analysis.orders] == [
        OrderHNF(a=Poly.one(F), b=Poly.zero(F), c=Poly.one(F))
    ]

    L = make_extension_field(F, Poly.x(F))  # degree-1 presentation of F_5
    ring = SkewRing(L)
    assert ring.n == 1
    module = DrinfeldModule(
        ring, ring.poly([L.zero, L.zero, L.zero, L.from_int(4)])
    )
    assert verify_weil_action(module, W)
    end = analysis.orders[
        identify_endo_ring(
            survey_candidates(
                module, [r.order for r in analysis.orders], analysis.sf, analysis.mo
            )
        )
    ].order
    assert end == analysis.orders[0].order


def test_module_as_printed_in_its_own_class():
    # tau^3 + tau^2 + tau belongs to the class of
    # x^3 + (2T+3)x^2 + (3T^2+3T+1)x + 4T^3, where its endomorphism ring
    # turns out to be the maximal order
    F = PrimeField(5)
    T = Poly.x(F)
    W = WeilCubic(
        field=F,
        a1=int_poly(F, [3, 2]),
        a2=int_poly(F, [1, 3, 3]),
        mu=F.element(4),
        pv=T,
        m=3,
    )
    analysis = analyze_weil_class(W)
    assert analysis.mo.index == T
    assert len(analysis.orders) == 2
    L = make_extension_field(F, int_poly(F, [3, 3, 0, 1]))
    ring = SkewRing(L)
    module = DrinfeldModule(ring, ring.poly([L.zero, L.one, L.one, L.one]))
    assert verify_weil_action(module, W)
    assert motive_class(L, module.phi_t.coeffs) == W  # the motive agrees
    end = analysis.orders[
        identify_endo_ring(
            survey_candidates(
                module, [r.order for r in analysis.orders], analysis.sf, analysis.mo
            )
        )
    ].order
    assert end == OrderHNF(a=Poly.one(F), b=Poly.zero(F), c=Poly.one(F))


def test_supersingular_constant_standard_form_end_to_end():
    # M = x^3 + T^2 x + T^3 over F5: the standard form has constant
    # coefficients (c1 = 1, c2 = 1, g = T), so the Frobenius field is the
    # constant extension F_125(T) with trivial discriminant.  A[pi] has HNF
    # (T^2, 0, T) and fails v-maximality, leaving the maximal order as the
    # only endomorphism ring; phi_T = (3 + 4y) tau^3 realises it.
    F = PrimeField(5)
    T = Poly.x(F)
    W = WeilCubic(field=F, a1=Poly.zero(F), a2=T * T, mu=F.element(1), pv=T, m=3)
    analysis = analyze_weil_class(W)
    assert analysis.local.supersingular
    assert analysis.sf.g == T
    assert analysis.sf.c1 == Poly.one(F) and analysis.sf.c2 == Poly.one(F)
    assert analysis.mo.delta.is_one and analysis.mo.index.is_one
    frob = frobenius_order_hnf(analysis.sf, analysis.mo)
    assert frob == OrderHNF(a=T * T, b=Poly.zero(F), c=T)
    from oracles import v_maximality

    assert not v_maximality(frob, W, analysis.local)
    assert [r.order for r in analysis.orders] == [
        OrderHNF(a=Poly.one(F), b=Poly.zero(F), c=Poly.one(F))
    ]

    L = make_extension_field(F, int_poly(F, [3, 3, 0, 1]))
    ring = SkewRing(L)
    lc = (F.element(3), F.element(4), F.element(0))
    module = DrinfeldModule(ring, ring.poly([L.zero, L.zero, L.zero, lc]))
    assert verify_weil_action(module, W)
    # identification runs the g != 1 rewriting: omega2 = pi^2 / T^2
    end = analysis.orders[
        identify_endo_ring(
            survey_candidates(
                module, [r.order for r in analysis.orders], analysis.sf, analysis.mo
            )
        )
    ].order
    assert end == analysis.orders[0].order


def test_extension_base_field_end_to_end():
    # base field F_25: M = x^3 + w x + T with w the generator; n = 1 so the
    # A-field is F_25 itself in a degree-1 presentation and the Frobenius
    # is tau.  phi_T = -(tau^3 + w tau) satisfies M(pi) = 0.
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    w = F25.generator()
    T = Poly.x(F25)
    W = WeilCubic(
        field=F25, a1=Poly.zero(F25), a2=const_poly(F25, w), mu=F25.one, pv=T, m=1
    )
    analysis = analyze_weil_class(W)
    assert analysis.mo.index.is_one
    assert len(analysis.orders) == 1

    L = make_extension_field(F25, Poly(F25, (F25.neg(F25.one), F25.one)))
    ring = SkewRing(L)
    neg_one = F25.neg(F25.one)
    module = DrinfeldModule(
        ring,
        ring.poly(
            [L.zero, L.embed(F25.mul(neg_one, w)), L.zero, L.embed(neg_one)]
        ),
    )
    assert verify_weil_action(module, W)
    end = analysis.orders[
        identify_endo_ring(
            survey_candidates(
                module, [r.order for r in analysis.orders], analysis.sf, analysis.mo
            )
        )
    ].order
    assert end == analysis.orders[0].order


def test_systematic_sweep_never_internally_inconsistent():
    # exhaustive family over F5: depressed cubics x^3 + c1 x + mu*pv^m with
    # deg c1 <= 2, inside the bounds at infinity for m >= 3.  Instances may
    # be rejected for stated reasons, but the exact-identity cross-checks
    # (standardness, discriminant valuations, I^2*Delta, table integrality)
    # must never trip.
    from drinfeld_orders import WeilValidationError
    from drinfeld_orders.poly import polys_below_degree

    F = PrimeField(5)
    T = Poly.x(F)
    analyzed = 0
    rejected = 0
    for m in (3, 4):
        for mu_idx in (1, 3):
            for c1 in polys_below_degree(F, 3):
                W = WeilCubic(
                    field=F,
                    a1=Poly.zero(F),
                    a2=c1,
                    mu=F.element(mu_idx),
                    pv=T,
                    m=m,
                )
                try:
                    analysis = analyze_weil_class(W)
                except WeilValidationError:
                    rejected += 1
                    continue
                analyzed += 1
                mo = analysis.mo
                assert analysis.sf.disc_m0.monic() == (mo.index * mo.index * mo.delta).monic()
                assert analysis.orders[0].order.a.is_one
    assert analyzed >= 100 and rejected >= 1
