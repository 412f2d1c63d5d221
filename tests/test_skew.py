from __future__ import annotations

import random

import pytest

from drinfeld_orders import (
    DomainError,
    DrinfeldModule,
    KElem,
    NoCandidateError,
    Poly,
    PrimeField,
    basis_kelems,
    element_membership,
    identify_endo_ring,
    make_extension_field,
    order_generator_kelems,
    survey_candidates,
    verify_weil_action,
)
from drinfeld_orders.orders import OrderHNF
from drinfeld_orders.skew import MembershipSurvey, SkewRing

from oracles import (
    commutes_with,
    frobenius,
    frobenius_power,
    gamma,
    gamma_t,
    phi_horner_oracle,
    skew_constant,
    skew_mul_oracle,
    skew_tau,
    weil_relation_oracle,
)


# L = F_{7^6} and F_{5^9}, the two sizes of the module benchmark
LARGE_FIELDS = {
    "7^6": (7, [2, 0, 0, 0, 0, 0, 1]),
    "5^9": (5, [1, 2, 3, 0, 0, 0, 0, 0, 0, 1]),
}


def large_ring(name):
    p, modulus = LARGE_FIELDS[name]
    F = PrimeField(p)
    return SkewRing(make_extension_field(F, Poly.from_ints(F, modulus)))


def rand_skew(ring, max_deg, rng):
    L = ring.L
    return ring.poly([L.element(rng.randrange(L.q)) for _ in range(max_deg + 1)])


def test_twist_law(skew_ring):
    L = skew_ring.L
    tau = skew_tau(skew_ring)
    for i in (1, 7, 42, 124):
        lam = L.element(i)
        left = tau * skew_constant(skew_ring, lam)
        assert left.coeffs == (L.zero, L.pow(lam, skew_ring.q))


def test_mul_identity_and_degree(skew_ring):
    rng = random.Random(3)
    one = skew_ring.one()
    for _ in range(30):
        u = rand_skew(skew_ring, 4, rng)
        v = rand_skew(skew_ring, 3, rng)
        assert u * one == u and one * u == u
        if u.is_zero or v.is_zero:
            assert (u * v).is_zero
        else:
            assert (u * v).degree == u.degree + v.degree


def test_mul_associative_distributive(skew_ring):
    rng = random.Random(5)
    for _ in range(25):
        u = rand_skew(skew_ring, 3, rng)
        v = rand_skew(skew_ring, 3, rng)
        w = rand_skew(skew_ring, 3, rng)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_noncommutativity_detected(skew_ring):
    # (tau + 1)(tau + c) != (tau + c)(tau + 1) exactly when c^q != c
    L = skew_ring.L
    tau = skew_tau(skew_ring)
    one = skew_ring.one()
    for i in range(L.q):
        c = L.element(i)
        cpoly = skew_constant(skew_ring, c)
        left = (tau + one) * (tau + cpoly)
        right = (tau + cpoly) * (tau + one)
        if L.pow(c, skew_ring.q) == c:
            assert left == right
        else:
            assert left != right


def test_right_divmod_roundtrip(skew_ring):
    rng = random.Random(7)
    for _ in range(60):
        n = rand_skew(skew_ring, 7, rng)
        d = rand_skew(skew_ring, 3, rng)
        if d.is_zero:
            continue
        q, r = n.right_divmod(d)
        assert q * d + r == n
        assert r.degree < d.degree


def test_right_divmod_trivial_cases(skew_ring):
    rng = random.Random(9)
    w = rand_skew(skew_ring, 4, rng)
    d = rand_skew(skew_ring, 2, rng)
    n = w * d
    q, r = n.right_divmod(d)
    assert r.is_zero and q == w
    short = rand_skew(skew_ring, 1, rng)
    q, r = short.right_divmod(d)
    assert q.is_zero and r == short
    with pytest.raises(DomainError):
        w.right_divmod(skew_ring.zero())


def test_right_divmod_uniqueness(skew_ring):
    # two distinct (q, r) pairs with deg r < deg d cannot represent the same n
    rng = random.Random(11)
    d = rand_skew(skew_ring, 2, rng)
    while d.degree != 2:
        d = rand_skew(skew_ring, 2, rng)
    q1 = rand_skew(skew_ring, 2, rng)
    r1 = rand_skew(skew_ring, 1, rng)
    n = q1 * d + r1
    q2, r2 = n.right_divmod(d)
    assert q2 == q1 and r2 == r1


def test_skew_arithmetic_over_tower():
    # L = F_625 over base F_25: the twist is the 25-power Frobenius acting
    # on tuple-of-tuple elements
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, Poly.from_ints(F5, [2, 0, 1]))
    w = F25.generator()
    L = make_extension_field(F25, Poly(F25, (F25.neg(w), F25.zero, F25.one)))
    assert L.q == 625
    ring = SkewRing(L)
    assert ring.q == 25 and ring.n == 2
    tau = skew_tau(ring)
    z = L.generator()
    lam = L.add(z, L.embed(w))
    left = tau * skew_constant(ring, lam)
    assert left.coeffs == (L.zero, L.pow(lam, 25))
    rng = random.Random(23)
    for _ in range(15):
        u = rand_skew(ring, 3, rng)
        v = rand_skew(ring, 3, rng)
        t = rand_skew(ring, 2, rng)
        assert (u * v) * t == u * (v * t)
        if t.is_zero:
            continue
        q, r = (u * v + t).right_divmod(t)
        assert q * t + r == u * v + t
        assert r.degree < t.degree


def test_phi_homomorphism(module_phi, f5):
    rng = random.Random(13)
    T = Poly.x(f5)
    for _ in range(15):
        a = Poly(f5, [f5.element(rng.randrange(5)) for _ in range(3)])
        b = Poly(f5, [f5.element(rng.randrange(5)) for _ in range(3)])
        assert module_phi.phi(a + b) == module_phi.phi(a) + module_phi.phi(b)
        assert module_phi.phi(a * b) == module_phi.phi(a) * module_phi.phi(b)
    assert module_phi.phi(T * T) == module_phi.phi(T) * module_phi.phi(T)


def test_phi_scalars_and_degree_law(module_phi, f5):
    L = module_phi.ring.L
    for c in range(5):
        assert module_phi.phi(Poly.const(f5, f5.element(c))).coeffs == (
            (L.embed(f5.element(c)),) if c else ()
        )
    rng = random.Random(17)
    for _ in range(10):
        a = Poly(f5, [f5.element(rng.randrange(5)) for _ in range(4)])
        if a.is_zero:
            continue
        assert module_phi.phi(a).degree == 3 * a.degree


def test_phi_shift_rule(module_phi, f5):
    # phi_{T+2} = phi_T + 2
    T = Poly.x(f5)
    two = Poly.const(f5, f5.element(2))
    assert module_phi.phi(T + two) == module_phi.phi(T) + module_phi.phi(two)


def test_frobenius_is_central(module_phi, skew_ring):
    pi = frobenius(module_phi)
    assert pi.degree == skew_ring.n
    rng = random.Random(19)
    for _ in range(20):
        u = rand_skew(skew_ring, 4, rng)
        assert pi * u == u * pi
    assert pi * module_phi.phi_t == module_phi.phi_t * pi


def test_weil_action_worked_example(module_phi, example_weil):
    assert verify_weil_action(module_phi, example_weil)


def test_weil_action_rejects_wrong_leading(skew_ring, example_weil):
    # same shape as the good module but monic leading coefficient
    L = skew_ring.L
    alpha = L.generator()
    asq = L.mul(alpha, alpha)
    D = DrinfeldModule(
        skew_ring,
        skew_ring.poly([L.zero, asq, L.mul(L.from_int(2), asq), L.one]),
    )
    assert not verify_weil_action(D, example_weil)


def test_weil_action_star_witness(module_psi_star, example_weil):
    assert verify_weil_action(module_psi_star, example_weil)


def test_rank_mismatch_rejected(skew_ring):
    L = skew_ring.L
    with pytest.raises(DomainError):
        DrinfeldModule(skew_ring, skew_ring.poly([L.zero, L.one, L.one]))


def test_gamma_taken_from_constant_coefficient(module_phi, example_weil):
    assert gamma_t(module_phi) == module_phi.ring.L.zero
    assert gamma(module_phi, example_weil.pv) == module_phi.ring.L.zero


def test_kelem_normalization(f5):
    T = Poly.x(f5)
    one = Poly.one(f5)
    e = KElem.make(T * T, T, T, (T * T).scale(f5.element(2)))
    # common factor T removed, denominator made monic
    assert e.d == T
    assert e.n0 == T.scale(f5.element(3))
    e2 = KElem.make(one, Poly.zero(f5), Poly.zero(f5), one)
    assert e2.add(e2).n0 == Poly.from_ints(f5, [2])


def test_omega_kelems_worked_example(example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    omega1, omega2 = basis_kelems(W, sf, mo)
    # pi~ = pi + 2T + 2 over denominator 1
    assert omega1.d.is_one
    assert omega1.n0 == Poly.from_ints(F, [2, 2])
    assert omega1.n1.is_one and omega1.n2.is_zero
    # omega2 = (4T^2 + T + (4T+3) pi + pi^2) / T
    assert omega2.d == Poly.x(F)
    assert omega2.n0 == Poly.from_ints(F, [0, 1, 4])
    assert omega2.n1 == Poly.from_ints(F, [3, 4])
    assert omega2.n2.is_one


def test_membership_worked_example(module_phi, module_psi_star, example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    _, omega2 = basis_kelems(W, sf, mo)
    w = element_membership(module_phi, omega2)
    assert w is not None
    # the quotient is a genuine endomorphism: it commutes with phi_T
    assert commutes_with(w, module_phi.phi_t)
    assert element_membership(module_psi_star, omega2) is None


def test_division_verdict_for_module_as_printed(
    module_psi_literal, example_analysis
):
    # the mechanical division claim reproduces even for the out-of-class
    # module tau^3+tau^2+tau: the omega2 numerator built from it is not
    # right-divisible by its phi_T
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    _, omega2 = basis_kelems(W, sf, mo)
    D = module_psi_literal
    pi = frobenius(D)
    n = D.phi(omega2.n0) + D.phi(omega2.n1) * pi + D.phi(omega2.n2) * (pi * pi)
    _, r = n.right_divmod(D.phi(omega2.d))
    assert not r.is_zero
    assert element_membership(D, omega2) is None


def test_identify_single_candidate(module_phi, example_analysis):
    # with only the Frobenius order offered, any valid module maps to it
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    frob = example_analysis.orders[1].order
    assert identify_endo_ring(survey_candidates(module_phi, [frob], W, sf, mo)) == frob


def test_identify_without_all_member_row_raises(example_analysis):
    orders = [r.order for r in example_analysis.orders]
    survey = [
        MembershipSurvey(order=orders[0], generator_verdicts=(True, False)),
        MembershipSurvey(order=orders[1], generator_verdicts=(False, True)),
    ]
    with pytest.raises(NoCandidateError):
        identify_endo_ring(survey)
    with pytest.raises(NoCandidateError):
        identify_endo_ring([])
    # the smallest sort key wins, whatever the row order
    survey.append(MembershipSurvey(order=orders[1], generator_verdicts=(True, True)))
    survey.append(MembershipSurvey(order=orders[0], generator_verdicts=(True, True)))
    assert identify_endo_ring(survey) == orders[0]


def test_membership_frobenius_always(module_phi, module_psi_star, f5):
    one = Poly.one(f5)
    zero = Poly.zero(f5)
    pi_elem = KElem.make(zero, one, zero, one)
    for D in (module_phi, module_psi_star):
        w = element_membership(D, pi_elem)
        assert w == frobenius(D)


def test_identify_worked_example(module_phi, module_psi_star, example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    T = Poly.x(F)
    one, zero = Poly.one(F), Poly.zero(F)
    candidates = [r.order for r in example_analysis.orders]
    assert identify_endo_ring(
        survey_candidates(module_phi, candidates, W, sf, mo)
    ) == OrderHNF(a=one, b=zero, c=one)
    assert identify_endo_ring(
        survey_candidates(module_psi_star, candidates, W, sf, mo)
    ) == OrderHNF(a=T, b=zero, c=one)


def test_membership_monotone_over_candidates(
    module_phi, module_psi_star, example_analysis
):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    candidates = [r.order for r in example_analysis.orders]
    for D in (module_phi, module_psi_star):
        rows = survey_candidates(D, candidates, W, sf, mo)
        # candidates are sorted largest first; once a candidate fails, no
        # larger candidate may succeed (downward closure)
        ok = [row.all_members for row in rows]
        assert ok == sorted(ok)  # False values only before True values


def test_generator_kelems_match_companion_algebra(instance_pool):
    # the pi-rewriting of c*omega1 + b*omega2 and a*omega2 agrees with the
    # companion-matrix representation, including instances with g != 1
    from oracles import kelem_matches_element

    from drinfeld_orders import order_generator_kelems as gen_kelems

    nontrivial_g = 0
    for analysis in instance_pool:
        W, sf, mo = analysis.weil, analysis.sf, analysis.mo
        if not sf.g.is_one:
            nontrivial_g += 1
        for rep in analysis.orders:
            gen1, gen2 = gen_kelems(rep.order, W, sf, mo)
            assert kelem_matches_element(gen1, rep.order.c, rep.order.b, analysis)
            assert kelem_matches_element(
                gen2, Poly.zero(W.field), rep.order.a, analysis
            )
    assert nontrivial_g >= 2


def test_identified_ring_generators_act(module_phi, example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    order = example_analysis.orders[0].order
    gen1, gen2 = order_generator_kelems(order, W, sf, mo)
    for gen in (gen1, gen2):
        w = element_membership(module_phi, gen)
        assert w is not None
        assert commutes_with(w, module_phi.phi_t)


# -- the cached arithmetic against full products ----------------------------


@pytest.mark.parametrize("name", sorted(LARGE_FIELDS))
def test_twist_is_frobenius_power(name):
    ring = large_ring(name)
    L = ring.L
    rng = random.Random(29)
    for _ in range(20):
        lam = L.element(rng.randrange(1, L.q))
        for k in range(2 * ring.n):
            assert ring.twist(lam, k) == frobenius_power(L, lam, k)


def test_phi_matches_horner_oracle(module_phi, f5):
    # a fresh module, so the power cache starts at phi_T and grows past the
    # degree of the first request
    D = DrinfeldModule(module_phi.ring, module_phi.phi_t)
    rng = random.Random(31)
    for deg in (2, 0, 7, 12, 5, 9, 1, 12):
        a = Poly(f5, [f5.element(rng.randrange(5)) for _ in range(deg)] + [f5.one])
        assert D.phi(a).coeffs == phi_horner_oracle(D, a)
    assert D.phi(Poly.zero(f5)).is_zero


def test_phi_matches_horner_oracle_over_tower():
    # base F_25: the a_k are tuples, and so are the coefficients they scale
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, Poly.from_ints(F5, [2, 0, 1]))
    w = F25.generator()
    L = make_extension_field(F25, Poly(F25, (F25.neg(w), F25.zero, F25.one)))
    ring = SkewRing(L)
    rng = random.Random(37)
    phi_t = rand_skew(ring, 2, rng) + ring.poly([L.zero] * 3 + [L.one])
    D = DrinfeldModule(ring, phi_t)
    for deg in (1, 6, 3):
        a = Poly(F25, [F25.element(rng.randrange(25)) for _ in range(deg + 1)])
        assert D.phi(a).coeffs == phi_horner_oracle(D, a)


@pytest.mark.parametrize("name", ["F_125", "7^6"])
def test_mul_pi_is_product_by_tau_power(name, skew_ring):
    ring = skew_ring if name == "F_125" else large_ring(name)
    L = ring.L
    rng = random.Random(41)
    for _ in range(4):
        s = rand_skew(ring, 4, rng)
        for k in range(4):
            tau_nk = (L.zero,) * (ring.n * k) + (L.one,)
            assert s.mul_pi(k).coeffs == skew_mul_oracle(L, s.coeffs, tau_nk)
    assert ring.zero().mul_pi(2).is_zero


def test_verify_weil_action_matches_full_product(
    module_phi, module_psi_star, module_psi_literal, example_weil
):
    L = module_phi.ring.L
    coeffs = list(module_phi.phi_t.coeffs)
    coeffs[1] = L.add(coeffs[1], L.one)
    perturbed = DrinfeldModule(module_phi.ring, module_phi.ring.poly(coeffs))
    verdicts = []
    for D in (module_phi, module_psi_star, module_psi_literal, perturbed):
        verdict = verify_weil_action(D, example_weil)
        assert verdict == weil_relation_oracle(D, example_weil)
        verdicts.append(verdict)
    assert verdicts == [True, True, False, False]
