from __future__ import annotations

import random
from pathlib import Path

import pytest

from drinfeld_orders import (
    DomainError,
    DrinfeldModule,
    InternalInconsistencyError,
    WeilValidationError,
    analyze_weil_class,
    KElem,
    Poly,
    PrimeField,
    element_membership,
    identify_endo_ring,
    enumerate_candidates,
    is_irreducible,
    make_extension_field,
    order_generator_kelems,
    poly_gcd,
    survey_candidates,
    verify_weil_action,
)
from drinfeld_orders.gf import ExtensionField
from drinfeld_orders.poly import polys_below_degree
from drinfeld_orders.orders import OrderHNF
from drinfeld_orders.skew import SkewRing

import drinfeld_orders.cli as cli
import drinfeld_orders.gf as gf
import drinfeld_orders.skew as skew
from oracles import (
    commutes_with,
    const_poly,
    descended_module,
    frobenius,
    frobenius_power,
    gamma,
    gamma_t,
    int_poly,
    irreducible_oracle,
    monic_polys,
    motive_class,
    phi_horner_oracle,
    skew_add_oracle,
    skew_constant,
    skew_mul_oracle,
    skew_sum,
    skew_tau,
    weil_relation_oracle,
)
from test_gf import PACKED, TABLED


# L = F_{7^6} and F_{5^9}, the two sizes of the module benchmark
LARGE_FIELDS = {
    "7^6": (7, [2, 0, 0, 0, 0, 0, 1]),
    "5^9": (5, [1, 2, 3, 0, 0, 0, 0, 0, 0, 1]),
}


def large_ring(name):
    p, modulus = LARGE_FIELDS[name]
    F = PrimeField(p)
    return SkewRing(make_extension_field(F, int_poly(F, modulus)))


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
    one = skew_ring.poly([skew_ring.L.one])
    for _ in range(30):
        u = rand_skew(skew_ring, 4, rng)
        v = rand_skew(skew_ring, 3, rng)
        assert (u * one).coeffs == u.coeffs and (one * u).coeffs == u.coeffs
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
        assert ((u * v) * w).coeffs == (u * (v * w)).coeffs
        assert (u * skew_sum(v, w)).coeffs == skew_sum(u * v, u * w).coeffs


def test_noncommutativity_detected(skew_ring):
    # (tau + 1)(tau + c) != (tau + c)(tau + 1) exactly when c^q != c
    L = skew_ring.L
    tau = skew_tau(skew_ring)
    one = skew_ring.poly([skew_ring.L.one])
    for i in range(L.q):
        c = L.element(i)
        cpoly = skew_constant(skew_ring, c)
        left = skew_sum(tau, one) * skew_sum(tau, cpoly)
        right = skew_sum(tau, cpoly) * skew_sum(tau, one)
        if L.pow(c, skew_ring.q) == c:
            assert left.coeffs == right.coeffs
        else:
            assert left.coeffs != right.coeffs


def test_right_divmod_roundtrip(skew_ring):
    rng = random.Random(7)
    for _ in range(60):
        n = rand_skew(skew_ring, 7, rng)
        d = rand_skew(skew_ring, 3, rng)
        if d.is_zero:
            continue
        q, r = n.right_divmod(d)
        assert skew_sum(q * d, r).coeffs == n.coeffs
        assert r.degree < d.degree


def test_right_divmod_trivial_cases(skew_ring):
    rng = random.Random(9)
    w = rand_skew(skew_ring, 4, rng)
    d = rand_skew(skew_ring, 2, rng)
    n = w * d
    q, r = n.right_divmod(d)
    assert r.is_zero and q.coeffs == w.coeffs
    short = rand_skew(skew_ring, 1, rng)
    q, r = short.right_divmod(d)
    assert q.is_zero and r.coeffs == short.coeffs
    with pytest.raises(DomainError):
        w.right_divmod(skew_ring.poly([]))


def test_right_divmod_uniqueness(skew_ring):
    # two distinct (q, r) pairs with deg r < deg d cannot represent the same n
    rng = random.Random(11)
    d = rand_skew(skew_ring, 2, rng)
    while d.degree != 2:
        d = rand_skew(skew_ring, 2, rng)
    q1 = rand_skew(skew_ring, 2, rng)
    r1 = rand_skew(skew_ring, 1, rng)
    n = skew_sum(q1 * d, r1)
    q2, r2 = n.right_divmod(d)
    assert q2.coeffs == q1.coeffs and r2.coeffs == r1.coeffs


def test_skew_arithmetic_over_tower():
    # L = F_625 over base F_25: the twist is the 25-power Frobenius acting
    # on tuple-of-tuple elements
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
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
        assert ((u * v) * t).coeffs == (u * (v * t)).coeffs
        if t.is_zero:
            continue
        q, r = skew_sum(u * v, t).right_divmod(t)
        assert skew_sum(q * t, r).coeffs == skew_sum(u * v, t).coeffs
        assert r.degree < t.degree


def test_l_over_a_degree_1_extension_or_a_third_level_is_refused():
    # the elements of F_5[y]/(y + 2) are 1-tuples, while the packed
    # arithmetic of L{tau} reads a base of degree 1 as F_5 with int
    # elements; such a base, or a base that is itself over an extension,
    # is refused when L is built, before a ring packs anything
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    w = F25.generator()
    F625 = make_extension_field(F25, Poly(F25, (F25.neg(w), F25.zero, F25.one)))
    for base in (make_extension_field(F5, int_poly(F5, [2, 1])), F625):
        modulus = (base.embed(base.base.element(3)),) * 2 + (base.zero, base.one)
        with pytest.raises(
            DomainError, match="^an extension's base must be F_p or of degree >= 2 over F_p$"
        ):
            SkewRing(ExtensionField(base, modulus))


def test_phi_homomorphism(module_phi, f5):
    rng = random.Random(13)
    T = Poly.x(f5)
    for _ in range(15):
        a = Poly(f5, [f5.element(rng.randrange(5)) for _ in range(3)])
        b = Poly(f5, [f5.element(rng.randrange(5)) for _ in range(3)])
        sum_ab = skew_sum(module_phi.phi(a), module_phi.phi(b))
        assert module_phi.phi(a + b).coeffs == sum_ab.coeffs
        assert module_phi.phi(a * b).coeffs == (module_phi.phi(a) * module_phi.phi(b)).coeffs
    assert module_phi.phi(T * T).coeffs == (module_phi.phi(T) * module_phi.phi(T)).coeffs


def test_phi_scalars_and_degree_law(module_phi, f5):
    L = module_phi.ring.L
    for c in range(5):
        assert module_phi.phi(const_poly(f5, f5.element(c))).coeffs == (
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
    two = const_poly(f5, f5.element(2))
    want = skew_sum(module_phi.phi(T), module_phi.phi(two))
    assert module_phi.phi(T + two).coeffs == want.coeffs


def test_frobenius_is_central(module_phi, skew_ring):
    pi = frobenius(module_phi)
    assert pi.degree == skew_ring.n
    rng = random.Random(19)
    for _ in range(20):
        u = rand_skew(skew_ring, 4, rng)
        assert commutes_with(pi, u)
    assert commutes_with(pi, module_phi.phi_t)


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
    e = KElem.make(T * T, T, T, (T * T).scale(f5.element(2)))
    # common factor T removed, denominator made monic
    assert e.d == T
    assert e.n0 == T.scale(f5.element(3))


def basis_kelems(sf, mo):
    """(omega1, omega2) over pi: the generators of O_max = (1, 0, 1)."""
    one, zero = Poly.one(sf.g.field), Poly.zero(sf.g.field)
    return order_generator_kelems(OrderHNF(a=one, b=zero, c=one), sf, mo)


def test_omega_kelems_worked_example(example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    omega1, omega2 = basis_kelems(sf, mo)
    # pi~ = pi + 2T + 2 over denominator 1
    assert omega1.d.is_one
    assert omega1.n0 == int_poly(F, [2, 2])
    assert omega1.n1.is_one and omega1.n2.is_zero
    # omega2 = (4T^2 + T + (4T+3) pi + pi^2) / T
    assert omega2.d == Poly.x(F)
    assert omega2.n0 == int_poly(F, [0, 1, 4])
    assert omega2.n1 == int_poly(F, [3, 4])
    assert omega2.n2.is_one


def test_membership_worked_example(module_phi, module_psi_star, example_analysis):
    sf, mo = example_analysis.sf, example_analysis.mo
    _, omega2 = basis_kelems(sf, mo)
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
    sf, mo = example_analysis.sf, example_analysis.mo
    _, omega2 = basis_kelems(sf, mo)
    D = module_psi_literal
    pi = frobenius(D)
    n = skew_sum(D.phi(omega2.n0), D.phi(omega2.n1) * pi, D.phi(omega2.n2) * (pi * pi))
    _, r = n.right_divmod(D.phi(omega2.d))
    assert not r.is_zero
    assert element_membership(D, omega2) is None


def test_identify_single_candidate(module_phi, example_analysis):
    # with only the Frobenius order offered, any valid module maps to it
    sf, mo = example_analysis.sf, example_analysis.mo
    frob = example_analysis.orders[1].order
    candidates = [frob]
    assert candidates[identify_endo_ring(survey_candidates(module_phi, candidates, sf, mo))] == frob


def test_identify_without_all_member_row_raises():
    message = "^no accepted order realises the module's endomorphisms; inputs are inconsistent$"
    with pytest.raises(InternalInconsistencyError, match=message):
        identify_endo_ring([(True, False), (False, True)])
    with pytest.raises(InternalInconsistencyError, match=message):
        identify_endo_ring([])


def test_membership_frobenius_always(module_phi, module_psi_star, f5):
    one = Poly.one(f5)
    zero = Poly.zero(f5)
    pi_elem = KElem.make(zero, one, zero, one)
    for D in (module_phi, module_psi_star):
        w = element_membership(D, pi_elem)
        assert w.coeffs == frobenius(D).coeffs


def test_identify_worked_example(module_phi, module_psi_star, example_analysis):
    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    T = Poly.x(F)
    one, zero = Poly.one(F), Poly.zero(F)
    candidates = [r.order for r in example_analysis.orders]
    assert candidates[
        identify_endo_ring(survey_candidates(module_phi, candidates, sf, mo))
    ] == OrderHNF(a=one, b=zero, c=one)
    assert candidates[
        identify_endo_ring(survey_candidates(module_psi_star, candidates, sf, mo))
    ] == OrderHNF(a=T, b=zero, c=one)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def full_survey(D, candidates, sf, mo):
    """The survey with every generator decided by right division, those in
    A[pi] included."""
    return [
        tuple(
            element_membership(D, gen) is not None
            for gen in order_generator_kelems(order, sf, mo)
        )
        for order in candidates
    ]


def shipped_surveys(monkeypatch):
    """The arguments (module, candidates, sf, mo) of every survey that
    `analyze` makes on the shipped configs."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return survey_candidates(*args)

    monkeypatch.setattr(cli, "survey_candidates", recorded)
    for path in sorted(CONFIGS.glob("*.json")):
        assert cli.main(["analyze", str(path)]) == 0
    monkeypatch.undo()
    return calls


def seeded_surveys(L, draws, seed):
    """Survey arguments for modules drawn over L with gamma in F_q and
    heights 1, 2, 3 in turn, each in its class from the motive; a draw
    whose class fails validation is skipped."""
    ring, F = SkewRing(L), L.base
    rng = random.Random(seed)
    calls = []
    for i in range(draws):
        g = [L.embed(F.element(rng.randrange(F.q)))]
        g += [L.element(rng.randrange(L.q)) for _ in range(2)]
        g += [L.element(rng.randrange(1, L.q))]
        g[1 : 1 + i % 3] = [L.zero] * (i % 3)
        W = motive_class(L, g)
        try:
            analysis = analyze_weil_class(W)
        except WeilValidationError:
            continue
        D = DrinfeldModule(ring, ring.poly(g))
        assert verify_weil_action(D, W)
        calls.append((D, [r.order for r in analysis.orders], analysis.sf, analysis.mo))
    return calls


def test_a_pi_shortcut_never_changes_a_verdict(monkeypatch, f125):
    # survey_candidates answers a generator over d = 1 without a division;
    # deciding every generator by right division gives the same rows
    calls = shipped_surveys(monkeypatch)
    calls += seeded_surveys(f125, 60, 67)
    calls += seeded_surveys(large_ring("7^6").L, 12, 71)
    kinds = {}
    for D, candidates, sf, mo in calls:
        rows = survey_candidates(D, candidates, sf, mo)
        assert rows == full_survey(D, candidates, sf, mo)
        for order, verdicts in zip(candidates, rows):
            gens = order_generator_kelems(order, sf, mo)
            for gen, verdict in zip(gens, verdicts):
                kinds[gen.d.is_one, verdict] = kinds.get((gen.d.is_one, verdict), 0) + 1
    # generators in A[pi], and tested ones both ways
    assert (True, False) not in kinds
    assert kinds[True, True] and kinds[False, True] and kinds[False, False]


def test_membership_monotone_over_candidates(
    module_phi, module_psi_star, example_analysis
):
    sf, mo = example_analysis.sf, example_analysis.mo
    candidates = [r.order for r in example_analysis.orders]
    for D in (module_phi, module_psi_star):
        rows = survey_candidates(D, candidates, sf, mo)
        # candidates are sorted largest first; once a candidate fails, no
        # larger candidate may succeed (downward closure)
        ok = [all(verdicts) for verdicts in rows]
        assert ok == sorted(ok)  # False values only before True values


def test_generator_kelems_match_companion_algebra(instance_pool):
    # the pi-rewriting of c*omega1 + b*omega2 and a*omega2 agrees with the
    # companion-matrix representation on every triple of the full sandwich,
    # accepted or not, including instances with g != 1 and with I != 1, and
    # each generator comes out in lowest terms with a monic denominator
    from oracles import kelem_matches_element

    nontrivial_g = nontrivial_index = 0
    for analysis in instance_pool:
        W, sf, mo = analysis.weil, analysis.sf, analysis.mo
        nontrivial_g += not sf.g.is_one
        nontrivial_index += not mo.index.is_one
        for order in enumerate_candidates(sf, mo):
            gen1, gen2 = order_generator_kelems(order, sf, mo)
            assert kelem_matches_element(gen1, order.c, order.b, analysis)
            assert kelem_matches_element(gen2, Poly.zero(W.field), order.a, analysis)
            for gen in (gen1, gen2):
                content = gen.d
                for x in (gen.n0, gen.n1, gen.n2):
                    content = poly_gcd(content, x)
                assert gen.d.is_monic and content.is_one
    assert nontrivial_g >= 2 and nontrivial_index >= 2


def test_identified_ring_generators_act(module_phi, example_analysis):
    sf, mo = example_analysis.sf, example_analysis.mo
    order = example_analysis.orders[0].order
    gen1, gen2 = order_generator_kelems(order, sf, mo)
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
        packed = ring._packed_orbit(lam)
        for k in range(2 * ring.n):
            assert ring.twist(lam, k) == frobenius_power(L, lam, k)
            assert ring._pk.unpack(packed[k % ring.n]) == frobenius_power(L, lam, k)


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
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    w = F25.generator()
    L = make_extension_field(F25, Poly(F25, (F25.neg(w), F25.zero, F25.one)))
    ring = SkewRing(L)
    rng = random.Random(37)
    phi_t = skew_sum(rand_skew(ring, 2, rng), ring.poly([L.zero] * 3 + [L.one]))
    D = DrinfeldModule(ring, phi_t)
    for deg in (1, 6, 3):
        a = Poly(F25, [F25.element(rng.randrange(25)) for _ in range(deg + 1)])
        assert D.phi(a).coeffs == phi_horner_oracle(D, a)


@pytest.mark.parametrize("name", ["F_125", "7^6"])
def test_phi_combination_shifts_by_pi(name, skew_ring):
    # sum_j phi_(a_j) pi^j against full products by tau^(n j)
    ring = skew_ring if name == "F_125" else large_ring(name)
    L, F = ring.L, ring.base
    rng = random.Random(41)
    D = DrinfeldModule(ring, skew_sum(rand_skew(ring, 2, rng), ring.poly([L.zero] * 3 + [L.one])))
    zero = Poly.zero(F)
    for _ in range(4):
        polys = [Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(5))]) for _ in range(4)]
        want = ()
        for k, a in enumerate(polys):
            tau_nk = (L.zero,) * (ring.n * k) + (L.one,)
            want = skew_add_oracle(L, want, skew_mul_oracle(L, phi_horner_oracle(D, a), tau_nk))
        assert D.phi_combination(polys).coeffs == want
    assert D.phi_combination((zero, zero)).is_zero


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


# -- the packed kernels against the definition --------------------------------
# The fields of the packed gf tests, F_125 (log tables) and a tabled tower
# over F_25; each ring is also built with SKEW_TERMS = 2, so that every
# longer sum is reduced first.


def tower_field():
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    w = F25.generator()
    return make_extension_field(F25, Poly(F25, (F25.neg(w), F25.zero, F25.one)))


def f125_field():
    F5 = PrimeField(5)
    return make_extension_field(F5, int_poly(F5, [3, 3, 0, 1]))


KERNEL_FIELDS = {**PACKED, "F_125": f125_field, "tower": tower_field}
KERNEL_CASES = [(name, terms) for terms in (None, 2) for name in KERNEL_FIELDS]


def kernel_ring(name, terms, monkeypatch):
    if terms is not None:
        monkeypatch.setattr(skew, "SKEW_TERMS", terms)
    return SkewRing(KERNEL_FIELDS[name]())


def kernel_id(case):
    name, terms = case
    return name if terms is None else f"{name}-terms{terms}"


def kernel_polys(ring, rng):
    """Skew polynomials of lengths 1 to 13 with random coefficients, and
    ones whose every coefficient is the top element, (p-1, ..., p-1) over
    F_p: the widest packed digits."""
    L = ring.L
    top = L.element(L.q - 1)
    out = [ring.poly([top] * k) for k in (1, 5, 9)]
    for k in (1, 2, 4, 5, 7, 13):
        out.append(ring.poly([L.element(rng.randrange(L.q)) for _ in range(k - 1)] + [top]))
    return out


@pytest.mark.parametrize("case", KERNEL_CASES, ids=kernel_id)
def test_kernel_products_match_oracle(case, monkeypatch):
    ring = kernel_ring(*case, monkeypatch)
    L = ring.L
    polys = kernel_polys(ring, random.Random(43))
    for u in polys:
        for v in polys:
            got = u * v
            assert got.coeffs == skew_mul_oracle(L, u.coeffs, v.coeffs)
            assert got.degree == u.degree + v.degree


@pytest.mark.parametrize("case", KERNEL_CASES, ids=kernel_id)
def test_kernel_right_divmod_round_trips(case, monkeypatch):
    ring = kernel_ring(*case, monkeypatch)
    L = ring.L
    rng = random.Random(47)
    polys = kernel_polys(ring, rng)
    for d in polys[1:]:
        for n in polys:
            q, r = n.right_divmod(d)
            assert r.degree < d.degree
            back = skew_add_oracle(L, skew_mul_oracle(L, q.coeffs, d.coeffs), r.coeffs)
            assert back == n.coeffs
        w = polys[-1]
        q, r = ring.poly(skew_mul_oracle(L, w.coeffs, d.coeffs)).right_divmod(d)
        assert q.coeffs == w.coeffs and r.is_zero


@pytest.mark.parametrize("case", KERNEL_CASES, ids=kernel_id)
def test_kernel_phi_matches_horner_oracle(case, monkeypatch):
    ring = kernel_ring(*case, monkeypatch)
    L, F = ring.L, ring.base
    rng = random.Random(53)
    top, base_top = L.element(L.q - 1), F.element(F.q - 1)
    modules = [
        DrinfeldModule(ring, ring.poly([top] * 4)),
        DrinfeldModule(ring, ring.poly([L.element(rng.randrange(L.q)) for _ in range(3)] + [top])),
    ]
    for D in modules:
        for deg in (3, 0, 7, 1):
            a = Poly(F, [F.element(rng.randrange(F.q)) for _ in range(deg)] + [base_top])
            assert D.phi(a).coeffs == phi_horner_oracle(D, a)
        a = Poly(F, [base_top] * 6)
        assert D.phi(a).coeffs == phi_horner_oracle(D, a)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=kernel_id)
def test_kernel_weil_action_matches_relation_oracle(case, monkeypatch):
    ring = kernel_ring(*case, monkeypatch)
    L, F = ring.L, ring.base
    rng = random.Random(59)
    g = tuple(F.element(rng.randrange(F.q)) for _ in range(3))
    phi_t, W = descended_module(L, g, L.element(rng.randrange(1, L.q)))
    perturbed = list(phi_t)
    perturbed[2] = L.add(perturbed[2], L.one)
    verdicts = []
    for coeffs in (phi_t, perturbed):
        D = DrinfeldModule(ring, ring.poly(coeffs))
        verdict = verify_weil_action(D, W)
        assert verdict == weil_relation_oracle(D, W)
        verdicts.append(verdict)
    assert verdicts == [True, False]


def test_packed_skew_arithmetic_makes_no_field_product(monkeypatch):
    # F_{7^6}: products, right division and phi fold each coefficient sum
    # once; none goes through ExtensionField.mul term by term
    ring = SkewRing(KERNEL_FIELDS["p7e6"]())
    L = ring.L
    rng = random.Random(61)
    u, v = (ring.poly([L.element(rng.randrange(1, L.q)) for _ in range(9)]) for _ in range(2))
    D = DrinfeldModule(ring, ring.poly([L.element(rng.randrange(1, L.q)) for _ in range(4)]))
    a = Poly(ring.base, [rng.randrange(1, 7) for _ in range(6)])
    calls = [0]
    real = ExtensionField.mul

    def counted(field, x, y):
        calls[0] += 1
        return real(field, x, y)

    monkeypatch.setattr(ExtensionField, "mul", counted)
    w = u * v
    quo, rem = w.right_divmod(v)
    phi_a = D.phi(a)
    assert calls[0] == 0
    monkeypatch.undo()
    assert w.coeffs == skew_mul_oracle(L, u.coeffs, v.coeffs)
    assert quo.coeffs == u.coeffs and rem.is_zero
    assert phi_a.coeffs == phi_horner_oracle(D, a)


@pytest.mark.parametrize("name", ["p7e6", "p1031e1", "f25e3"])
def test_packed_sums_stay_within_the_digit_bound(name, monkeypatch):
    # the digit width is sized for sums of at most `terms` summands whose
    # digits are at most n e (p-1)^2, n = [L : F_q] and e = [F_q : F_p] (a
    # product before its fold); record the largest digit of every sum handed
    # to fold, reduce or unpack, on digits wide enough not to overflow, with
    # terms = 2 so that most sums are reduced
    seen = []

    def wide(L, terms):
        pk = gf.Packing(L, 2**40)
        fold, reduce, unpack, w = pk.fold, pk.reduce, pk.unpack, pk.w
        span = 2 * L.base.degree - 1
        shifts = range(0, w * (2 * L.e - 1) * span, w)

        def largest_digit(c):
            seen.append(max(c >> s & ((1 << w) - 1) for s in shifts))
            return c

        pk.fold = lambda c: fold(largest_digit(c))
        pk.reduce = lambda c: reduce(largest_digit(c))
        pk.unpack = lambda c: unpack(largest_digit(c))
        pk.terms = terms
        return pk

    monkeypatch.setattr(skew, "Packing", wide)
    monkeypatch.setattr(skew, "SKEW_TERMS", 2)
    ring = SkewRing(PACKED[name]())
    L, F = ring.L, ring.base
    top = ring.poly([L.element(L.q - 1)] * 9)
    ones = ring.poly([L.one] * 9)
    prod = top * top
    quo, rem = prod.right_divmod(top)
    # quotient coefficients 1: each remainder update adds (p-1)^2 per digit
    # at n e = 1
    quo1, rem1 = (ones * top).right_divmod(top)
    D = DrinfeldModule(ring, ring.poly([L.element(L.q - 1)] * 4))
    a = Poly(F, [F.element(F.q - 1)] * 5)
    phi_a = D.phi(a)
    n, e, p = L.e, F.degree, L.p
    assert max(seen) <= 2 * n * e * (p - 1) ** 2
    monkeypatch.undo()
    assert prod.coeffs == skew_mul_oracle(L, top.coeffs, top.coeffs)
    assert quo.coeffs == top.coeffs and rem.is_zero
    assert quo1.coeffs == ones.coeffs and rem1.is_zero
    assert phi_a.coeffs == phi_horner_oracle(D, a)


# -- Rabin's test of L's modulus ---------------------------------------------


def rabin(f) -> bool:
    """SkewRing.is_field for L = F[z]/(f), f monic of degree >= 1."""
    return SkewRing(ExtensionField(f.field, f.coeffs)).is_field()


def rabin_conditions(f):
    """(z^(q^n) = z, gcd(prod over primes r | n of z^(q^(n/r)) - z, f) = 1)
    on Poly powers mod f, with no ring."""
    F, n = f.field, f.degree
    x = Poly.x(F)
    prod = Poly.one(F)
    for r in (r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))):
        prod = prod * (x.pow_mod(F.q ** (n // r), f) - x) % f
    return x.pow_mod(F.q**n, f) == x % f, poly_gcd(prod, f).is_one


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rabin_matches_ben_or_and_the_oracle_over_prime_fields(p):
    # every monic modulus of degree 1 to 4
    F = PrimeField(p)
    for f in monic_polys(F, 4):
        if f.degree >= 1:
            assert rabin(f) == is_irreducible(f) == irreducible_oracle(f), f.to_str()


def test_rabin_matches_ben_or_and_the_oracle_over_the_f25_tower():
    # every monic modulus of degree 1 and 2 over F_25 = F_5[y]/(y^2 + 2), and
    # a seeded sample of 2,000 of the 15,625 monic cubics (all of them would
    # add about 8 s); F_25 runs on its tables, L on the ring's packing
    F25 = TABLED["F25"]()
    x = Poly.x(F25)
    moduli = [f for f in monic_polys(F25, 2) if f.degree >= 1]
    cubics = list(polys_below_degree(F25, 3))
    moduli += [x**3 + u for u in random.Random(25).sample(cubics, 2000)]
    verdicts = [rabin(f) for f in moduli]
    assert verdicts == [is_irreducible(f) for f in moduli]
    assert verdicts == [irreducible_oracle(f) for f in moduli]
    assert 0 < sum(verdicts) < len(moduli)


# L's moduli of the module-ident benchmark at seed 1: sixteen of degree 6
# over F_7 and four of degree 9 over F_5
MODULE_IDENT_MODULI = [
    (7, [4, 1, 0, 5, 4, 1, 1]),
    (7, [5, 3, 1, 5, 2, 5, 1]),
    (7, [6, 6, 0, 5, 3, 1, 1]),
    (7, [3, 4, 0, 5, 4, 0, 1]),
    (7, [1, 4, 0, 2, 1, 3, 1]),
    (7, [6, 3, 6, 6, 4, 6, 1]),
    (7, [4, 5, 6, 5, 3, 6, 1]),
    (7, [1, 2, 3, 4, 4, 5, 1]),
    (7, [6, 4, 4, 6, 4, 2, 1]),
    (7, [3, 1, 3, 4, 0, 3, 1]),
    (7, [1, 0, 3, 1, 1, 3, 1]),
    (7, [6, 5, 1, 1, 6, 5, 1]),
    (7, [6, 2, 4, 4, 5, 0, 1]),
    (7, [4, 4, 2, 3, 4, 5, 1]),
    (7, [1, 3, 0, 5, 5, 4, 1]),
    (7, [4, 0, 3, 5, 4, 6, 1]),
    (5, [2, 2, 1, 2, 0, 3, 0, 1, 4, 1]),
    (5, [4, 4, 3, 3, 3, 2, 3, 4, 2, 1]),
    (5, [1, 3, 3, 1, 3, 1, 4, 4, 1, 1]),
    (5, [4, 0, 2, 3, 1, 2, 3, 3, 0, 1]),
]


@pytest.mark.parametrize("p, modulus", MODULE_IDENT_MODULI, ids=lambda v: str(v))
def test_rabin_accepts_the_module_ident_moduli(p, modulus):
    F = PrimeField(p)
    f = int_poly(F, modulus)
    assert rabin(f) and is_irreducible(f) and irreducible_oracle(f)
    # and times x + 1 it is rejected
    assert not rabin(f * int_poly(F, [1, 1]))


def _f5(*coeffs):
    return int_poly(PrimeField(5), coeffs)


# reducible moduli over F_5 and which of Rabin's two conditions they pass:
# with irreducible x + 1, x^2 + 2, x^2 + 3, x^3 + 3x + 3, x^3 + x + 1 and
# x^5 - x - 1; each condition alone is needed, and a square fails both
RABIN_REDUCIBLE = {
    # n = 5 is prime and no factor is linear, so the gcd with z^q - z is 1:
    # only z^(q^5) = z fails, on the quadratic factor
    "quadratic*cubic": (_f5(2, 0, 1) * _f5(3, 3, 0, 1), (False, True)),
    # z^(q^6) = z holds: only the gcd with z^(q^3) - z catches it
    "cubic*cubic": (_f5(3, 3, 0, 1) * _f5(1, 1, 0, 1), (True, False)),
    "quadratic*quadratic": (_f5(2, 0, 1) * _f5(3, 0, 1), (True, False)),
    "cubic^2": (_f5(3, 3, 0, 1) ** 2, (False, False)),
    "linear*quintic": (_f5(1, 1) * _f5(4, 4, 0, 0, 0, 1), (False, False)),
}


@pytest.mark.parametrize("name", RABIN_REDUCIBLE)
def test_rabin_rejects_each_kind_of_reducible_modulus(name):
    f, conditions = RABIN_REDUCIBLE[name]
    assert rabin_conditions(f) == conditions
    assert not rabin(f) and not is_irreducible(f) and not irreducible_oracle(f)
