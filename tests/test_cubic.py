from __future__ import annotations

import random

import pytest

from drinfeld_orders import (
    BadConstantTermError,
    Char3UnsupportedError,
    Poly,
    PrimeField,
    ReducibleError,
    WeilCubic,
    divisors,
    factor,
    field_discriminant,
    height,
    index,
    integral_basis,
    is_irreducible,
    poly_gcd,
    standard_form,
    validate_weil_necessary,
)
from drinfeld_orders.cubic import _check_irreducible_over_k
from drinfeld_orders.factor import make_extension_field
from drinfeld_orders.poly import polys_below_degree, valuation

from oracles import (
    RatFunc,
    integral_basis_oracle,
    root_in_a_oracle,
    trace_form_discriminant,
)


def test_validate_worked_example(example_weil):
    local = validate_weil_necessary(example_weil)
    assert local.height == 1
    assert local.etale_degree == 2
    assert local.residue_pattern == ((1, 1), (1, 2))
    assert not local.supersingular
    assert not local.pv_divides_a2


def test_validate_supersingular_shape(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=T, a2=T, mu=f5.element(2), pv=T, m=1)
    local = validate_weil_necessary(W)
    assert local.height == 3
    assert local.supersingular
    assert local.residue_pattern == ((1, 3),)


def test_validate_height_two_shape(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.one(f5), a2=T, mu=f5.element(2), pv=T, m=1)
    local = validate_weil_necessary(W)
    assert local.height == 2
    assert local.pv_divides_a2 and not local.supersingular
    assert (1, 1) in local.residue_pattern


def test_validate_rejects_reducible(f5):
    T = Poly.x(f5)
    # (x - 1)(x^2 + x + (T+1)) = x^3 + T x + (4T + 4): root x = 1
    a2 = T
    a0 = Poly.from_ints(f5, [4, 4])
    # pick mu, pv, m matching a0 = 4(T+1)
    W = WeilCubic(
        field=f5,
        a1=Poly.zero(f5),
        a2=a2,
        mu=f5.element(4),
        pv=Poly.from_ints(f5, [1, 1]),
        m=1,
    )
    assert W.a0 == a0
    with pytest.raises(ReducibleError):
        validate_weil_necessary(W)


def sieve_verdict(W):
    """The ReducibleError message of the leading-coefficient sieve, or None."""
    try:
        _check_irreducible_over_k(W)
    except ReducibleError as exc:
        return str(exc)
    return None


def oracle_verdict(W):
    r = root_in_a_oracle(W)
    return None if r is None else f"M(x) has the root {r.to_str()} in A"


def sieve_fields():
    F7 = PrimeField(7)
    F5 = PrimeField(5)
    return {
        "F13": PrimeField(13),
        "F25": make_extension_field(F5, Poly.from_ints(F5, [2, 0, 1])),
        "F49": make_extension_field(F7, Poly.from_ints(F7, [1, 0, 1])),
    }


def test_root_sieve_matches_exhaustive_scan_on_pool(instance_pool):
    for analysis in instance_pool:
        assert sieve_verdict(analysis.weil) == oracle_verdict(analysis.weil) is None


def planted_root_cubic(F, pv, m, j, rng):
    """(x - u pv^j)(x^2 + s x + c pv^(m-j)) with random u, c and s: the root
    u pv^j divides a0 = -u c pv^m; the quadratic may add roots of its own."""
    u, c = (F.element(rng.randrange(1, F.q)) for _ in range(2))
    s = Poly(F, (F.element(rng.randrange(F.q)) for _ in range(3)))
    r = (pv**j).scale(u)
    t = (pv ** (m - j)).scale(c)
    W = WeilCubic(
        field=F, a1=s - r, a2=t - r * s, mu=F.neg(F.mul(u, c)), pv=pv, m=m
    )
    assert W.a0 == -(r * t)
    return W


@pytest.mark.parametrize("name", ["F13", "F25", "F49"])
def test_root_sieve_finds_constructed_roots(name):
    F = sieve_fields()[name]
    rng = random.Random(f"sieve/{name}")
    T = Poly.x(F)
    m = 4
    quadratics = [T * T + Poly.const(F, F.element(i)) for i in range(1, F.q)]
    quadratic = next(f for f in quadratics if is_irreducible(f))
    for pv in (T + Poly.const(F, F.element(3)), quadratic):
        for j in (0, m // 2, m):
            W = planted_root_cubic(F, pv, m, j, rng)
            verdict = sieve_verdict(W)
            assert verdict is not None
            assert verdict == oracle_verdict(W)


def test_root_sieve_candidate_rejected_by_full_check():
    # over F_13, x^3 + x^2 - T^3 with pv = T: at j = 1 the top-degree terms
    # u^3 T^3 - T^3 cancel for u = 1, but M(T) = T^2 is not zero
    F = PrimeField(13)
    T = Poly.x(F)
    W = WeilCubic(field=F, a1=Poly.one(F), a2=Poly.zero(F), mu=F.element(12), pv=T, m=3)
    a0, a2, a1, _ = W.coefficients()
    assert ((T + a1) * T + a2) * T + a0 == T * T
    assert sieve_verdict(W) == oracle_verdict(W) is None


@pytest.mark.parametrize("name", ["F13", "F25", "F49"])
def test_root_sieve_matches_exhaustive_scan_on_random_cubics(name):
    # random cubics, every other one with a planted root at a random j
    F = sieve_fields()[name]
    rng = random.Random(f"sieve-random/{name}")
    T = Poly.x(F)
    for k in range(60):
        pv = T + Poly.const(F, F.element(rng.randrange(F.q)))
        m = rng.randrange(1, 4)
        if k % 2:
            W = planted_root_cubic(F, pv, m, rng.randrange(m + 1), rng)
        else:
            a1, a2 = (
                Poly(F, [F.element(rng.randrange(F.q)) for _ in range(rng.randrange(4))])
                for _ in range(2)
            )
            mu = F.element(rng.randrange(1, F.q))
            W = WeilCubic(field=F, a1=a1, a2=a2, mu=mu, pv=pv, m=m)
        verdict = sieve_verdict(W)
        assert verdict == oracle_verdict(W)
        assert k % 2 == 0 or verdict is not None


def test_validate_rejects_char3():
    F3 = PrimeField(3)
    T = Poly.x(F3)
    W = WeilCubic(field=F3, a1=T, a2=T, mu=F3.element(1), pv=T, m=1)
    with pytest.raises(Char3UnsupportedError):
        validate_weil_necessary(W)


def test_validate_rejects_bad_constant_data(f5):
    T = Poly.x(f5)
    with pytest.raises(BadConstantTermError):
        validate_weil_necessary(
            WeilCubic(field=f5, a1=T, a2=T, mu=f5.zero, pv=T, m=1)
        )
    with pytest.raises(BadConstantTermError):
        validate_weil_necessary(
            WeilCubic(field=f5, a1=T, a2=T, mu=f5.one, pv=T, m=0)
        )
    with pytest.raises(BadConstantTermError):
        validate_weil_necessary(
            WeilCubic(field=f5, a1=T, a2=T, mu=f5.one, pv=T * T, m=1)
        )


def test_validate_rejects_split_local_factor(f5):
    # x^3 + x^2 + 2T x + T^3 is irreducible over k but has v-adic zeros of
    # valuations 1 and 2 (Newton slopes -1 and -2 above the unit root), so
    # two v-adic factors carry pv in their constant terms.
    from drinfeld_orders import NotWeilAtVError

    F = f5
    T = Poly.x(F)
    W = WeilCubic(
        field=F, a1=Poly.one(F), a2=T.scale(F.element(2)), mu=F.element(1), pv=T, m=3
    )
    with pytest.raises(NotWeilAtVError):
        validate_weil_necessary(W)


def test_height_characterisation(instance_pool):
    for analysis in instance_pool:
        W, local = analysis.weil, analysis.local
        h = height(W)
        assert h == local.height and 1 <= h <= 3
        div_a2 = W.a2.is_zero or (W.a2 % W.pv).is_zero
        div_a1 = W.a1.is_zero or (W.a1 % W.pv).is_zero
        assert (h == 1) == (not div_a2)
        assert (h == 3) == (div_a2 and div_a1)


def test_standard_form_depressed_input(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T, mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    assert sf.b1 == W.a2
    assert sf.b2 == W.a0
    assert sf.g.is_one


def test_standard_form_worked_example(example_analysis):
    sf = example_analysis.sf
    F = sf.c1.field
    assert sf.b1 == Poly.from_ints(F, [2, 4, 4])
    assert sf.b2 == Poly.from_ints(F, [3, 4, 0, 3])
    assert sf.g.is_one
    assert sf.c1 == sf.b1 and sf.c2 == sf.b2
    # disc(M0) = T^2 (T+4)^2 (T^2+4T+2)
    T = Poly.x(F)
    t4 = Poly.from_ints(F, [4, 1])
    quad = Poly.from_ints(F, [2, 4, 1])
    assert sf.disc_m0 == T * T * t4 * t4 * quad


def test_standard_form_strips_content(f5):
    # synthetic: b1 = s^2 u, b2 = s^3 w with s = T+1 (instance found by search)
    F = f5
    T = Poly.x(F)
    W = WeilCubic(
        field=F,
        a1=T,
        a2=Poly.from_ints(F, [3, 2, 2, 1]),
        mu=F.element(2),
        pv=Poly.from_ints(F, [2, 1]),
        m=2,
    )
    sf = standard_form(W)
    s = Poly.from_ints(F, [1, 1])
    assert sf.g == s
    assert sf.c1 * s * s == sf.b1
    assert sf.c2 * s**3 == sf.b2
    # standardness: no prime divides c1 twice and c2 three times
    common = poly_gcd(sf.c1, sf.c2)
    for prime in [p for p, _ in __import__("drinfeld_orders").factor(common).factors]:
        assert valuation(sf.c1, prime) < 2 or valuation(sf.c2, prime) < 3


def test_field_discriminant_worked_example(example_analysis):
    mo = example_analysis.mo
    F = mo.delta.field
    t4 = Poly.from_ints(F, [4, 1])
    quad = Poly.from_ints(F, [2, 4, 1])
    assert mo.delta == t4 * t4 * quad


def test_field_discriminant_squarefree_disc(f5):
    # any instance whose disc(M0) is square-free has delta = disc(M0)
    from drinfeld_orders import squarefree_decompose

    T = Poly.x(f5)
    # x^3 + x + T: disc(M0) = -4 - 27 T^2 = 3(T^2 + 2), square-free
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=Poly.one(f5), mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    decomp = squarefree_decompose(sf.disc_m0)
    assert all(m == 1 for _, m in decomp.parts)
    delta = field_discriminant(sf)
    assert delta == sf.disc_m0.monic()


def test_field_discriminant_valuation_two_case(instance_pool):
    # wherever v_p(c1) >= v_p(c2) >= 1, the discriminant valuation is 2
    hit = 0
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        from drinfeld_orders import factor

        for prime, _ in factor(mo.disc_m0).factors:
            v1 = None if sf.c1.is_zero else valuation(sf.c1, prime)
            v2 = valuation(sf.c2, prime)
            if (v1 is None or v1 >= v2) and v2 >= 1:
                assert valuation(mo.delta, prime) == 2
                hit += 1
    assert hit >= 1


def test_index_worked_example(example_analysis):
    assert example_analysis.mo.index == Poly.x(example_analysis.weil.field)


def test_index_trivial_when_delta_is_disc(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T, mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    delta = field_discriminant(sf)
    assert delta == sf.disc_m0.monic()
    assert index(sf, delta).is_one


def test_index_against_divisor_search(instance_pool):
    # I is the unique monic divisor d of disc(M0) with d^2 * delta = disc(M0)
    for analysis in instance_pool[:12]:
        sf, mo = analysis.sf, analysis.mo
        target = mo.disc_m0.monic()
        hits = [
            d for d in divisors(target) if d * d * mo.delta == target
        ]
        assert hits == [mo.index]


def test_integral_basis_worked_example(example_analysis):
    mo = example_analysis.mo
    F = mo.delta.field
    assert mo.beta2 == Poly.from_ints(F, [4])
    assert mo.alpha2 == Poly.from_ints(F, [3])


def test_integral_basis_trivial_when_index_one(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T, mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    alpha2, beta2 = integral_basis(sf, Poly.one(f5))
    assert alpha2.is_zero and beta2.is_zero


def test_integral_basis_congruences_hold(instance_pool):
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        I, a2, b2 = mo.index, mo.alpha2, mo.beta2
        if I.is_one:
            continue
        I2 = I * I
        assert (((b2 * b2).scale_int(3) + sf.c1) % I).is_zero
        assert ((b2**3 + sf.c1 * b2 + sf.c2) % I2).is_zero
        assert ((a2 + (b2 * b2).scale_int(2)) % I).is_zero
        assert b2.degree < I2.degree and a2.degree < I.degree


def test_integral_basis_exhaustive_oracle(instance_pool):
    # degree-1 index: the pipeline's beta2 is the canonically smallest of
    # all solutions found by a full scan of the q^2 residues mod I^2
    checked = 0
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        I = mo.index
        if I.degree != 1:
            continue
        F = I.field
        I2 = I * I
        sols = [
            beta
            for beta in polys_below_degree(F, 2)
            if (((beta * beta).scale_int(3) + sf.c1) % I).is_zero
            and ((beta**3 + sf.c1 * beta + sf.c2) % I2).is_zero
        ]
        assert mo.beta2 in sols
        assert mo.beta2 == min(sols, key=lambda b: b.sort_key())
        checked += 1
    assert checked >= 2


def test_integral_basis_lifting_path_matches_exhaustive(instance_pool):
    # the per-prime lifting + CRT agrees with the exhaustive scan of the
    # residues mod I^2 on every instance with a nontrivial index
    checked = 0
    multi_prime = 0
    for analysis in instance_pool:
        sf, I = analysis.sf, analysis.mo.index
        if I.degree < 1:
            continue
        assert integral_basis(sf, I) == integral_basis_oracle(sf, I)
        checked += 1
        if len(factor(I).factors) > 1:
            multi_prime += 1
    assert checked >= 5
    assert multi_prime >= 1  # the CRT recombination ran at least once


def test_conductor_generator_product_worked_example(example_analysis):
    # in the worked instance, (pi - 3T + 3) * omega2 = (T+1) pi + 4T^2+4T+3,
    # an element of A[pi]; checked in the companion-matrix representation

    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    zero = RatFunc.from_poly(Poly.zero(F))
    one = RatFunc.from_poly(Poly.one(F))

    def rmat(rows):
        return [[RatFunc.from_poly(p) for p in row] for row in rows]

    def rmul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(3)), start=zero) for j in range(3)]
            for i in range(3)
        ]

    def radd(a, b):
        return [[a[i][j] + b[i][j] for j in range(3)] for i in range(3)]

    def rscale(a, s):
        return [[s * a[i][j] for j in range(3)] for i in range(3)]

    c_m = rmat(
        (
            (Poly.zero(F), Poly.zero(F), -W.a0),
            (Poly.one(F), Poly.zero(F), -W.a2),
            (Poly.zero(F), Poly.one(F), -W.a1),
        )
    )
    eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
    t = RatFunc.from_poly(W.a1.scale(F.inv(F.from_int(3))))  # g = 1 here
    pt = radd(c_m, rscale(eye, t))
    w2 = rscale(
        radd(
            radd(
                rscale(eye, RatFunc.from_poly(mo.alpha2)),
                rscale(pt, RatFunc.from_poly(mo.beta2)),
            ),
            rmul(pt, pt),
        ),
        one / RatFunc.from_poly(mo.index),
    )
    shift = RatFunc.from_poly(Poly.from_ints(F, [3, 2]))  # -3T + 3 over F5
    left = rmul(radd(c_m, rscale(eye, shift)), w2)
    want = radd(
        rscale(c_m, RatFunc.from_poly(Poly.from_ints(F, [1, 1]))),
        rscale(eye, RatFunc.from_poly(Poly.from_ints(F, [3, 4, 4]))),
    )
    assert all(left[i][j] == want[i][j] for i in range(3) for j in range(3))


def test_disc_identity_and_trace_form(instance_pool):
    for analysis in instance_pool:
        mo = analysis.mo
        # disc(M0) = I^2 * delta up to the leading unit
        assert mo.disc_m0.monic() == (mo.index * mo.index * mo.delta).monic()
    for analysis in instance_pool[:8]:
        got = trace_form_discriminant(analysis.sf, analysis.mo)
        assert got.monic() == analysis.mo.delta
