from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from drinfeld_orders import (
    DomainError,
    Poly,
    PrimeField,
    divisors,
    is_irreducible,
    make_extension_field,
    poly_gcd,
    squarefree_decompose,
)
import drinfeld_orders.factor as factor_module
from drinfeld_orders.factor import factor
from drinfeld_orders.poly import polys_below_degree

from oracles import (
    const_poly,
    exact_sqrt,
    expand,
    field_elements,
    int_poly,
    irreducible_oracle,
    monic_polys,
    poly_value,
    residue_factor,
)
from test_gf import FIELDS, PACKED, TABLED, build_field, f625_over_f25
from test_poly import rand_poly


def test_squarefree_worked_example():
    # over F5: T^2 (T+4)^2 (T^2+4T+2) -> D1 = T^2+4T+2, D2 = T(T+4)
    F = PrimeField(5)
    T = Poly.x(F)
    t4 = int_poly(F, [4, 1])
    quad = int_poly(F, [2, 4, 1])
    f = T * T * t4 * t4 * quad
    decomp = squarefree_decompose(f)
    assert dict((m, p) for p, m in decomp) == {1: quad, 2: T * t4}
    assert expand(f, decomp) == f


def test_squarefree_already_squarefree():
    F = PrimeField(5)
    f = int_poly(F, [2, 4, 1])
    decomp = squarefree_decompose(f)
    assert decomp == ((f, 1),)


def test_squarefree_pth_power_branch():
    # T^5 over F5 has zero derivative; the p-th-root path must fire
    F = PrimeField(5)
    f = Poly.x(F) ** 5
    decomp = squarefree_decompose(f)
    assert decomp == ((Poly.x(F), 5),)
    assert expand(f, decomp) == f


def test_squarefree_pth_power_over_extension_fields():
    # the coefficient-wise inverse Frobenius must handle tuple elements
    F4 = next(f for f in FIELDS if f.q == 4)
    w4 = F4.element(2)
    base = Poly(F4, (w4, F4.one))  # T + w
    f = base**4  # derivative vanishes twice (p = 2)
    decomp = squarefree_decompose(f)
    assert decomp == ((base, 4),)
    assert expand(f, decomp) == f

    F9 = next(f for f in FIELDS if f.q == 9)
    w9 = F9.element(2)
    g = (Poly(F9, (w9, F9.one)) * Poly(F9, (F9.one, F9.one))) ** 3
    decomp = squarefree_decompose(g)
    assert len(decomp) == 1 and decomp[0][1] == 3
    assert expand(g, decomp) == g


def test_squarefree_mixed_tame_and_wild_multiplicities():
    # multiplicities 1, 2 and p together, p = 5
    F = PrimeField(5)
    T = Poly.x(F)
    one = Poly.one(F)
    f = (T * T + one) * (T + one) ** 2 * T**5
    decomp = squarefree_decompose(f)
    assert dict((m, p) for p, m in decomp) == {
        1: T * T + one,
        2: T + one,
        5: T,
    }
    assert expand(f, decomp) == f


def _x_power_inputs():
    """Inputs with a power of x: c x^k, x^k g with g(0) != 0, x^k g^k (two
    parts of one multiplicity), and x^p, x^p (x+1)^p over F_p."""
    out = []
    for p in (5, 7):
        F = PrimeField(p)
        x = Poly.x(F)
        g = int_poly(F, [2, 1, 1])  # g(0) = 2
        for k in range(1, 5):
            out += [x**k, (x**k).scale(F.element(3)), x**k * g, (x * g) ** k]
            out.append((x**k * g * g * (x + Poly.one(F)) ** 3).scale(F.element(2)))
        out += [x**p, x**p * (x + Poly.one(F)) ** p]
    return out


@pytest.mark.parametrize("f", _x_power_inputs(), ids=lambda f: f"q{f.field.q}-{f.to_str()}")
def test_squarefree_strips_power_of_x(f):
    decomp = squarefree_decompose(f)
    assert expand(f, decomp) == f
    parts = [part for part, _ in decomp]
    mults = [mult for _, mult in decomp]
    assert mults == sorted(set(mults))
    for i, part in enumerate(parts):
        assert part.is_monic and part.degree >= 1
        assert poly_gcd(part, part.derivative()).is_one
        assert all(poly_gcd(part, other).is_one for other in parts[i + 1:])
    k = next(k for k, c in enumerate(f.coeffs) if c != f.field.zero)
    x = Poly.x(f.field)
    assert any((part % x).is_zero for part, m in decomp if m == k)


def test_squarefree_zero_rejected():
    F = PrimeField(5)
    with pytest.raises(DomainError):
        squarefree_decompose(Poly.zero(F))


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_squarefree_roundtrip_random(F):
    rng = random.Random(F.q * 101)
    for _ in range(40):
        f = rand_poly(F, 12, rng)
        if f.is_zero:
            continue
        decomp = squarefree_decompose(f)
        assert expand(f, decomp) == f
        seen = set()
        for part, mult in decomp:
            assert part.is_monic and mult >= 1
            assert mult not in seen
            seen.add(mult)
            # parts are square-free: gcd with derivative is 1 unless deriv = 0
            deriv = part.derivative()
            if not deriv.is_zero:
                assert poly_gcd(part, deriv).is_one


def test_factor_worked_examples():
    F = PrimeField(5)
    x = Poly.x(F)
    x3 = int_poly(F, [3, 1])
    f = x * x3 * x3
    fac = factor(f)
    assert fac == ((x, 1), (x3, 2))
    # T^2+4T+2 is irreducible over F5 (no roots, degree 2)
    quad = int_poly(F, [2, 4, 1])
    assert all(poly_value(quad, c) != F.zero for c in field_elements(F))
    assert factor(quad) == ((quad, 1),)
    assert is_irreducible(quad)


def test_factor_irreducible_input():
    F = PrimeField(5)
    f = int_poly(F, [2, 4, 1])
    assert factor(f) == ((f, 1),)


def test_ben_or_matches_independent_oracle():
    # every monic polynomial of small degree over F_5, F_7 and the tabled
    # F_25, and a non-monic multiple of each one over F_5
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    for F, max_deg in ((F5, 4), (PrimeField(7), 3), (F25, 2)):
        for f in monic_polys(F, max_deg):
            assert is_irreducible(f) == irreducible_oracle(f), f.to_str()
    for f in monic_polys(F5, 4):
        g = f.scale(F5.element(3))
        assert is_irreducible(g) == irreducible_oracle(f), g.to_str()


def test_ben_or_corner_inputs():
    F = PrimeField(5)
    T = Poly.x(F)
    quad = T * T + const_poly(F, F.element(2))
    other = T * T + const_poly(F, F.element(3))
    assert is_irreducible(quad) and is_irreducible(other)
    # P^2 and P*Q with deg P = deg Q = n/2: the ladder meets them last
    assert not is_irreducible(quad * quad)
    assert not is_irreducible(quad * other)
    assert not is_irreducible((quad * quad).scale(F.element(2)))
    assert is_irreducible(quad.scale(F.element(4)))
    assert is_irreducible((T + Poly.one(F)).scale(F.element(2)))
    assert not is_irreducible(Poly.zero(F))
    assert not any(is_irreducible(const_poly(F, c)) for c in field_elements(F))
    # the modulus of the shipped L = F_125
    assert is_irreducible(int_poly(F, [3, 3, 0, 1]))


@pytest.mark.parametrize("q", [5, 4, 25])
def test_factor_of_a_constant_is_its_unit(q):
    # a unit c has no square-free parts, so the general path gives no pairs
    F = build_field(q)
    for c in field_elements(F):
        if c != F.zero:
            assert factor(const_poly(F, c)) == ()


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_factor_roundtrip_and_irreducibility_random(F):
    rng = random.Random(F.q * 103)
    for _ in range(40):
        f = rand_poly(F, 12, rng)
        if f.is_zero:
            continue
        fac = factor(f)
        assert expand(f, fac) == f
        for prime, mult in fac:
            assert prime.is_monic and mult >= 1
            assert irreducible_oracle(prime)


@pytest.mark.parametrize("bound", [None, 1], ids=["scan", "ben-or"])
@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_small_degree_irreducibility_matches_the_oracle(F, bound, monkeypatch):
    # every polynomial of degree 2 and 3, non-monic ones and f(0) = 0
    # included, by the unit scan and (bound 1) by Ben-Or's test
    if bound is not None:
        monkeypatch.setattr(factor_module, "ROOT_SCAN_MAX", bound)
    units = field_elements(F)[1:]
    verdicts = set()
    for f in monic_polys(F, 3):
        if f.degree >= 2:
            want = irreducible_oracle(f)
            verdicts.add((f.degree, want))
            for u in units:
                assert is_irreducible(f.scale(u)) == want, f.scale(u).to_str()
    assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


@pytest.mark.parametrize("name", ["F25", "F49", "F257", "F625/F25", "p3e7"])
def test_irreducibility_samples_match_the_oracle(name, monkeypatch):
    # seeded quadratics and cubics, and products of a linear factor with a
    # random one, by the unit scan (up to q = 256) and by Ben-Or's test;
    # F_257 is the first prime above the scan bound, and p3e7 lies above
    # the table cap
    F = {**TABLED, **PACKED, "F257": lambda: PrimeField(257), "F625/F25": f625_over_f25}[name]()
    rng = random.Random(f"irreducible/{name}")
    x = Poly.x(F)

    def rand(n):
        lead = F.element(rng.randrange(1, F.q))
        return Poly(F, [F.element(rng.randrange(F.q)) for _ in range(n)] + [lead])

    polys = [rand(n) for n in (2, 3) for _ in range(15)]
    for n in (1, 2):
        for _ in range(5):
            root = const_poly(F, F.element(rng.randrange(F.q)))
            polys.append((x - root) * rand(n))
    want = [irreducible_oracle(f) for f in polys]
    assert True in want and False in want
    for bound in (factor_module.ROOT_SCAN_MAX, 1):
        monkeypatch.setattr(factor_module, "ROOT_SCAN_MAX", bound)
        assert [is_irreducible(f) for f in polys] == want


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_squarefree_factors_split_as_with_one_seeded_prng(F):
    # the factors, in order, of one PRNG seeded up front and shared by every
    # piece, on square-free products that need equal-degree splitting
    rng = random.Random(F.q * 109)
    split = 0
    for _ in range(30):
        f = rand_poly(F, 9, rng, monic=True)
        if f.degree < 1 or not poly_gcd(f, f.derivative()).is_one:
            continue
        shared = random.Random(factor_module._SPLIT_SEED)
        pieces = factor_module._distinct_degree(f)
        want = [
            prime
            for piece, d in pieces
            for prime in factor_module._equal_degree(piece, d, shared)
        ]
        assert factor_module.squarefree_factors(f) == want
        split += any(piece.degree > d for piece, d in pieces)
    assert split


def test_squarefree_factors_seed_no_prng_for_a_prime(monkeypatch):
    # a prime of degree d comes back from the ladder as one piece of degree
    # d, so nothing is drawn and no PRNG is built; a product of two primes of
    # one degree builds exactly one
    seeded = []

    def counting(seed):
        seeded.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(factor_module, "random", SimpleNamespace(Random=counting))
    F = PrimeField(5)
    x, one = Poly.x(F), Poly.one(F)
    for prime in (x, x + one, int_poly(F, [2, 0, 1]), int_poly(F, [3, 3, 0, 1])):
        assert factor_module.squarefree_factors(prime) == [prime]
    assert seeded == []
    split = factor_module.squarefree_factors(x * (x + one))
    assert sorted(split, key=Poly.sort_key) == [x, x + one]
    assert seeded == [factor_module._SPLIT_SEED]


def test_factor_deterministic():
    F = PrimeField(7)
    rng = random.Random(99)
    for _ in range(20):
        f = rand_poly(F, 10, rng)
        if f.is_zero:
            continue
        assert factor(f) == factor(f)


def test_exact_sqrt_worked_examples():
    F = PrimeField(5)
    T = Poly.x(F)
    assert exact_sqrt(T * T) == T
    assert exact_sqrt(Poly.one(F)).is_one
    assert exact_sqrt(T) is None


def test_exact_sqrt_unit_part():
    F = PrimeField(5)
    T = Poly.x(F)
    # the leading coefficient is ignored: 4 is a square mod 5, 2 is not
    assert exact_sqrt((T * T).scale(F.element(4))) == T
    assert exact_sqrt((T * T).scale(F.element(2))) == T


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_exact_sqrt_left_inverse_of_squaring(F):
    rng = random.Random(F.q * 107)
    for _ in range(40):
        s = rand_poly(F, 6, rng, monic=True)
        assert exact_sqrt(s * s) == s
    # s^2 * T has odd multiplicity at T, never a square
    for _ in range(20):
        s = rand_poly(F, 3, rng, monic=True)
        assert exact_sqrt(s * s * Poly.x(F)) is None


def test_divisors_worked_examples():
    F = PrimeField(5)
    T = Poly.x(F)
    one = Poly.one(F)
    assert divisors(F, factor(T)) == [one, T]
    t4 = int_poly(F, [4, 1])
    assert divisors(F, factor(T * t4)) == [one, T, t4, T * t4]
    assert divisors(F, factor(one)) == [one]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_divisors_count_and_divisibility(F):
    rng = random.Random(F.q * 109)
    for _ in range(40):
        f = rand_poly(F, 12, rng)
        if f.is_zero:
            continue
        fac = factor(f)
        ds = divisors(F, fac)
        want = 1
        for _, m in fac:
            want *= m + 1
        assert len(ds) == want
        assert len(set(ds)) == want
        assert all(d.divides(f) for d in ds)
        assert ds == sorted(ds, key=lambda t: t.sort_key())


def test_residue_factor_worked_example(example_weil):
    # M mod T over F5 factors as x (x+3)^2
    W = example_weil
    R, fac = residue_factor(list(W.coefficients()), W.pv)
    assert R.q == 5
    pattern = sorted((p.degree, m) for p, m in fac)
    assert pattern == [(1, 1), (1, 2)]
    roots = sorted(R.index(p.coeff(0)) for p, _ in fac)
    assert roots == [0, 3]  # factors x and x+3


def test_residue_factor_supersingular_shape():
    F = PrimeField(5)
    T = Poly.x(F)
    coeffs = [(T**2).scale(F.element(2)), T, T, Poly.one(F)]  # x^3+Tx^2+Tx+2T^2
    R, fac = residue_factor(coeffs, T)
    assert [(p.degree, m) for p, m in fac] == [(1, 3)]


def test_residue_factor_quadratic_prime(example_weil):
    # substitute T = 1 by reducing mod T+4 over F5 and factor by root search:
    # x^3 + 2x^2 + 3x + 4 has the root 1, quotient x^2+3x+1 = (x+4)^2, so
    # the whole reduction is (x+4)^3
    F = PrimeField(5)
    W = example_weil
    p = int_poly(F, [4, 1])
    R, fac = residue_factor(list(W.coefficients()), p)
    assert R.q == 5
    want = Poly(R, [(F.element(c),) for c in (4, 3, 2, 1)])
    assert expand(want, fac) == want
    x_plus_4 = Poly(R, [(F.element(4),), (F.element(1),)])
    assert fac == ((x_plus_4, 3),)


def test_polys_below_degree_enumeration():
    F = PrimeField(3)
    got = list(polys_below_degree(F, 2))
    assert len(got) == 9
    assert len(set(got)) == 9
    assert all(f.degree < 2 for f in got)
