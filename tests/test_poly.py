from __future__ import annotations

import random

import pytest

from drinfeld_orders import DomainError, Poly, PrimeField, poly_gcd
from drinfeld_orders.poly import polys_below_degree, valuation

from oracles import (
    RatFunc,
    const_poly,
    int_poly,
    poly_divmod_oracle,
    poly_gcd_oracle,
    poly_mul_oracle,
    poly_value,
    pow_mod_oracle,
    schoolbook_ops,
)
from test_gf import FIELDS, LOG_KERNEL_FIELDS, PACKED, TABLED, FieldOpCalled


def rand_poly(F, max_deg, rng, monic=False):
    coeffs = [F.element(rng.randrange(F.q)) for _ in range(max_deg + 1)]
    f = Poly(F, coeffs)
    if monic and f.is_zero:
        return Poly.one(F)
    return f.monic() if monic and not f.is_zero else f


def test_zero_polynomial_basics():
    F = PrimeField(5)
    z = Poly.zero(F)
    assert z.degree == -1
    assert z.is_zero and not z
    assert (z + z).is_zero
    assert (Poly.x(F) * z).is_zero


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_ring_axioms_random(F):
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(F, 5, rng)
        g = rand_poly(F, 5, rng)
        h = rand_poly(F, 5, rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Poly.zero(F)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_divmod_roundtrip(F):
    rng = random.Random(13)
    for _ in range(150):
        f = rand_poly(F, 8, rng)
        g = rand_poly(F, 4, rng)
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def _random_shape(F, rng):
    """Zero, a constant, or up to 30 coefficients, dense or mostly zero,
    with a random leading one (so divisors are not monic in general)."""
    kind = rng.randrange(6)
    if kind == 0:
        return Poly.zero(F)
    length = 1 if kind == 1 else rng.randrange(1, 31)
    density = 0.2 if kind == 2 else 1.0
    coeffs = [rng.randrange(F.p) if rng.random() < density else 0 for _ in range(length - 1)]
    return Poly(F, coeffs + [rng.randrange(1, F.p)])


@pytest.mark.parametrize("p", [2, 5, 7, 13, 1009])
def test_prime_field_kernels_match_schoolbook(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(300):
        f, g = _random_shape(F, rng), _random_shape(F, rng)
        prod = f * g
        if f and g:
            assert list(prod.coeffs) == poly_mul_oracle(p, f.coeffs, g.coeffs)
        else:
            assert prod.is_zero
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        want_q, want_r = poly_divmod_oracle(p, list(f.coeffs), list(g.coeffs))
        assert (list(q.coeffs), list(r.coeffs)) == (want_q, want_r)
        assert q * g + r == f and r.degree < g.degree


# -- sums, differences and scalars on the field kernels ------------------------

SUM_FIELDS = {
    "F7": lambda: PrimeField(7),
    "F25": TABLED["F25"],
    "F625/F25": LOG_KERNEL_FIELDS["F625/F25"],
    "p7e6": PACKED["p7e6"],
    "f25e3": PACKED["f25e3"],
}


def _coefficientwise(F, op, a, b):
    """op on coefficient tuples a and b, the shorter padded with zeros,
    trailing zeros stripped."""
    n = max(len(a), len(b))
    a, b = a + (F.zero,) * (n - len(a)), b + (F.zero,) * (n - len(b))
    out = [op(x, y) for x, y in zip(a, b)]
    while out and out[-1] == F.zero:
        out.pop()
    return tuple(out)


def _sum_operands(F, rng):
    """Pairs (f, g): zero operands, a longer right operand, equal lengths
    whose top coefficients cancel in f + g and in f - g, and random ones."""

    def unit():
        return F.element(rng.randrange(1, F.q))

    def poly(length):
        return Poly(F, [F.element(rng.randrange(F.q)) for _ in range(length - 1)] + [unit()])

    zero = Poly(F, ())
    f, g = poly(5), poly(5)
    top = Poly(F, g.coeffs[:-1] + (f.lc,))
    pairs = [
        (zero, zero),
        (zero, poly(3)),
        (poly(3), zero),
        (poly(2), poly(6)),  # the longer operand on the right
        (f, top),  # f - top: the top coefficients cancel
        (f, -top),  # f + (-top): they cancel
        (f, f),  # everything cancels in f - f
        (f, -f),
        (Poly(F, (unit(),)), poly(4)),
    ]
    pairs += [(poly(rng.randrange(1, 8)), poly(rng.randrange(1, 8))) for _ in range(40)]
    return pairs


@pytest.mark.parametrize("name", SUM_FIELDS)
def test_sums_and_scalars_match_coefficientwise(name):
    F = SUM_FIELDS[name]()
    add, sub, mul = schoolbook_ops(F)
    rng = random.Random(F.q)
    scalars = (F.zero, F.one, F.element(rng.randrange(1, F.q)))
    for f, g in _sum_operands(F, rng):
        for x, y in ((f, g), (g, f)):
            assert (x + y).coeffs == _coefficientwise(F, add, x.coeffs, y.coeffs)
            assert (x - y).coeffs == _coefficientwise(F, sub, x.coeffs, y.coeffs)
        assert (-f).coeffs == _coefficientwise(F, sub, (), f.coeffs)
        for c in scalars:
            want = _coefficientwise(F, lambda x, _: mul(c, x), f.coeffs, ())
            assert f.scale(c).coeffs == want


def test_prime_field_sums_make_no_field_op_calls(monkeypatch):
    F = PrimeField(7)
    f = int_poly(F, [3, 0, 6, 1, 5])
    g = int_poly(F, [4, 2, 1, 0, 2, 0, 3])
    want = (f + g, f - g, g - f, -g, f.scale(3))

    def forbidden(*args):
        raise FieldOpCalled

    for op in ("add", "sub", "neg", "mul"):
        monkeypatch.setattr(PrimeField, op, forbidden)
    assert (f + g, f - g, g - f, -g, f.scale(3)) == want


# -- powers: one ladder for fields and polynomials --------------------------------


@pytest.mark.parametrize("name", SUM_FIELDS)
def test_powers_match_repeated_products(name):
    F = SUM_FIELDS[name]()
    rng = random.Random(F.q + 1)
    f = Poly(F, [F.element(rng.randrange(F.q)) for _ in range(2)] + [F.one])
    m = Poly(F, [F.element(rng.randrange(1, F.q)) for _ in range(3)] + [F.one])
    a = F.element(rng.randrange(2, F.q))
    acc, power = Poly.one(F), F.one
    for n in range(41):
        assert f**n == acc
        assert f.pow_mod(n, m) == acc % m
        assert F.pow(a, n) == power
        assert F.pow(a, -n) == F.pow(F.inv(a), n)
        acc, power = acc * f, F.mul(power, a)
    assert (f**0).is_one and f.pow_mod(0, m).is_one
    assert f.pow_mod(0, const_poly(F, a)).is_zero  # one mod a unit
    with pytest.raises(DomainError):
        f ** -1
    with pytest.raises(DomainError):
        f.pow_mod(-2, m)


@pytest.mark.parametrize("name", SUM_FIELDS)
def test_gcd_and_pow_mod_match_the_poly_level_oracles(name):
    # poly_gcd and Poly.pow_mod are one kernel call each; the oracles are
    # the Euclid and ladder loops on Poly remainders and products
    F = SUM_FIELDS[name]()
    rng = random.Random(name)
    for _ in range(15):
        h = rand_poly(F, rng.randrange(3), rng, monic=True)
        f, g = rand_poly(F, 4, rng) * h, rand_poly(F, 3, rng) * h
        if not (f.is_zero and g.is_zero):
            assert poly_gcd(f, g) == poly_gcd_oracle(f, g)
        m = rand_poly(F, rng.randrange(4), rng)
        if m.is_zero:
            continue
        for n in (0, 1, 3, F.q, 2**40 + 1):
            assert f.pow_mod(n, m) == pow_mod_oracle(f, n, m)
    with pytest.raises(ZeroDivisionError):
        Poly.x(F).pow_mod(3, Poly.zero(F))


def test_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.x(F), Poly.zero(F))


def test_gcd_trivial_cases():
    F = PrimeField(5)
    T = Poly.x(F)
    f = (T + Poly.one(F)).scale(F.element(3))
    assert poly_gcd(f, Poly.zero(F)) == f.monic()
    assert poly_gcd(f, Poly.one(F)).is_one
    with pytest.raises(DomainError):
        poly_gcd(Poly.zero(F), Poly.zero(F))


def test_gcd_worked_example():
    # over F5: gcd(T^2(T+4), T(T+4)^2) = T(T+4)
    F = PrimeField(5)
    T = Poly.x(F)
    t4 = int_poly(F, [4, 1])
    assert poly_gcd(T * T * t4, T * t4 * t4) == T * t4


def _brute_force_gcd(f, g):
    """Largest monic common divisor found by scanning all monic candidates."""
    F = f.field
    best = Poly.one(F)
    bound = min(f.degree, g.degree)
    for d in range(1, bound + 1):
        for tail in polys_below_degree(F, d):
            cand = tail + Poly.x(F) ** d
            if cand.divides(f) and cand.divides(g) and cand.degree > best.degree:
                best = cand
    return best


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gcd_against_brute_force(q):
    F = [f for f in FIELDS if f.q == q][0]
    rng = random.Random(17)
    for _ in range(60):
        f = rand_poly(F, 4, rng)
        g = rand_poly(F, 4, rng)
        if f.is_zero or g.is_zero:
            continue
        got = poly_gcd(f, g)
        want = _brute_force_gcd(f, g)
        assert got == want
        assert got.divides(f) and got.divides(g)


def test_canonical_order_degree_then_leading():
    F = PrimeField(5)
    polys = [
        int_poly(F, [4]),
        int_poly(F, [0, 1]),
        int_poly(F, [4, 1]),
        int_poly(F, [0, 2]),
        Poly.zero(F),
        Poly.one(F),
    ]
    ordered = sorted(polys, key=lambda f: f.sort_key())
    assert [f.to_str() for f in ordered] == ["0", "1", "4", "T", "T+4", "2*T"]


def test_valuation():
    F = PrimeField(5)
    T = Poly.x(F)
    f = T * T * (T + Poly.one(F))
    assert valuation(f, T) == 2
    assert valuation(f, T + Poly.one(F)) == 1
    assert valuation(f, T + int_poly(F, [2])) == 0


def _valuation_by_divmod(f, p) -> int:
    """The definition: divide by p as a Poly until a remainder is nonzero."""
    v = 0
    while True:
        q, r = divmod(f, p)
        if r:
            return v
        f, v = q, v + 1


VALUATION_FIELDS = {
    "F13": lambda: PrimeField(13),
    "F25": TABLED["F25"],  # on its tables
    "f25e3": PACKED["f25e3"],  # a tower over F_25, on packed products
}


@pytest.mark.parametrize("name", VALUATION_FIELDS)
def test_valuation_matches_repeated_division(name):
    # f = p^k g for p of degree 1 to 3, monic or not, and g of degree 0 to
    # 4, which p may divide again; g constant and k = 0 puts deg f < deg p
    F = VALUATION_FIELDS[name]()
    rng = random.Random(name)
    seen = set()
    for _ in range(80):
        p = rand_poly(F, rng.randrange(1, 4), rng)
        g = rand_poly(F, rng.randrange(5), rng)
        if p.degree < 1 or g.is_zero:
            continue
        k = rng.randrange(4)
        f = p**k * g
        v = valuation(f, p)
        assert v == _valuation_by_divmod(f, p) >= k
        seen.add(v)
    assert seen >= {0, 1, 2, 3}


def test_evaluate_and_derivative():
    F = PrimeField(7)
    f = int_poly(F, [1, 0, 3, 2])  # 2T^3+3T^2+1
    assert poly_value(f, F.element(2)) == F.element((2 * 8 + 3 * 4 + 1) % 7)
    assert f.derivative() == int_poly(F, [0, 6, 6])


def test_ratfunc_normalization_and_field_ops():
    F = PrimeField(5)
    T = Poly.x(F)
    one = Poly.one(F)
    r = RatFunc(T * T * (T + one), T.scale(F.element(2)))
    assert r.num == (T * (T + one)).scale(F.element(3))
    assert r.den.is_one
    a = RatFunc(one, T)
    b = RatFunc(one, T + one)
    s = a + b
    assert s.num == int_poly(F, [1, 2])
    assert s.den == T * (T + one)
    assert (a * b) / b == a
    assert (a - a).num.is_zero
    with pytest.raises(DomainError):
        (a + b).as_poly()
