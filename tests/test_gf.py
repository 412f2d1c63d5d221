from __future__ import annotations

import random

import pytest

from drinfeld_orders import DomainError, Poly, PrimeField, make_extension_field
from drinfeld_orders.gf import TABLE_CAP, ExtensionField

from oracles import schoolbook_ops, schoolbook_pow


def build_field(q):
    specs = {
        2: (2, None),
        3: (3, None),
        4: (2, [1, 1, 1]),
        5: (5, None),
        7: (7, None),
        9: (3, [1, 0, 1]),
    }
    p, mod = specs[q]
    base = PrimeField(p)
    if mod is None:
        return base
    return make_extension_field(base, Poly.from_ints(base, mod))


FIELDS = [build_field(q) for q in (2, 3, 4, 5, 7, 9)]


def test_prime_field_rejects_composites():
    with pytest.raises(DomainError):
        PrimeField(6)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_field_axioms_on_all_elements(F):
    elems = list(F.elements())
    assert len(elems) == F.q
    assert len(set(map(F.index, elems))) == F.q
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (F.element(rng.randrange(F.q)) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_pth_root_inverts_frobenius(F):
    for a in F.elements():
        assert F.pth_root(F.pow(a, F.p)) == a
        assert F.pow(F.pth_root(a), F.p) == a


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_sqrt_agrees_with_squaring(F):
    squares = {F.mul(a, a) for a in F.elements()}
    for a in F.elements():
        assert F.is_square(a) == (a in squares)


def test_extension_modulus_must_be_irreducible():
    F3 = PrimeField(3)
    with pytest.raises(DomainError):
        make_extension_field(F3, Poly.from_ints(F3, [2, 0, 1]))  # T^2+2 = (T+1)(T+2)


def test_tower_residue_field_arithmetic():
    # F_q[T]/(p) on top of F_4: a genuine tower with tuple coefficients
    F4 = build_field(4)
    w = F4.element(2)
    modulus = Poly(F4, (w, F4.one, F4.one))  # y^2 + y + w, Tr(w) = 1
    R = make_extension_field(F4, modulus)
    assert R.q == 16
    gen = R.generator()
    # gen^2 + gen + w = 0
    assert R.add(R.mul(gen, gen), R.add(gen, R.embed(w))) == R.zero
    for i in (0, 3, 7, 15):
        a = R.element(i)
        assert R.index(a) == i
        if a != R.zero:
            assert R.mul(a, R.inv(a)) == R.one


def test_from_int_is_prime_subfield_embedding():
    F9 = build_field(9)
    three = F9.from_int(3)
    assert three == F9.zero
    assert F9.from_int(5) == F9.add(F9.one, F9.add(F9.one, F9.add(F9.one, F9.add(F9.one, F9.one))))


def ext_field(p, modulus):
    F = PrimeField(p)
    return make_extension_field(F, Poly.from_ints(F, modulus))


def f625_over_f25():
    F25 = ext_field(5, [2, 0, 1])
    w = F25.generator()
    return make_extension_field(F25, Poly(F25, (F25.neg(w), F25.zero, F25.one)))


TABLED = {
    "F9": lambda: ext_field(3, [1, 0, 1]),
    "F25": lambda: ext_field(5, [2, 0, 1]),
    "F49": lambda: ext_field(7, [1, 0, 1]),
    "F125": lambda: ext_field(5, [3, 3, 0, 1]),
}


@pytest.mark.parametrize("name", TABLED)
def test_tables_match_schoolbook_on_all_pairs(name):
    F = TABLED[name]()
    add, sub, mul = schoolbook_ops(F)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == mul(a, b)
            assert F.add(a, b) == add(a, b)
            assert F.sub(a, b) == sub(a, b)
    assert F._log  # the comparison ran on the tables


def test_tables_match_schoolbook_over_tower():
    L = f625_over_f25()
    assert L.q == 625
    add, sub, mul = schoolbook_ops(L)
    rng = random.Random(625)
    for _ in range(3000):
        a, b = (L.element(rng.randrange(L.q)) for _ in range(2))
        assert L.mul(a, b) == mul(a, b)
        assert L.add(a, b) == add(a, b)
        assert L.sub(a, b) == sub(a, b)
    assert L._log and L.base._log


@pytest.mark.parametrize("name", TABLED)
def test_tables_inv_and_pow(name):
    F = TABLED[name]()
    _, _, mul = schoolbook_ops(F)
    big = 10**20 + 7
    for a in F.elements():
        assert F.pow(a, 0) == F.one
        assert F.pow(a, 1) == a
        assert F.pow(a, big) == schoolbook_pow(mul, F.one, a, big)
        if a == F.zero:
            continue
        assert mul(a, F.inv(a)) == F.one
        assert F.pow(a, -1) == F.inv(a)
        assert F.pow(a, -big) == schoolbook_pow(mul, F.one, F.inv(a), big)
        assert F.pow(a, F.q - 1) == F.one


@pytest.mark.parametrize("name", TABLED)
def test_tables_zero_cases(name):
    F = TABLED[name]()
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    with pytest.raises(ZeroDivisionError):
        F.pow(F.zero, -2)
    assert F.pow(F.zero, 0) == F.one
    assert F.pow(F.zero, 5) == F.zero


@pytest.mark.parametrize("name", TABLED)
def test_tables_pth_root_and_is_square_brute_force(name):
    F = TABLED[name]()
    _, _, mul = schoolbook_ops(F)
    elems = list(F.elements())
    pth_powers = {schoolbook_pow(mul, F.one, x, F.p): x for x in elems}
    squares = {mul(x, x) for x in elems}
    for a in elems:
        assert F.pth_root(a) == pth_powers[a]
        assert F.is_square(a) == (a in squares)


def test_above_cap_field_keeps_schoolbook():
    L = ext_field(7, [2, 0, 0, 0, 0, 0, 1])  # F_{7^6}
    assert L.q > TABLE_CAP
    add, sub, mul = schoolbook_ops(L)
    rng = random.Random(76)
    for _ in range(300):
        a, b = (L.element(rng.randrange(L.q)) for _ in range(2))
        assert L.mul(a, b) == mul(a, b)
        assert L.add(a, b) == add(a, b)
        assert L.sub(a, b) == sub(a, b)
        if a != L.zero:
            assert mul(a, L.inv(a)) == L.one
            assert L.pow(a, -3) == schoolbook_pow(mul, L.one, L.inv(a), 3)
    assert not L._log


def test_reducible_modulus_keeps_schoolbook():
    R = ExtensionField(PrimeField(7), (6, 0, 1))  # y^2 - 1 = (y - 1)(y + 1)
    add, sub, mul = schoolbook_ops(R)
    elems = list(R.elements())
    for a in elems:
        for b in elems:
            assert R.mul(a, b) == mul(a, b)
            assert R.add(a, b) == add(a, b)
            assert R.sub(a, b) == sub(a, b)
    assert not R._log
    with pytest.raises(ZeroDivisionError):
        R.inv((1, 1))  # y + 1 is a zero divisor


@pytest.mark.parametrize(
    "bad", [(1, 0, 0), (1,), (7, 0)], ids=["long", "short", "unreduced"]
)
def test_tables_reject_non_elements(bad):
    F = TABLED["F49"]()
    a = F.element(10)
    for op in (F.mul, F.add, F.sub):
        with pytest.raises(KeyError):
            op(bad, a)
        with pytest.raises(KeyError):
            op(a, bad)
    with pytest.raises(KeyError):
        F.inv(bad)
    with pytest.raises(KeyError):
        F.pow(bad, 3)
