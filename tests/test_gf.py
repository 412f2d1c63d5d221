from __future__ import annotations

import random

import pytest

from drinfeld_orders import DomainError, Poly, PrimeField, make_extension_field


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
