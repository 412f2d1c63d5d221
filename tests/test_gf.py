from __future__ import annotations

import gc
import random
import weakref

import pytest

from drinfeld_orders import DomainError, Poly, PrimeField, make_extension_field, poly_gcd
from drinfeld_orders.gf import (
    MR_BOUND,
    TABLE_CAP,
    ExtensionField,
    Packing,
    inverse_mod,
    is_prime,
)

from oracles import (
    const_poly,
    field_elements,
    field_poly_divmod_oracle,
    field_poly_mul_oracle,
    int_poly,
    is_prime_oracle,
    log_tables_oracle,
    poly_gcd_oracle,
    poly_value,
    pow_mod_oracle,
    schoolbook_ops,
    schoolbook_pow,
)


def build_field(q):
    specs = {
        2: (2, None),
        3: (3, None),
        4: (2, [1, 1, 1]),
        5: (5, None),
        7: (7, None),
        9: (3, [1, 0, 1]),
        25: (5, [2, 0, 1]),
    }
    p, mod = specs[q]
    base = PrimeField(p)
    if mod is None:
        return base
    return make_extension_field(base, int_poly(base, mod))


FIELDS = [build_field(q) for q in (2, 3, 4, 5, 7, 9)]


def test_prime_field_rejects_composites():
    with pytest.raises(DomainError):
        PrimeField(6)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"q{F.q}")
def test_field_axioms_on_all_elements(F):
    elems = field_elements(F)
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
    for a in field_elements(F):
        assert F.pth_root(F.pow(a, F.p)) == a
        assert F.pow(F.pth_root(a), F.p) == a


def test_extension_modulus_must_be_irreducible():
    F3 = PrimeField(3)
    with pytest.raises(DomainError):
        make_extension_field(F3, int_poly(F3, [2, 0, 1]))  # T^2+2 = (T+1)(T+2)


MODULUS_SHAPE = "extension modulus must be monic of degree >= 1"


@pytest.mark.parametrize(
    "coeffs", [(2, 0, 2), (1, 3), (1,), (4,), ()], ids=["deg2", "deg1", "one", "unit", "zero"]
)
def test_modulus_shape_has_one_message(coeffs):
    # not monic, or of degree < 1: ExtensionField raises, and
    # make_extension_field reaches it before Ben-Or's test
    F5 = PrimeField(5)
    with pytest.raises(DomainError) as direct:
        ExtensionField(F5, coeffs)
    with pytest.raises(DomainError) as checked:
        make_extension_field(F5, Poly(F5, coeffs))
    assert str(direct.value) == str(checked.value) == MODULUS_SHAPE


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
    return make_extension_field(F, int_poly(F, modulus))


def tower_field(p, base_modulus, modulus):
    F = ext_field(p, base_modulus)
    return make_extension_field(F, Poly(F, modulus))


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
    elems = field_elements(F)
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
    for a in field_elements(F):
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
    elems = field_elements(F)
    pth_powers = {schoolbook_pow(mul, F.one, x, F.p): x for x in elems}
    for a in elems:
        assert F.pth_root(a) == pth_powers[a]


def f2401_tower():
    """L = F_2401[z]/(z^2 - w), w a non-square of F_2401 = F_7[y]/(y^4 + y + 2):
    a base above the table cap, so L's inverse runs FiniteField's loops."""
    F = ext_field(7, [2, 1, 0, 0, 1])
    half = (F.q - 1) // 2
    w = next(x for x in field_elements(F) if x != F.zero and F.pow(x, half) != F.one)
    return make_extension_field(F, Poly(F, (F.neg(w), F.zero, F.one)))


PACKED = {
    "p7e6": lambda: ext_field(7, [2, 0, 0, 0, 0, 0, 1]),
    "p5e9": lambda: ext_field(5, [1, 0, 0, 0, 4, 0, 0, 0, 0, 1]),
    "p2e11": lambda: ext_field(2, [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    "p3e7": lambda: ext_field(3, [1, 0, 2, 0, 0, 0, 0, 1]),
    "p1009e2": lambda: ext_field(1009, [1, 9, 1]),
    "p1031e1": lambda: ext_field(1031, [5, 1]),  # degree 1: no fold rows
    # towers: z^3 + y z + y over F_25 = F_5[y]/(y^2 + 2), and
    # z^2 + (1 + y) z + 1 over F_49 = F_7[y]/(y^2 + 1)
    "f25e3": lambda: tower_field(5, [2, 0, 1], [(0, 1), (0, 1), (0, 0), (1, 0)]),
    "f49e2": lambda: tower_field(7, [1, 0, 1], [(1, 0), (1, 1), (1, 0)]),
    "f2401e2": f2401_tower,
    # z + y + 3 over F_25: n = 1, so its only rows have i < n and j >= e
    "f25e1": lambda: tower_field(5, [2, 0, 1], [(3, 1), (1, 0)]),
}
# f25e1 is below the cap, so its products in L run on tables
ABOVE_CAP = [name for name in PACKED if name != "f25e1"]


@pytest.mark.parametrize("name", ABOVE_CAP)
def test_packed_fields_match_schoolbook(name):
    L = PACKED[name]()
    assert L.q > TABLE_CAP
    add, sub, mul = schoolbook_ops(L)
    top = L.element(L.q - 1)  # every digit p - 1: the widest packed digits
    rng = random.Random(L.q)
    pairs = [(top, top), (top, L.one), (L.zero, top)]
    pairs += [tuple(L.element(rng.randrange(L.q)) for _ in range(2)) for _ in range(300)]
    for a, b in pairs:
        assert L.mul(a, b) == mul(a, b)
        assert L.add(a, b) == add(a, b)
        assert L.sub(a, b) == sub(a, b)
        assert L.neg(a) == sub(L.zero, a)
        assert L.pow(a, 5) == schoolbook_pow(mul, L.one, a, 5)
        if a != L.zero:
            assert mul(a, L.inv(a)) == L.one
            assert L.pow(a, -3) == schoolbook_pow(mul, L.one, L.inv(a), 3)
    assert not L._log


def test_degree_one_tower_packed_product_matches_schoolbook():
    L = PACKED["f25e1"]()
    pk = Packing(L, 1)
    mul = schoolbook_ops(L)[2]
    elems = field_elements(L)
    for a in elems:
        for b in elems:
            assert pk.fold(pk.pack(a) * pk.pack(b)) == mul(a, b)


def test_reducible_modulus_runs_packed():
    # no element of order q - 1, so no tables: products run packed
    R = ExtensionField(PrimeField(7), (6, 0, 1))  # y^2 - 1 = (y - 1)(y + 1)
    add, sub, mul = schoolbook_ops(R)
    elems = field_elements(R)
    for a in elems:
        for b in elems:
            assert R.mul(a, b) == mul(a, b)
            assert R.add(a, b) == add(a, b)
            assert R.sub(a, b) == sub(a, b)
    assert not R._log
    with pytest.raises(ZeroDivisionError):
        R.inv((1, 1))  # y + 1 is a zero divisor


def f25_reducible():
    """F_25[z]/(z^2 - 1) = F_25 x F_25: no tables, so its inverse runs the
    extended Euclidean algorithm on F_25's log kernels."""
    F25 = TABLED["F25"]()
    return ExtensionField(F25, (F25.neg(F25.one), F25.zero, F25.one))


BASE_KERNEL_INVERSES = {"f2401e2": f2401_tower, "f25-reducible": f25_reducible}


@pytest.mark.parametrize("name", BASE_KERNEL_INVERSES)
def test_inverse_on_base_kernels_matches_schoolbook_pow(name):
    R = BASE_KERNEL_INVERSES[name]()
    assert not R._log
    assert bool(R.base._log) == (name == "f25-reducible")
    _, _, mul = schoolbook_ops(R)
    rng = random.Random(R.q)
    z = R.generator()
    samples = [R.one, z, R.add(z, R.one), R.sub(z, R.one), R.element(R.q - 1)]
    samples += [R.element(rng.randrange(1, R.q)) for _ in range(60)]
    units = 0
    for a in samples:
        # in F_25 x F_25 a unit's order divides 24, and 24 | q - 1
        want = schoolbook_pow(mul, R.one, a, R.q - 2)
        if mul(a, want) == R.one:
            units += 1
            assert R.inv(a) == want
        else:
            with pytest.raises(ZeroDivisionError):
                R.inv(a)
    assert units > 40
    if name == "f25-reducible":
        assert units < len(samples)  # z + 1 and z - 1 at least


# inverse_mod over every base of the tables above: prime, tabled, above the
# cap, and towers
INVERSE_BASES = {
    **{f"q{F.q}": (lambda F=F: F) for F in FIELDS},
    **TABLED,
    **PACKED,
    "F625/F25": f625_over_f25,
}


@pytest.mark.parametrize("name", INVERSE_BASES)
def test_inverse_mod_inverts_or_names_a_zero_divisor(name):
    B = INVERSE_BASES[name]()
    _, _, mul = schoolbook_ops(B)
    rng = random.Random(name)

    def coeffs(length):
        return tuple(B.element(rng.randrange(B.q)) for _ in range(length))

    def unit():
        return B.element(rng.randrange(1, B.q))

    cases = []
    for _ in range(20):
        f = coeffs(rng.randrange(1, 4)) + (B.one,)
        cases.append((coeffs(rng.randrange(1, len(f))), f))
    # f = g h and a = c g: a zero divisor; and a = 0, written two ways
    g, h = coeffs(1) + (B.one,), coeffs(rng.randrange(1, 3)) + (B.one,)
    f, c = tuple(field_poly_mul_oracle(B, g, h)), unit()
    cases += [(tuple(mul(c, x) for x in g), f), ((B.zero,) * 2, f), ((), f)]
    units = 0
    for a, f in cases:
        try:
            s = inverse_mod(B, a, f)
        except ZeroDivisionError as exc:
            assert not poly_gcd(Poly(B, a), Poly(B, f)).is_one
            zero = all(x == B.zero for x in a)
            want = "inverse of zero" if zero else f"{a} is a zero divisor (reducible modulus)"
            assert str(exc) == want
            continue
        assert len(s) == len(f) - 1
        prod = field_poly_mul_oracle(B, a, s)
        prod += [B.zero] * (len(f) - len(prod))
        assert field_poly_divmod_oracle(B, prod, f)[1] == [B.one] + [B.zero] * (len(f) - 2)
        units += 1
    assert units >= 10 and len(cases) - units >= 3  # the planted three at least


@pytest.mark.parametrize("name", TABLED)
def test_inverse_mod_matches_the_log_tables(name):
    L = TABLED[name]()
    for a in field_elements(L)[1:]:
        assert inverse_mod(L.base, a, L.modulus) == L.inv(a)


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


def test_packed_product_makes_no_prime_field_call(monkeypatch):
    L = PACKED["p7e6"]()
    calls = [0]
    real = PrimeField.mul

    def counted(field, a, b):
        calls[0] += 1
        return real(field, a, b)

    monkeypatch.setattr(PrimeField, "mul", counted)
    a, b = (1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)  # schoolbook: 36 calls and more
    assert L.mul(a, b) == schoolbook_ops(L)[2](a, b)
    assert calls[0] == 0


@pytest.mark.parametrize("terms", [1, 64])
@pytest.mark.parametrize("name", PACKED)
def test_reduce_matches_schoolbook_at_the_digit_bound(name, terms):
    # reduce folds the digits outside the basis back, then takes every digit
    # mod p in one step whose quotient is exact only up to the bound on a
    # basis digit; feed it every digit of a sum of `terms` products at its
    # largest, and basis digits at the bound itself with residues p-1, p-2, ...
    L = PACKED[name]()
    pk = Packing(L, terms)
    add, _, mul = schoolbook_ops(L)
    n, e, p, w = L.e, L.base.degree, L.p, pk.w
    span = 2 * e - 1
    outside = (2 * n - 1) * span - n * e
    bound = terms * n * e * (p - 1) ** 2 * (1 + outside * (p - 1))
    # y, or 0 over F_p, where no digit has j > 0
    z, y = L.generator(), L.embed(L.base.element(p % L.base.q))
    monomials = {}  # (i, j) -> z^i y^j
    for i in range(2 * n - 1):
        x = schoolbook_pow(mul, L.one, z, i)
        for j in range(span):
            monomials[i, j] = x
            x = mul(x, y)

    def check(values):
        c, want = 0, L.zero
        for (i, j), v in values.items():
            c += v << w * (span * i + j)
            want = add(want, mul(L.from_int(v), monomials[i, j]))
        assert pk.reduce(c) == pk.pack(want)
        assert pk.fold(c) == want
        return c, want

    check(dict.fromkeys(monomials, terms * n * e * (p - 1) ** 2))
    basis = [(i, j) for i in range(n) for j in range(e)]
    c, want = check({ij: bound - (bound + 1 + s) % p for s, ij in enumerate(basis)})
    assert pk.unpack(c) == want


# -- polynomial kernels on the log tables -----------------------------------------

LOG_KERNEL_FIELDS = {
    "F4": lambda: ext_field(2, [1, 1, 1]),
    "F8": lambda: ext_field(2, [1, 1, 0, 1]),
    "F9": TABLED["F9"],
    "F16": lambda: ext_field(2, [1, 1, 0, 0, 1]),
    "F25": TABLED["F25"],
    "F27": lambda: ext_field(3, [1, 2, 0, 1]),
    "F49": TABLED["F49"],
    "F1024": lambda: ext_field(2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),
    "F625/F25": f625_over_f25,
    # z^3 + y over F_4 = F_2[y]/(y^2 + y + 1): y is not a cube in F_4
    "F64/F4": lambda: tower_field(2, [1, 1, 1], [(0, 1), (0, 0), (0, 0), (1, 0)]),
}


def _log_kernel_operands(F, rng):
    """Pairs (a, b) of coefficient tuples, b with a nonzero last entry, that
    reach every branch of the kernels: inner zeros, constant factors and
    divisors, monic and non-monic divisors, equal lengths, and sums that
    cancel to zero."""

    def unit():
        return F.element(rng.randrange(1, F.q))

    def poly(length, density=1.0):
        body = [F.element(rng.randrange(F.q)) for _ in range(length - 1)]
        body = [x if rng.random() < density else F.zero for x in body]
        return tuple(body + [unit()])

    c = unit()
    x_plus_c = (c, F.one)
    x_minus_c = (F.neg(c), F.one)
    pairs = [
        (x_plus_c, x_minus_c),  # x^2 - c^2: the x term cancels
        ((F.zero, F.zero, c), (unit(),)),  # a constant factor, and divisor
        ((unit(),), poly(5)),
        ((unit(),), (unit(),)),
        (poly(6), (F.one,)),  # division by 1
        (poly(5), poly(5)),  # len(a) == len(b)
        (poly(7, 0.3), (c, F.zero, F.zero, unit())),  # inner zeros, non-monic
        (poly(9), poly(3)[:-1] + (F.one,)),  # monic divisor
    ]
    for _ in range(60):
        b = poly(rng.randrange(1, 6), rng.choice((0.3, 1.0)))
        a = poly(rng.randrange(len(b), 10), rng.choice((0.3, 1.0)))
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("name", LOG_KERNEL_FIELDS)
def test_log_kernels_match_schoolbook(name):
    F = LOG_KERNEL_FIELDS[name]()
    assert F.q <= TABLE_CAP and F._log
    rng = random.Random(F.q)
    for a, b in _log_kernel_operands(F, rng):
        for x, y in ((a, b), (b, a)):
            assert F.poly_mul(x, y) == field_poly_mul_oracle(F, x, y)
        if len(a) >= len(b):
            assert F.poly_divmod(a, b) == field_poly_divmod_oracle(F, a, b)
        # a multiple of b: every remainder coefficient cancels to zero
        ab = tuple(F.poly_mul(a, b))
        quo, rem = F.poly_divmod(ab, b)
        assert quo == list(a) and rem == [F.zero] * (len(b) - 1)


class FieldOpCalled(Exception):
    pass


def test_log_kernels_make_no_field_op_calls(monkeypatch):
    F = TABLED["F25"]()
    L = PACKED["p7e6"]()
    f = Poly(F, [F.element(i) for i in (3, 0, 17, 24, 1, 9)])
    g = Poly(F, [F.element(i) for i in (5, 12, 0, 7)])
    want_prod = field_poly_mul_oracle(F, f.coeffs, g.coeffs)
    want_quo, want_rem = field_poly_divmod_oracle(F, f.coeffs, g.coeffs)
    c = F.element(11)
    want_scaled = field_poly_mul_oracle(F, f.coeffs, (c,))
    u = Poly(L, [L.element(i) for i in (3, 40, 117_000)])
    ux = u * Poly.x(L)
    R = ExtensionField(PrimeField(7), (6, 0, 1))  # reducible: no tables
    v = Poly(R, [(1, 2), (3, 4)])
    assert F._log

    def forbidden(*args):
        raise FieldOpCalled

    for op in ("mul", "add", "sub"):
        monkeypatch.setattr(ExtensionField, op, forbidden)
    assert list((f * g).coeffs) == want_prod
    q, r = divmod(f, g)
    assert list(q.coeffs) == want_quo and list(r.coeffs) == want_rem
    assert list(f.scale(c).coeffs) == want_scaled
    # above the cap, and without tables, the generic loops of FiniteField run
    with pytest.raises(FieldOpCalled):
        u * u
    with pytest.raises(FieldOpCalled):
        v * v
    with pytest.raises(FieldOpCalled):
        divmod(ux, u)


# -- the chained kernels gcd and pow_mod, and the unit-root scan ------------------

CHAIN_FIELDS = {
    "F5": lambda: PrimeField(5),
    "F7": lambda: PrimeField(7),
    **{name: TABLED[name] for name in ("F9", "F25", "F49", "F125")},
    "p3e7": PACKED["p3e7"],  # above the cap
    "F625/F25": f625_over_f25,  # a tabled tower
    "reducible": lambda: ExtensionField(PrimeField(7), (6, 0, 1)),  # no tables
}


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raises: over a reducible
    modulus a remainder can have a zero divisor as its leading entry."""
    try:
        return fn(*args)
    except (ZeroDivisionError, DomainError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", CHAIN_FIELDS)
def test_chain_kernels_match_the_poly_oracles(name):
    F = CHAIN_FIELDS[name]()
    tableless = isinstance(F, ExtensionField) and not F._log
    assert tableless == (F.q > TABLE_CAP or name == "reducible")
    rng = random.Random(name)

    def poly(length, monic=False):
        coeffs = [F.element(rng.randrange(F.q)) for _ in range(length)]
        return Poly(F, coeffs + [F.one] if monic else coeffs)

    checked = 0
    for _ in range(25):
        h = poly(rng.randrange(0, 3), monic=rng.random() < 0.5)
        f, g = poly(rng.randrange(5)) * h, poly(rng.randrange(5)) * h
        for x, y in ((f, g), (g, f), (f, Poly.zero(F)), (Poly.zero(F), g)):
            got = _outcome(lambda: Poly(F, F.poly_gcd(x.coeffs, y.coeffs)))
            assert got == _outcome(poly_gcd_oracle, x, y)
        m = poly(rng.randrange(0, 5), monic=True)
        for n in (0, 1, 2, 5, F.q, F.q**2 - 1, 10**9 + 7):
            got = Poly(F, F.poly_pow_mod(f.coeffs, n, m.coeffs))
            assert got == pow_mod_oracle(f, n, m)
            checked += 1
        if not f.is_zero and not tableless:
            units = field_elements(F)[1:]
            want = any(poly_value(f, u) == F.zero for u in units)
            assert F.poly_has_unit_root(f.coeffs) == want
    assert checked == 175


@pytest.mark.parametrize("name", CHAIN_FIELDS)
def test_chain_kernel_edges(name):
    F = CHAIN_FIELDS[name]()
    rng = random.Random(name)
    c = F.element(rng.randrange(2, F.q))
    f = Poly(F, [F.element(rng.randrange(F.q)) for _ in range(3)] + [c])
    # gcd(f, 0) = gcd(0, f) = monic f; gcd(0, 0) has no answer
    assert F.poly_gcd(f.coeffs, ()) == F.poly_gcd((), f.coeffs) == list(f.monic().coeffs)
    assert F.poly_gcd(f.coeffs, (F.zero, F.zero)) == list(f.monic().coeffs)
    with pytest.raises(DomainError, match="gcd of two zero polynomials"):
        F.poly_gcd((), ())
    with pytest.raises(DomainError, match="gcd of two zero polynomials"):
        F.poly_gcd((F.zero,), ())
    # n = 0 gives 1 mod m; a constant operand, a constant modulus, zero
    m = Poly(F, (F.one, F.zero, F.one))
    assert Poly(F, F.poly_pow_mod(f.coeffs, 0, m.coeffs)).is_one
    assert Poly(F, F.poly_pow_mod((c,), 7, m.coeffs)) == const_poly(F, F.pow(c, 7))
    for n in (0, 1, 9):
        assert F.poly_pow_mod(f.coeffs, n, (c,)) == []  # everything is 0 mod a unit
    assert Poly(F, F.poly_pow_mod((), 3, m.coeffs)).is_zero
    assert Poly(F, F.poly_pow_mod((), 0, m.coeffs)).is_one
    # a constant has no roots, and x^k has none in F_q*; the scan has no
    # form for a field without tables
    if not (isinstance(F, ExtensionField) and not F._log):
        assert not F.poly_has_unit_root((c,))
        assert not F.poly_has_unit_root((F.zero, F.zero, F.one))


@pytest.mark.parametrize("name", [n for n in CHAIN_FIELDS if n not in ("p3e7", "reducible")])
def test_unit_root_scan_matches_poly_value(name):
    # the boolean scan against Horner through the field's add and mul at
    # every unit: on random polynomials, and on (x - u) h x^k for a rootless
    # quadratic h, so that u is the one root, for every unit u up to q = 49
    # (the log form stops at its first root, so each place in its order is
    # hit) and for 40 sampled ones above
    F = CHAIN_FIELDS[name]()
    rng = random.Random(f"scan/{name}")
    units = field_elements(F)[1:]
    x = Poly.x(F)

    def has_root(f):
        return any(poly_value(f, u) == F.zero for u in units)

    quadratics = (x * x + const_poly(F, c) * x + Poly.one(F) for c in units)
    h = next(g for g in quadratics if not has_root(g))
    polys = [
        Poly(F, [F.element(rng.randrange(F.q)) for _ in range(rng.randrange(6))] + [F.one])
        for _ in range(40)
    ]
    for u in units if F.q <= 49 else rng.sample(units, 40):
        f = (x - const_poly(F, u)) * h * x ** rng.randrange(3)
        polys.append(f.scale(rng.choice(units)))
    verdicts = [F.poly_has_unit_root(f.coeffs) for f in polys]
    assert verdicts == [has_root(f) for f in polys]
    assert all(verdicts[40:]) and not all(verdicts[:40])


@pytest.mark.parametrize(
    "name", ["F9", "F25", "F49", "F125", "F625/F25", "F64/F4", "F4", "F1024"]
)
def test_table_walk_matches_the_orbit_oracle(name):
    F = {**TABLED, **LOG_KERNEL_FIELDS}[name]()
    exp, zech, log = log_tables_oracle(F)
    assert F._log == log
    assert F._exp == exp and F._zech == zech
    assert F._log_neg_one == log[F.neg(F.one)]


def test_table_walk_of_a_reducible_modulus_is_empty():
    for R in (
        ExtensionField(PrimeField(7), (6, 0, 1)),  # (y - 1)(y + 1)
        ExtensionField(PrimeField(5), (0, 0, 1)),  # y^2: y is nilpotent
        f25_reducible(),  # over a tabled base
    ):
        assert log_tables_oracle(R) is None
        assert R._log == {}


@pytest.mark.parametrize("name", ["F7", "F25", "F625/F25"])
def test_chain_kernels_make_no_per_step_field_calls(name, monkeypatch):
    # pow_mod, gcd and the scan convert once and run on ints or logs: no
    # add, sub or mul of the field, and one inverse at most, for the gcd's
    # leading coefficient
    F = {"F7": lambda: PrimeField(7), **TABLED, **LOG_KERNEL_FIELDS}[name]()
    rng = random.Random(name)
    h = Poly(F, [F.element(rng.randrange(F.q)) for _ in range(2)] + [F.one])
    f = Poly(F, [F.element(rng.randrange(F.q)) for _ in range(4)]) * h
    g = Poly(F, [F.element(rng.randrange(1, F.q)) for _ in range(5)]) * h
    want = (poly_gcd_oracle(f, g), pow_mod_oracle(f, 10**6, g), f.derivative())
    want_root = any(poly_value(f, u) == F.zero for u in field_elements(F)[1:])
    cls = type(F)
    inverses = []
    real_inv = cls.inv

    def forbidden(*args):
        raise FieldOpCalled

    def counted_inv(field, a):
        inverses.append(a)
        return real_inv(field, a)

    for op in ("mul", "add", "sub"):
        monkeypatch.setattr(cls, op, forbidden)
    monkeypatch.setattr(cls, "inv", counted_inv)
    assert poly_gcd(f, g) == want[0] and len(inverses) <= 1
    assert f.pow_mod(10**6, g) == want[1]
    assert f.derivative() == want[2]
    assert F.poly_has_unit_root(f.coeffs) == want_root
    assert len(inverses) <= 1


@pytest.mark.parametrize("name", ["F7", "F25", "F625/F25", "p3e7", "reducible"])
def test_a_field_is_freed_by_reference_counting(name):
    # each config builds its own fields; the cached working form must not
    # point back at its field, or every dead field and its tables would wait
    # for the cycle collector
    F = CHAIN_FIELDS[name]()
    f = Poly(F, [F.element(i % F.q) for i in (3, 1, 4, 1)] + [F.one])
    g = f * Poly.x(F) + Poly.one(F)
    poly_gcd(f, g), f.pow_mod(5, g), divmod(g, f), f.derivative()
    if not (isinstance(F, ExtensionField) and not F._log):
        F.poly_has_unit_root(f.coeffs)
    ref = weakref.ref(F)
    gc.disable()
    try:
        del F, f, g
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["F7", "F25", "F625/F25", "p7e6", "f25e3"])
def test_vec_int_mul_is_repeated_addition(name):
    F = {"F7": lambda: PrimeField(7), **TABLED, **LOG_KERNEL_FIELDS, **PACKED}[name]()
    add = schoolbook_ops(F)[0]
    rng = random.Random(name)
    a = tuple(F.element(rng.randrange(F.q)) for _ in range(12))
    ns = list(range(12))
    want = []
    for n, x in zip(ns, a):
        acc = F.zero
        for _ in range(n):
            acc = add(acc, x)
        want.append(acc)
    assert F.vec_int_mul(a, ns) == tuple(want)


# -- primality ------------------------------------------------------------------


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if is_prime(n)] == [
        n for n in range(20_000) if is_prime_oracle(n)
    ]


def test_is_prime_large_cases():
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime_oracle(3215031751)
    # strong pseudoprime to every prime base up to 37: only base 41 exposes it
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(2**61 - 1) and is_prime(10**12 + 39)
    assert is_prime_oracle(10**12 + 39)
    assert not is_prime((2**31 - 1) * (10**12 + 39))
    assert is_prime(MR_BOUND - 1) is False  # even
    with pytest.raises(DomainError):
        is_prime(MR_BOUND)
    with pytest.raises(DomainError):
        PrimeField(2**127 - 1)
