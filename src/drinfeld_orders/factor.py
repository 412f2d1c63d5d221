"""Factorisation machinery over finite fields.

Square-free decomposition first strips the power x^k dividing f, which
joins the part of multiplicity k, then runs Yun's loop on the cofactor.
It is characteristic-p aware: when the derivative vanishes the polynomial
is a p-th power and the algorithm recurses on the exact p-th root, taken
coefficient-wise through the inverse Frobenius.
Full factorisation splits each square-free part by distinct-degree
splitting followed by equal-degree splitting (``squarefree_factors``, which
a caller holding a square-free part calls directly, with no second Yun
pass); the equal-degree stage draws its random elements from a PRNG
seeded with a fixed constant, so output is reproducible run to run.

The irreducibility test ``is_irreducible`` is the one test for pv, the
modulus of F_q (``make_extension_field``) and the residual cubic at
infinity (``cubic``).  In degree 2 and 3 a polynomial is reducible iff it
has a root in F_q, so up to ``ROOT_SCAN_MAX`` it is one scan of the units
(``gf``'s ``poly_has_unit_root``) after a look at f(0).  Otherwise it is
Ben-Or's test: the same distinct-degree ladder, which stops at half the
degree, and f is irreducible when it comes back whole (Ben-Or, FOCS 1981;
Gao and Panario, 1997).  The modulus of the modules' field L is tested by
Rabin's criterion on the Frobenius that its skew ring builds anyway
(``skew.SkewRing.is_field``).

Both ladders run on ``Poly.pow_mod`` and ``poly_gcd``, one ``gf`` kernel
call each.  ``squarefree_decompose`` and ``factor`` return bare
((P, k), ...) pairs with f = lc(f) * prod P^k, the shape of every factor
list in the package, which ``divisors`` takes too.
"""

from __future__ import annotations

import random
from itertools import product

from .errors import DomainError
from .gf import ExtensionField, FiniteField
from .poly import Poly, poly_gcd

_SPLIT_SEED = 0x5EED

# Up to this q, ``is_irreducible`` scans the units in degree 2 and 3.  Per
# random polynomial, scan against Ben-Or, in degree 2 and then 3 (2-vCPU
# Xeon, Python 3.11): F_13 3.6 and 4.7 against 31 and 36 us, F_125 21 and
# 29 against 54 and 70, F_251 38 and 55 against 52 and 75; over F_289 and
# F_343 the two are level within the noise in both degrees.
ROOT_SCAN_MAX = 256


def _pth_root(f: Poly) -> Poly:
    """Exact p-th root of a polynomial with vanishing derivative."""
    F = f.field
    p = F.p
    coeffs = []
    for i in range(0, f.degree + 1, p):
        coeffs.append(F.pth_root(f.coeff(i)))
    return Poly(F, coeffs)


def _squarefree_monic(f: Poly) -> dict:
    """Multiplicity -> monic square-free part, for monic f of degree >= 1."""
    F = f.field
    p = F.p
    out: dict[int, Poly] = {}
    deriv = f.derivative()
    if deriv.is_zero:
        for mult, part in _squarefree_monic(_pth_root(f)).items():
            out[mult * p] = part
        return out
    c = poly_gcd(f, deriv)
    w = f.exact_div(c)
    i = 1
    while not w.is_one:
        y = poly_gcd(w, c)
        part = w.exact_div(y)
        if not part.is_one:
            out[i] = part
        w = y
        c = c.exact_div(y)
        i += 1
    if not c.is_one:
        # leftover multiplicities divisible by p
        for mult, part in _squarefree_monic(_pth_root(c)).items():
            out[mult * p] = out[mult * p] * part if mult * p in out else part
    return out


def _split_x_power(f: Poly):
    """(k, f / x^k) for the largest k with x^k | f, f nonzero."""
    F = f.field
    k = next(k for k, c in enumerate(f.coeffs) if c != F.zero)
    return k, Poly(F, f.coeffs[k:])


def squarefree_decompose(f: Poly) -> tuple:
    """The parts are monic, square-free and pairwise coprime, listed by
    increasing multiplicity.  The x^k dividing f is stripped first: x is
    prime and coprime to the cofactor, so it joins the part of multiplicity
    k, and Yun's loop runs on the cofactor alone rather than once per power
    of x."""
    if f.is_zero:
        raise DomainError("square-free decomposition of zero")
    k, rest = _split_x_power(f.monic())
    parts = _squarefree_monic(rest) if rest.degree > 0 else {}
    if k:
        x = Poly.x(f.field)
        parts[k] = parts[k] * x if k in parts else x
    return tuple((parts[m], m) for m in sorted(parts))


def _distinct_degree(f: Poly):
    """Split monic square-free f into (product-of-degree-d-factors, d) pieces.

    ``is_irreducible`` passes it any f of degree >= 2 and reads only whether
    f comes back whole, as [(f, deg f)]."""
    F = f.field
    q = F.q
    x = Poly.x(F)
    out = []
    g = f
    h = x % g
    d = 0
    while g.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(q, g)
        c = poly_gcd(h - x, g)
        if c.degree > 0:
            out.append((c, d))
            g = g.exact_div(c)
            h = h % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def _random_poly(field: FiniteField, max_deg: int, rng: random.Random) -> Poly:
    return Poly(field, (field.element(rng.randrange(field.q)) for _ in range(max_deg + 1)))


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list:
    """Split monic f, a product of distinct irreducibles of degree d."""
    if f.degree == d:
        return [f]
    F = f.field
    q = F.q
    while True:
        a = _random_poly(F, f.degree - 1, rng)
        if a.degree < 1:
            continue
        c = poly_gcd(a, f)
        if 0 < c.degree < f.degree:
            break
        if F.p == 2:
            # trace map onto GF(2): a + a^2 + a^4 + ... has gcd splits
            s = F.degree * d
            t = a
            b = a
            for _ in range(s - 1):
                t = t.pow_mod(2, f)
                b = b + t
            if b.is_zero:
                continue
            c = poly_gcd(b, f)
        else:
            b = a.pow_mod((q**d - 1) // 2, f) - Poly.one(F)
            if b.is_zero:
                continue
            c = poly_gcd(b, f)
        if 0 < c.degree < f.degree:
            break
    return _equal_degree(c, d, rng) + _equal_degree(f.exact_div(c), d, rng)


def squarefree_factors(f: Poly) -> list:
    """The monic irreducible factors of a monic square-free f of degree
    >= 1, in the order the splitting finds them.  The PRNG is seeded only
    when a piece holds two or more primes, as only then does the
    equal-degree stage draw."""
    pieces = _distinct_degree(f)
    rng = random.Random(_SPLIT_SEED) if any(g.degree > d for g, d in pieces) else None
    return [prime for piece, d in pieces for prime in _equal_degree(piece, d, rng)]


def factor(f: Poly) -> tuple:
    """Complete factorisation into monic irreducibles, in canonical order."""
    if f.is_zero:
        raise DomainError("factorisation of zero")
    # the parts are pairwise coprime, so each prime comes from one part
    found = [
        (prime, mult)
        for part, mult in squarefree_decompose(f)
        for prime in squarefree_factors(part)
    ]
    return tuple(sorted(found, key=lambda t: t[0].sort_key()))


def is_irreducible(f: Poly) -> bool:
    """For deg f in {2, 3} and q <= ROOT_SCAN_MAX: f(0) != 0 and no unit
    is a root, as a reducible f then has a linear factor.  Otherwise
    Ben-Or's test: the distinct-degree ladder, which stops at deg f / 2,
    finds no factor.  A reducible f has an irreducible factor P with
    deg P <= deg f / 2, repeated or not, and the gcd with x^(q^deg P) - x
    picks it up, so no square-free step is needed."""
    n, F = f.degree, f.field
    if n <= 1:
        return n == 1
    if n <= 3 and F.q <= ROOT_SCAN_MAX:
        return f.coeffs[0] != F.zero and not F.poly_has_unit_root(f.coeffs)
    return _distinct_degree(f) == [(f, n)]


def divisors(field: FiniteField, factors) -> list:
    """All monic divisors of prod P^k over factors ((P, k), ...), sorted
    canonically; the primes must be distinct."""
    out = []
    choices = [range(k + 1) for _, k in factors]
    for exponents in product(*choices):
        d = Poly.one(field)
        for (p, _), e in zip(factors, exponents):
            d = d * p**e
        out.append(d)
    out.sort(key=lambda t: t.sort_key())
    return out


def make_extension_field(base: FiniteField, modulus: Poly) -> ExtensionField:
    """Extension of base by a monic irreducible modulus: ExtensionField
    checks its shape, then Ben-Or's test its irreducibility."""
    F = ExtensionField(base, modulus.coeffs)
    if not is_irreducible(modulus):
        raise DomainError("extension modulus is reducible")
    return F

