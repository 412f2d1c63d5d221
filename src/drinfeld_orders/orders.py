"""Suborders of the maximal order in Hermite normal form, and the
enumeration of those occurring as endomorphism rings.

A suborder is encoded by a triple (a, b, c) of polynomials with a, c monic
and deg b < deg a, standing for the lattice

    O = A + A*(c*omega1 + b*omega2) + A*(a*omega2)

over the integral basis (1, omega1, omega2) of the maximal order.  As
x0 + x1*omega1 + x2*omega2 lies in O iff c | x1 and a | x2 - (x1/c)*b,
O is a ring iff its generators' squares and product pass that test.  An
order is an endomorphism ring exactly when it stays maximal above v
(when pv divides a2, gcd(pv, a*c) = 1), contains the Frobenius, and is a
ring.  The first two hold by construction of the enumerated triples, so
closure is the only test run per proper triple.  The maximal order
(1, 0, 1) passes it whatever the table says, since a = c = 1 divides
everything, so it is accepted without one, and the multiplication table
is built only for a class with a proper triple to test.

The full sandwich between A[pi] and the maximal order has c running over
divisors of g, a over divisors of g^2*I (the a-entry of A[pi] itself),
both built once per class from the stored primes of g and I, and b over
the multiples of a/gcd(a, g/c) below deg a, which is exactly the
Frobenius-containment condition a | b*(g/c).  Its size is the candidate
count checked against the candidate bound, a product over the primes of
g^2*I.  When pv divides a2, v-maximality acts on the divisors (pv is
irreducible): pv is dropped from the primes of g and g^2*I before their
divisors are expanded, so only a and c that pv does not divide are built,
while the count stays that of the full sandwich.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Optional, Tuple

from .cubic import (
    LocalData,
    MaximalOrderData,
    StandardForm,
    WeilCubic,
    maximal_order_data,
    standard_form,
    validate_weil_necessary,
)
from .errors import (
    CandidateBoundExceededError,
    DomainError,
    InternalInconsistencyError,
)
from .factor import divisors
from .poly import Poly, poly_gcd, polys_below_degree

DEFAULT_CANDIDATE_BOUND = 10**6


class OrderHNF(NamedTuple):
    """O = A + A*(c*omega1 + b*omega2) + A*(a*omega2)."""

    a: Poly
    b: Poly
    c: Poly

    def sort_key(self):
        conductor_degree = self.a.degree + self.c.degree
        return (conductor_degree, self.a.sort_key(), self.c.sort_key(), self.b.sort_key())

    def __repr__(self):
        return f"OrderHNF(a={self.a.to_str()}, b={self.b.to_str()}, c={self.c.to_str()})"


class OrderReport(NamedTuple):
    order: OrderHNF
    disc: Poly
    conductor_norm: Poly
    is_endo_ring: bool


def mult_table(sf: StandardForm, mo: MaximalOrderData) -> tuple:
    """The nine structure constants of the integral basis: rows express
    (omega1^2, omega2^2, omega1*omega2) over (1, omega1, omega2).

    Every exact division follows from the two congruences that
    ``integral_basis`` checks, 3*beta^2 + c1 = 0 mod I and
    beta^3 + c1*beta + c2 = 0 mod I^2, with alpha = -2*beta^2 + k*I
    (alpha = alpha2, beta = beta2): x22's numerator is
    -(beta^3 + c1*beta + c2), and x21's is
    -2*beta*(beta^3 + c1*beta + c2) + k*I*(c1 + 3*beta^2) - k^2*I^2.
    So a division that is not exact means (alpha2, beta2) do not satisfy
    their congruences, and it is reported as an internal inconsistency.
    """
    c1, c2 = sf.c1, sf.c2
    I, a2, b2 = mo.index, mo.alpha2, mo.beta2
    I2 = I * I
    try:
        x11 = -a2
        x12 = -b2
        x13 = I
        x21 = (a2 * c1 - a2 * a2 - a2 * (b2 * b2) - (b2 * c2).scale_int(2)).exact_div(I2)
        x22 = (-(b2**3) - c1 * b2 - c2).exact_div(I2)
        x23 = (b2 * b2 - c1 + a2.scale_int(2)).exact_div(I)
        x31 = (-(a2 * b2) - c2).exact_div(I)
        x32 = (-(b2 * b2) - c1 + a2).exact_div(I)
        x33 = b2
    except DomainError as exc:
        raise InternalInconsistencyError(
            "multiplication table entries are not integral; integral-basis "
            "parameters are invalid"
        ) from exc
    return ((x11, x12, x13), (x21, x22, x23), (x31, x32, x33))


def closure_check(order: OrderHNF, m2: tuple) -> bool:
    """True iff theta1^2, theta2^2 and theta1*theta2 lie in O, theta1 =
    c*omega1 + b*omega2 and theta2 = a*omega2.  Over (omega1^2, omega2^2,
    omega1*omega2) they are (c^2, b^2, 2bc), (0, a^2, 0) and (0, ab, ac);
    only the omega1 and omega2 columns of m2 enter the membership test."""
    a, b, c = order.a, order.b, order.c
    (_, s1, s2), (_, t1, t2), (_, u1, u2) = m2

    def contains(x1, x2):
        y1, r = divmod(x1, c)
        return not r and a.divides(x2 - y1 * b)

    aa, ab, ac, cc, bb, bc2 = a * a, a * b, a * c, c * c, b * b, (b * c).scale_int(2)
    return (
        contains(aa * t1, aa * t2)
        and contains(ab * t1 + ac * u1, ab * t2 + ac * u2)
        and contains(cc * s1 + bb * t1 + bc2 * u1, cc * s2 + bb * t2 + bc2 * u2)
    )


def order_disc(order: OrderHNF, delta: Poly) -> Tuple[Poly, Poly]:
    """(disc, conductor norm) = ((a*c)^2 * delta, (a*c)^2), monic."""
    n = order.a * order.c
    conductor_norm = n * n
    return (conductor_norm * delta, conductor_norm)


class ClassAnalysis(NamedTuple):
    """Everything the pipeline derives from one isogeny-class descriptor."""

    weil: WeilCubic
    local: LocalData
    sf: StandardForm
    mo: MaximalOrderData
    candidate_count: int  # size of the full sandwich A[pi] <= O <= O_max
    orders: tuple  # OrderReport of each accepted order, canonical order


def _sandwich_exponents(sf: StandardForm, mo: MaximalOrderData) -> dict:
    """P -> (v_P(g), v_P(g^2*I)) over the primes of g and I."""
    exps = {prime: (k, 2 * k) for prime, k in sf.g_factors}
    for prime, k in mo.index_factors:
        k_g, k_a = exps.get(prime, (0, 0))
        exps[prime] = (k_g, k_a + k)
    return exps


def _candidate_count(sf: StandardForm, mo: MaximalOrderData) -> int:
    """Size of the full sandwich, the sum over c | g and a | g^2*I of
    q^deg gcd(a, g/c): a product over P of the sums over i <= kg = v_P(g)
    and j <= ka = v_P(g^2*I) of q^(deg P * min(j, kg - i))."""
    q = sf.c1.field.q
    return prod(
        sum(q ** (P.degree * min(j, kg - i)) for i in range(kg + 1) for j in range(ka + 1))
        for P, (kg, ka) in _sandwich_exponents(sf, mo).items()
    )


def enumerate_candidates(
    sf: StandardForm, mo: MaximalOrderData, prime_to: Optional[Poly] = None
) -> list:
    """Every admissible (a, b, c) triple over the divisors c | g and
    a | g^2*I, canonically ordered: the whole sandwich A[pi] <= O <= O_max.
    The divisors are built from the stored primes of g and I; nothing is
    factored.  A monic irreducible ``prime_to`` divides such a divisor iff
    it is one of those primes, so dropping it from both prime lists builds
    exactly the c and a it does not divide: with prime_to = pv, the part of
    the sandwich maximal above v.  b is constrained by deg b < deg a
    together with a | b*(g/c), so every triple contains the Frobenius.
    """
    F = sf.c1.field
    g = sf.g
    exps = _sandwich_exponents(sf, mo).items()
    cs = divisors(F, [(P, k) for P, k in sf.g_factors if P != prime_to])
    as_ = divisors(F, [(P, k_a) for P, (_, k_a) in exps if P != prime_to])
    triples = []
    for c in cs:
        t = g.exact_div(c)
        for a in as_:
            base = a.exact_div(poly_gcd(a, t))
            free = a.degree - base.degree
            for u in polys_below_degree(F, free):
                triples.append(OrderHNF(a=a, b=u * base, c=c))
    triples.sort(key=lambda o: o.sort_key())
    return triples


def assess_order(
    order: OrderHNF, mo: MaximalOrderData, m2: tuple
) -> Optional[OrderReport]:
    """The report of an enumerated triple that is a ring; None otherwise."""
    if not closure_check(order, m2):
        return None
    disc, conductor_norm = order_disc(order, mo.delta)
    return OrderReport(
        order=order, disc=disc, conductor_norm=conductor_norm, is_endo_ring=True
    )


def analyze_weil_class(
    W: WeilCubic,
    candidate_bound: int = DEFAULT_CANDIDATE_BOUND,
) -> ClassAnalysis:
    """Validate, build the maximal-order data, check the candidate count
    against the bound, and enumerate endomorphism rings for one isogeny
    class.  The first triple enumerated is the maximal order, accepted
    without a closure test; the multiplication table is built, and closure
    tested, only for the proper triples that follow it."""
    local = validate_weil_necessary(W)
    sf = standard_form(W)
    mo = maximal_order_data(sf)
    total = _candidate_count(sf, mo)
    if total > candidate_bound:
        raise CandidateBoundExceededError(
            f"candidate space has {total} triples, above the bound {candidate_bound}"
        )
    prime_to = W.pv if local.pv_divides_a2 else None
    o_max, *proper = enumerate_candidates(sf, mo, prime_to)
    one = Poly.one(W.field)
    if o_max != OrderHNF(a=one, b=Poly.zero(W.field), c=one):
        raise InternalInconsistencyError("the maximal order was not accepted")
    disc, conductor_norm = order_disc(o_max, mo.delta)
    accepted = [OrderReport(o_max, disc, conductor_norm, is_endo_ring=True)]
    if proper:
        m2 = mult_table(sf, mo)
        reports = (assess_order(o, mo, m2) for o in proper)
        accepted += [r for r in reports if r is not None]
    return ClassAnalysis(
        weil=W,
        local=local,
        sf=sf,
        mo=mo,
        candidate_count=total,
        orders=tuple(accepted),
    )
