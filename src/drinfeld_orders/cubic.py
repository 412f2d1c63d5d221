"""Invariants of the cubic function field attached to an isogeny class.

The isogeny class is described by a monic cubic M(x) = x^3 + a1*x^2 +
a2*x + mu*pv^m over A = F_q[T] whose constant term is a unit times a
power of the characteristic prime pv.  This module validates that data,
computes the height and residue splitting at v, produces the depressed
standard form x^3 + c1*x + c2, and from it the field discriminant, the
index of A[pi~] in the maximal order, and the integral-basis parameters
(alpha2, beta2) with

    omega2 = (alpha2 + beta2*pi~ + pi~^2) / I.

Characteristics 2 and 3 are rejected up front: the depressed-cubic
substitution divides by 3 and 27, and in characteristic 2 the polynomial
discriminant collapses to c2^2, invalidating the square-free discriminant
formula (quadratic ramification is wild there).

Validation is a necessary-conditions check.  Irreducibility over k and the
constant-term shape are decided exactly, and so is the requirement that a
single v-adic factor carries the zero of the Frobenius, except for one
undecided corner (supersingular shape with 3 | m and a perfect-cube
residual), which is accepted.  Callers should therefore report "necessary
conditions passed" rather than a full certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from typing import Tuple

from .errors import (
    BadConstantTermError,
    Char2UnsupportedError,
    Char3UnsupportedError,
    DomainError,
    InternalInconsistencyError,
    NoSolutionError,
    NotWeilAtVError,
    ReducibleError,
)
from .factor import (
    divisors,
    exact_sqrt,
    factor,
    is_irreducible,
    make_extension_field,
    reduce_mod,
    residue_factor,
    squarefree_decompose,
)
from .gf import FiniteField
from .poly import Poly, polys_below_degree, poly_crt, poly_gcd, valuation


@dataclass(frozen=True)
class WeilCubic:
    """Descriptor of the isogeny class: M(x) = x^3 + a1 x^2 + a2 x + mu*pv^m."""

    field: FiniteField
    a1: Poly
    a2: Poly
    mu: object
    pv: Poly
    m: int

    @property
    def a0(self) -> Poly:
        return (self.pv**self.m).scale(self.mu)

    def coefficients(self) -> Tuple[Poly, Poly, Poly, Poly]:
        """Ascending coefficients of M(x)."""
        return (self.a0, self.a2, self.a1, Poly.one(self.field))


@dataclass(frozen=True)
class LocalData:
    height: int
    etale_degree: int
    residue_pattern: tuple  # sorted ((factor degree, multiplicity), ...)
    supersingular: bool
    pv_divides_a2: bool


@dataclass(frozen=True)
class StandardForm:
    """Depressed data b1, b2 and the reduction to the standard c1, c2.

    g1 and g2 hold the square/cube content of b1 and b2; g = gcd(g1, g2).
    When b1 = 0 the content g1 is stored as the zero polynomial, which
    behaves correctly under gcd.  Invariant: c1 = b1/g^2 and c2 = b2/g^3
    exactly, and no prime divides c1 twice and c2 three times.
    """

    b1: Poly
    b2: Poly
    g1: Poly
    g2: Poly
    g: Poly
    c1: Poly
    c2: Poly

    @property
    def disc_m0(self) -> Poly:
        """Discriminant -4 c1^3 - 27 c2^2 of the standard form."""
        return (self.c1**3).scale_int(-4) + (self.c2 * self.c2).scale_int(-27)


@dataclass(frozen=True)
class MaximalOrderData:
    delta: Poly  # field discriminant, monic
    index: Poly  # monic I with I^2 * delta = disc_m0 up to a unit
    alpha2: Poly
    beta2: Poly
    disc_m0: Poly


def height(W: WeilCubic) -> int:
    """Sub-degree of M(x) mod pv: the smallest exponent whose coefficient
    survives reduction."""
    for k, c in enumerate(W.coefficients()):
        if not c.is_zero and not (c % W.pv).is_zero:
            return k
    raise InternalInconsistencyError("M(x) vanishes identically mod pv")


def _cubic_disc(W: WeilCubic) -> Poly:
    """Discriminant of the full cubic (with the quadratic term present)."""
    a1, a2, a0 = W.a1, W.a2, W.a0
    return (
        (a1 * a2 * a0).scale_int(18)
        - (a1**3 * a0).scale_int(4)
        + (a1 * a1) * (a2 * a2)
        - (a2**3).scale_int(4)
        - (a0 * a0).scale_int(27)
    )


def _check_irreducible_over_k(W: WeilCubic) -> None:
    """A monic cubic over A is reducible over k = F_q(T) iff it has a root
    in A, and any root divides the constant term."""
    F = W.field
    a0, a2, a1, one = W.coefficients()
    for d in divisors(W.a0):
        for i in range(1, F.q):
            u = F.element(i)
            r = d.scale(u)
            val = ((r + a1) * r + a2) * r + a0
            if val.is_zero:
                raise ReducibleError(
                    f"M(x) has the root {r.to_str()} in A"
                )


def _newton_segments(points):
    """Lower convex hull of (i, v) points; returns the list of vertices."""
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _check_unique_local_zero(W: WeilCubic, h: int) -> None:
    """Reject shapes where more than one v-adic factor of M has constant
    term divisible by pv.

    For h = 1 the condition always holds: the single positive-valuation
    root sits in its own factor and the remaining constant terms are
    units.  For h = 2 the two positive-valuation roots must be conjugate,
    which (characteristic not 2) holds iff disc(M) is a non-square in the
    completion, decided exactly.  For h = 3 the Newton polygon must be a
    single segment and the residual cubic must not split; a perfect-cube
    residual stays undecided at this level and is accepted.
    """
    if h == 1:
        return
    F = W.field
    pv = W.pv
    m = W.m
    R = make_extension_field(F, pv)
    v_a2 = None if W.a2.is_zero else valuation(W.a2, pv)
    v_a1 = None if W.a1.is_zero else valuation(W.a1, pv)

    if h == 2:
        d = _cubic_disc(W)
        v = valuation(d, pv)
        if v % 2:
            return
        u = reduce_mod(d.exact_div(pv**v), R)
        if R.is_square(u):
            raise NotWeilAtVError(
                "the quadratic v-adic factor above the zero of the "
                "Frobenius splits"
            )
        return

    # h == 3: supersingular shape, M must be irreducible over k_v
    points = [(0, m), (3, 0)]
    if v_a2 is not None:
        points.append((1, v_a2))
    if v_a1 is not None:
        points.append((2, v_a1))
    hull = _newton_segments(points)
    if len(hull) > 2:
        raise NotWeilAtVError("v-adic zeros with distinct valuations")
    if m % 3:
        return
    k = m // 3
    r2 = (
        reduce_mod(W.a1.exact_div(pv**k), R)
        if v_a1 is not None and v_a1 == k
        else R.zero
    )
    r1 = (
        reduce_mod(W.a2.exact_div(pv ** (2 * k)), R)
        if v_a2 is not None and v_a2 == 2 * k
        else R.zero
    )
    mubar = reduce_mod(W.a0.exact_div(pv**m), R)
    residual = Poly(R, (mubar, r1, r2, R.one))
    if len(factor(residual).factors) > 1:
        raise NotWeilAtVError("the supersingular residual polynomial splits")
    # an irreducible residual makes M irreducible over k_v; a perfect-cube
    # residual is undecided at this level and accepted


def validate_weil_necessary(W: WeilCubic) -> LocalData:
    """Check the necessary conditions for W to define an isogeny class and
    return the local data at v."""
    F = W.field
    if F.p == 3:
        raise Char3UnsupportedError("characteristic 3 is not supported")
    if F.p == 2:
        raise Char2UnsupportedError("characteristic 2 is not supported")
    if W.mu == F.zero:
        raise BadConstantTermError("mu must be a nonzero field element")
    if W.m < 1:
        raise BadConstantTermError("m must be a positive integer")
    if not W.pv.is_monic or W.pv.degree < 1 or not is_irreducible(W.pv):
        raise BadConstantTermError("pv must be monic irreducible of degree >= 1")
    _check_irreducible_over_k(W)
    h = height(W)
    if h < 1:
        raise NotWeilAtVError("constant term is not divisible by pv")
    _check_unique_local_zero(W, h)
    _, fac = residue_factor(list(W.coefficients()), W.pv)
    pattern = tuple(sorted((p.degree, mult) for p, mult in fac.factors))
    return LocalData(
        height=h,
        etale_degree=3 - h,
        residue_pattern=pattern,
        supersingular=(h == 3),
        pv_divides_a2=(h >= 2),
    )


def standard_form(W: WeilCubic) -> StandardForm:
    """Depress the cubic and strip square/cube content down to the standard
    x^3 + c1 x + c2."""
    F = W.field
    if F.p == 3:
        raise Char3UnsupportedError("characteristic 3 is not supported")
    if F.p == 2:
        raise Char2UnsupportedError("characteristic 2 is not supported")
    third = F.inv(F.from_int(3))
    two_over_27 = F.div(F.from_int(2), F.from_int(27))
    b1 = W.a2 - (W.a1 * W.a1).scale(third)
    b2 = (W.a1**3).scale(two_over_27) - (W.a1 * W.a2).scale(third) + W.a0
    if b2.is_zero:
        raise InternalInconsistencyError(
            "depressed cubic has zero constant term; M(x) is reducible"
        )
    if b1.is_zero:
        g1 = Poly.zero(F)
    else:
        g1 = Poly.one(F)
        for part, mult in squarefree_decompose(b1).parts:
            g1 = g1 * part ** (mult // 2)
    g2 = Poly.one(F)
    for part, mult in squarefree_decompose(b2).parts:
        g2 = g2 * part ** (mult // 3)
    g = poly_gcd(g1, g2)
    try:
        c1 = b1.exact_div(g * g) if not b1.is_zero else b1
        c2 = b2.exact_div(g**3)
    except DomainError as exc:
        raise InternalInconsistencyError(
            "square/cube content does not divide exactly"
        ) from exc
    _assert_standard(c1, c2)
    return StandardForm(b1=b1, b2=b2, g1=g1, g2=g2, g=g, c1=c1, c2=c2)


def _assert_standard(c1: Poly, c2: Poly) -> None:
    if c1.is_zero:
        for _, mult in squarefree_decompose(c2).parts:
            if mult >= 3:
                raise InternalInconsistencyError("standard form has cubic content")
        return
    common = poly_gcd(c1, c2)
    if common.degree < 1:
        return
    for prime, _ in factor(common).factors:
        if valuation(c1, prime) >= 2 and valuation(c2, prime) >= 3:
            raise InternalInconsistencyError("standard form has square/cube content")


def field_discriminant(sf: StandardForm) -> Poly:
    """Monic field discriminant from the square-free shape of disc_m0,
    cross-checked prime by prime against the valuation criterion
    (2 iff v(c1) >= v(c2) >= 1, 1 iff v(disc) odd, else 0)."""
    d0 = sf.disc_m0
    if d0.is_zero:
        raise InternalInconsistencyError("standard form is not separable")
    decomp = squarefree_decompose(d0)
    odd_part = Poly.one(d0.field)
    for part, mult in decomp.parts:
        if mult % 2:
            odd_part = odd_part * part
    d24 = decomp.part(2) * decomp.part(4)
    shared = poly_gcd(d24, sf.c2) if d24.degree >= 1 else Poly.one(d0.field)
    delta = (odd_part * shared * shared).monic()
    _check_valuation_criterion(sf, d0, delta)
    return delta


def _check_valuation_criterion(sf: StandardForm, d0: Poly, delta: Poly) -> None:
    for part, _ in squarefree_decompose(d0).parts:
        if part.degree < 1:
            continue
        for prime, _ in factor(part).factors:
            got = valuation(delta, prime) if delta.degree >= 1 else 0
            v_c1 = None if sf.c1.is_zero else valuation(sf.c1, prime)
            v_c2 = valuation(sf.c2, prime)
            if (v_c1 is None or v_c1 >= v_c2) and v_c2 >= 1:
                want = 2
            elif valuation(d0, prime) % 2:
                want = 1
            else:
                want = 0
            if got != want:
                raise InternalInconsistencyError(
                    f"field discriminant valuation mismatch at {prime.to_str()}:"
                    f" formula gives {got}, criterion demands {want}"
                )


def index(sf: StandardForm, delta: Poly) -> Poly:
    """Monic I with I^2 * delta = disc_m0 up to a unit."""
    d0 = sf.disc_m0
    try:
        quotient = d0.monic().exact_div(delta)
    except DomainError as exc:
        raise InternalInconsistencyError(
            "field discriminant does not divide disc_m0"
        ) from exc
    root = exact_sqrt(quotient)
    if root is None:
        raise InternalInconsistencyError("disc_m0 / delta is not a perfect square")
    return root


def _beta_candidates_mod_prime_power(sf: StandardForm, prime: Poly, k: int):
    """Solutions beta mod prime^(2k) of M0(beta) = 0 mod prime^(2k) and
    M0'(beta) = 0 mod prime^k, by digit-wise lifting."""
    F = sf.c1.field
    c1, c2 = sf.c1, sf.c2

    def m0(b: Poly) -> Poly:
        return b**3 + c1 * b + c2

    def m0p(b: Poly) -> Poly:
        return (b * b).scale_int(3) + c1

    digits = list(polys_below_degree(F, prime.degree))
    level = [Poly.zero(F)]
    step = Poly.one(F)  # prime^j while filtering mod prime^(j+1)
    mod = prime
    for _ in range(2 * k):
        level = [
            cand + d * step
            for cand in level
            for d in digits
            if (m0(cand + d * step) % mod).is_zero
        ]
        step = mod
        mod = mod * prime
    pk = prime**k
    return [b for b in level if (m0p(b) % pk).is_zero]


def integral_basis(sf: StandardForm, I: Poly) -> Tuple[Poly, Poly]:
    """Solve the congruence system for (alpha2, beta2):

        3 beta2^2 + c1          = 0 mod I
        beta2^3 + c1 beta2 + c2 = 0 mod I^2
        alpha2 = -2 beta2^2       mod I

    with deg beta2 < deg I^2 and deg alpha2 < deg I.  For each prime power
    P^k exactly dividing I, the solutions mod P^(2k) are found by lifting
    digit by digit in base P, keeping every residue whose truncations are
    roots; the solutions mod I^2 are their CRT combinations.  Among all of
    them the canonically smallest beta2 is returned.
    """
    F = sf.c1.field
    if I.degree == 0:
        return Poly.zero(F), Poly.zero(F)
    I2 = I * I
    c1, c2 = sf.c1, sf.c2
    per_prime = []
    for prime, k in factor(I).factors:
        cands = _beta_candidates_mod_prime_power(sf, prime, k)
        if not cands:
            raise NoSolutionError(
                "no integral-basis parameter exists locally; the index "
                "is inconsistent with the standard form"
            )
        per_prime.append([(b, prime ** (2 * k)) for b in cands])
    solutions = []
    for combo in _iterproduct(*per_prime):
        beta, _ = poly_crt(list(combo))
        if not ((beta * beta).scale_int(3) + c1) % I and not (
            beta**3 + c1 * beta + c2
        ) % I2:
            solutions.append(beta % I2)
    if not solutions:
        raise NoSolutionError(
            "the integral-basis congruences have no solution; upstream data "
            "is inconsistent"
        )
    beta2 = min(solutions, key=lambda b: b.sort_key())
    alpha2 = ((beta2 * beta2).scale_int(-2)) % I
    two_thirds = F.div(F.from_int(2), F.from_int(3))
    if not ((alpha2 - sf.c1.scale(two_thirds)) % I).is_zero:
        raise InternalInconsistencyError("alpha2 is not congruent to 2*c1/3 mod I")
    return alpha2, beta2


def maximal_order_data(sf: StandardForm) -> MaximalOrderData:
    """Run discriminant, index and integral basis in one step."""
    delta = field_discriminant(sf)
    idx = index(sf, delta)
    alpha2, beta2 = integral_basis(sf, idx)
    return MaximalOrderData(
        delta=delta,
        index=idx,
        alpha2=alpha2,
        beta2=beta2,
        disc_m0=sf.disc_m0,
    )
