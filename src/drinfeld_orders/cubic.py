"""Invariants of the cubic function field attached to an isogeny class.

The isogeny class is described by a monic cubic M(x) = x^3 + a1*x^2 +
a2*x + mu*pv^m over A = F_q[T] whose constant term is a unit times a
power of the characteristic prime pv.  This module validates that data,
computes the height h and residue splitting at v, produces the depressed
standard form x^3 + c1*x + c2, and from it the maximal-order data.

The place infinity is checked first: every root of M has degree n/3, n =
m deg pv, which bounds deg a1 and deg a2, and when 3 | n the residual
cubic at infinity over F_q must not split.  The height, the Newton polygon
at v and the residue splitting, read from M = x^h * R(x) mod pv, are then
closed forms; only the quadratic R of height 1 needs a square test, by
Euler's criterion mod pv in A itself.  Given the bounds, a supersingular
shape with 3 | m is M(x) = pv^m r(x / pv^k) for the residual r at
infinity, so no residue field is built.  The standard form factors only
the repeated part of disc(M) = g^6 disc(M0), the only factorisations of
the class, and reads off the primes of the content g and of the repeated
part of disc(M0); a prime dividing disc(M) once divides Delta once and
neither g nor I, so the part of multiplicity 1 is kept whole.
For each prime P of disc(M0) the valuation criterion fixes v_P(Delta) in
{0, 1, 2}, the index I has v_P(I) = (v_P(disc(M0)) - v_P(Delta)) / 2, and
the integral-basis parameters (alpha2, beta2) with

    omega2 = (alpha2 + beta2*pi~ + pi~^2) / I

come in closed form from the identity 3 M0(x) - x M0'(x) = 2 c1 x + 3 c2.

Characteristics 2 and 3 are rejected up front: the depressed-cubic
substitution divides by 3 and 27, and in characteristic 2 the polynomial
discriminant collapses to c2^2, invalidating the valuation criterion
(quadratic ramification is wild there).

Validation is a necessary-conditions check.  Irreducibility over k and the
constant-term shape are decided exactly: given the bounds, the one
candidate root of M in A is -a pv^(m/3) for a residual (x + a)^3 at
infinity, where the test at infinity evaluates M.  So is the requirement
that a single v-adic factor carries the zero of the Frobenius.  One corner
stays undecided at infinity (h <= 2, a cube residual there and no root in
A) and is accepted.  Callers should therefore report "necessary
conditions passed" rather than a full certification.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Tuple

from .errors import (
    BadConstantTermError,
    Char2UnsupportedError,
    Char3UnsupportedError,
    DomainError,
    InternalInconsistencyError,
    NoSolutionError,
    NotWeilAtVError,
    ReducibleError,
    WeilValidationError,
)
from .factor import is_irreducible, squarefree_decompose, squarefree_factors

# not called here any more; bench/tests/test_bench.py checks that the tracer
# rewraps this binding, so it stays until that test names another one
from .factor import divisors  # noqa: F401
from .gf import FiniteField, inverse_mod
from .poly import Poly, poly_gcd, valuation


class _WeilFields(NamedTuple):
    field: FiniteField
    a1: Poly
    a2: Poly
    mu: object
    pv: Poly
    m: int


# a subclass: cached_property needs the instance dict a NamedTuple lacks
class WeilCubic(_WeilFields):
    """Descriptor of the isogeny class: M(x) = x^3 + a1 x^2 + a2 x + mu*pv^m."""

    @cached_property
    def a0(self) -> Poly:
        return (self.pv**self.m).scale(self.mu)

    @cached_property
    def depressed(self) -> Tuple[Poly, Poly, Poly]:
        """(t, b1, b2) with t = a1/3 and M(x - t) = x^3 + b1 x + b2, that is
        b1 = a2 - 3t^2 and b2 = 2t^3 - t a2 + a0; needs p != 3."""
        t = self.a1.scale(self.field.inv(self.field.from_int(3)))
        b1 = self.a2 - (t * t).scale_int(3)
        b2 = (t**3).scale_int(2) - t * self.a2 + self.a0
        return t, b1, b2

    @cached_property
    def disc(self) -> Poly:
        """disc(M), that of the depressed cubic x^3 + b1 x + b2."""
        return _depressed_disc(*self.depressed[1:])

    def coefficients(self) -> Tuple[Poly, Poly, Poly, Poly]:
        """Ascending coefficients of M(x)."""
        return (self.a0, self.a2, self.a1, Poly.one(self.field))


class LocalData(NamedTuple):
    height: int
    residue_pattern: tuple  # sorted ((factor degree, multiplicity), ...)

    @property
    def etale_degree(self) -> int:
        return 3 - self.height

    @property
    def supersingular(self) -> bool:
        return self.height == 3

    @property
    def pv_divides_a2(self) -> bool:
        return self.height >= 2


def _depressed_disc(e1: Poly, e2: Poly) -> Poly:
    """Discriminant -4 e1^3 - 27 e2^2 of x^3 + e1 x + e2."""
    return (e1**3).scale_int(-4) + (e2 * e2).scale_int(-27)


class StandardForm(NamedTuple):
    """The shift t = a1/3, the depressed data b1, b2 with M(x - t) =
    x^3 + b1 x + b2, and the reduction to the standard c1, c2.

    g is the square/cube content: the largest monic g with g^2 | b1 and
    g^3 | b2.  g_factors is the factorisation ((P, k), ...) of g in
    canonical order, and disc_m0_factors holds monic, pairwise coprime
    (P, k) with disc(M0) = unit * prod P^k; both are read off the repeated
    part of disc(M) = g^6 disc(M0).  An entry with k >= 2 is a prime; an
    entry with k = 1 may be a product of primes, each dividing disc(M0)
    exactly once.  Invariants: c1 = b1/g^2 and c2 = b2/g^3 exactly, and
    disc_m0 = -4 c1^3 - 27 c2^2 = disc(M)/g^6, so for g = 1 it is disc(M)
    itself.
    """

    t: Poly
    b1: Poly
    b2: Poly
    g: Poly
    c1: Poly
    c2: Poly
    g_factors: tuple
    disc_m0_factors: tuple
    disc_m0: Poly


class MaximalOrderData(NamedTuple):
    delta: Poly  # field discriminant, monic
    index: Poly  # monic I with I^2 * delta = disc_m0 up to a unit
    index_factors: tuple  # ((P, k), ...): I = prod P^k, canonical order
    alpha2: Poly
    beta2: Poly


def height(W: WeilCubic) -> int:
    """Sub-degree of M(x) mod pv: the smallest exponent whose coefficient
    survives reduction.  a0 = mu*pv^m with m >= 1 never does, and the
    leading 1 always does."""
    return 1 if W.a2 % W.pv else 2 if W.a1 % W.pv else 3


def _check_at_infinity(W: WeilCubic) -> None:
    """k(pi) has one place above infinity, where |pi| = q^(n/3) with n =
    m deg pv (Gekeler, Trans. AMS 360 (2008), section 5), so every root of
    M has degree n/3: the Newton polygon at infinity is the one segment from
    (0, n) to (3, 0), that is deg a1 <= n/3 and deg a2 <= 2n/3.  When 3 | n
    its residual x^3 + [T^(n/3)]a1 x^2 + [T^(2n/3)]a2 x + mu over F_q must
    not split; as at v, it splits iff it is not a cube and is reducible
    (``is_irreducible``, the test of pv too).  A root of M in A is
    u pv^(m/3) with r(u) = 0 (it divides mu pv^m and has degree n/3), so
    r = (x + a)^3 and -a pv^(m/3) is the one candidate."""
    n = W.m * W.pv.degree
    if 3 * W.a1.degree > n or 3 * W.a2.degree > 2 * n:
        raise WeilValidationError("M(x) breaks the degree bound at infinity")
    if n % 3:
        return
    F = W.field
    r2, r1, r0 = W.a1.coeff(n // 3), W.a2.coeff(2 * n // 3), W.mu
    # (x + a)^3 has r2 = 3a, r1 = 3a^2 and r0 = a^3
    cube = F.mul(F.from_int(3), r1) == F.mul(r2, r2)
    cube = cube and F.mul(F.from_int(27), r0) == F.pow(r2, 3)
    if not cube and not is_irreducible(Poly(F, (r0, r1, r2, F.one))):
        raise WeilValidationError("the residual polynomial at infinity splits")
    if cube and W.m % 3 == 0:
        root = (W.pv ** (W.m // 3)).scale(F.mul(r2, F.inv(F.from_int(-3))))
        if (((root + W.a1) * root + W.a2) * root + W.a0).is_zero:
            raise ReducibleError(f"M(x) has the root {root.to_str()} in A")


def _is_square_mod(f: Poly, pv: Poly) -> bool:
    """Whether f is a square in F_q[T]/(pv), pv irreducible and q odd: f is
    zero mod pv, or f^((q^deg pv - 1)/2) = 1 mod pv (Euler's criterion)."""
    f = f % pv
    return f.is_zero or f.pow_mod((f.field.q**pv.degree - 1) // 2, pv).is_one


def _check_unique_local_zero(W: WeilCubic, h: int) -> None:
    """Reject shapes where more than one v-adic factor of M has constant
    term divisible by pv.  Relies on the bounds at infinity, which
    ``validate_weil_necessary``, the only caller, checks first.

    For h = 1 the condition always holds: the single positive-valuation
    root sits in its own factor and the remaining constant terms are
    units.  For h = 2 the two positive-valuation roots must be conjugate,
    which (characteristic not 2) holds iff disc(M) is a non-square in the
    completion (disc(M) is that of the depressed cubic), decided exactly.
    For h = 3 the Newton polygon must be a single segment from (0, m) to
    (3, 0), i.e. pv^ceil(2m/3) | a2 and pv^ceil(m/3) | a1.  When 3 | m, say
    m = 3k, the bounds at infinity leave a1 = s2 pv^k and a2 = s1 pv^2k with
    s1, s2 in F_q, so M(x) = pv^m r(x / pv^k) for the residual r at
    infinity, which does not split there.  Nor is r = (x + a)^3, for M would
    be the cube of x + a pv^k, whose root the test at infinity rejects; so r
    is irreducible over F_q, and it splits over F_q[T]/(pv) iff 3 | deg pv.
    """
    if h == 1:
        return
    pv = W.pv
    m = W.m
    if h == 2:
        d = W.disc
        v = valuation(d, pv)
        if v % 2:
            return
        if _is_square_mod(d.exact_div(pv**v), pv):
            raise NotWeilAtVError(
                "the quadratic v-adic factor above the zero of the "
                "Frobenius splits"
            )
        return

    # h == 3: supersingular shape, M must be irreducible over k_v
    if W.a1 % pv ** -(-m // 3) or W.a2 % pv ** -(-2 * m // 3):
        raise NotWeilAtVError("v-adic zeros with distinct valuations")
    if m % 3 == 0 and pv.degree % 3 == 0:
        raise NotWeilAtVError("the supersingular residual polynomial splits")


def _residue_pattern(W: WeilCubic, h: int) -> tuple:
    """Sorted (degree, multiplicity) shape of M mod pv over F_q[T]/(pv).

    M = x^h * Q(x) mod pv with deg Q = 3 - h and Q(0) != 0, so x^h gives
    (1, h); for h = 2 the linear Q adds (1, 1), and for h = 1 the quadratic
    Q = x^2 + a1 x + a2 splits by its discriminant: a double root, two
    roots, or none."""
    if h == 3:
        return ((1, 3),)
    if h == 2:
        return ((1, 1), (1, 2))
    disc = (W.a1 * W.a1 - W.a2.scale_int(4)) % W.pv
    if disc.is_zero:
        return ((1, 1), (1, 2))
    if _is_square_mod(disc, W.pv):
        return ((1, 1), (1, 1), (1, 1))
    return ((1, 1), (2, 1))


def validate_weil_necessary(W: WeilCubic) -> LocalData:
    """Check the necessary conditions for W to define an isogeny class, at
    infinity first, and return the local data at v."""
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
    _check_at_infinity(W)
    h = height(W)
    _check_unique_local_zero(W, h)
    return LocalData(height=h, residue_pattern=_residue_pattern(W, h))


def standard_form(W: WeilCubic) -> StandardForm:
    """Depress the cubic and strip square/cube content down to the standard
    x^3 + c1 x + c2.  A prime of g divides b1 and b2, hence disc(M) =
    -4 b1^3 - 27 b2^2, at least six times.  So only the parts of
    multiplicity v >= 2 of the square-free decomposition of disc(M) are
    factored; for each of their primes v_P(g) = min(v_P(b1) // 2,
    v_P(b2) // 3) (the second alone when b1 = 0) and v_P(disc(M0)) =
    v - 6 v_P(g).  The part of multiplicity 1 divides disc(M0) once and
    is kept whole."""
    F = W.field
    if F.p == 3:
        raise Char3UnsupportedError("characteristic 3 is not supported")
    if F.p == 2:
        raise Char2UnsupportedError("characteristic 2 is not supported")
    t, b1, b2 = W.depressed
    if b2.is_zero:
        raise InternalInconsistencyError(
            "depressed cubic has zero constant term; M(x) is reducible"
        )
    d = W.disc
    if d.is_zero:
        raise InternalInconsistencyError("standard form is not separable")
    g = Poly.one(F)
    g_factors = []
    disc_m0_factors = []
    repeated = []
    for part, v in squarefree_decompose(d).parts:
        if v == 1:
            disc_m0_factors.append((part, 1))
        else:
            repeated += [(prime, v) for prime in squarefree_factors(part)]
    for prime, v in sorted(repeated, key=lambda t: t[0].sort_key()):
        k = valuation(b2, prime) // 3
        if not b1.is_zero:
            k = min(k, valuation(b1, prime) // 2)
        if k:
            g = g * prime**k
            g_factors.append((prime, k))
        if v > 6 * k:
            disc_m0_factors.append((prime, v - 6 * k))
    try:
        c1 = b1.exact_div(g * g)
        c2 = b2.exact_div(g**3)
    except DomainError as exc:
        raise InternalInconsistencyError(
            "square/cube content does not divide exactly"
        ) from exc
    return StandardForm(
        t=t, b1=b1, b2=b2, g=g, c1=c1, c2=c2,
        g_factors=tuple(g_factors), disc_m0_factors=tuple(disc_m0_factors),
        disc_m0=d if g.is_one else _depressed_disc(c1, c2),
    )


def integral_basis(sf: StandardForm, I: Poly, index_factors) -> Tuple[Poly, Poly]:
    """(alpha2, beta2) for I = prod P^k over index_factors ((P, k), ...):

        3 beta2^2 + c1          = 0 mod I
        beta2^3 + c1 beta2 + c2 = 0 mod I^2
        alpha2 = -2 beta2^2       mod I

    with deg beta2, deg alpha2 < deg I.  As 3 M0(x) - x M0'(x) = 2 c1 x +
    3 c2, any solution has 2 c1 beta2 + 3 c2 = 0 mod I: beta2 = -3 c2 /
    (2 c1) mod each P^k with P not dividing c1, and beta2 = 0 mod each P
    dividing c1 (then P | c2, and k = 1 as (c1, c2) is standard).  So
    beta2 = -3 c2 u mod I with u = 1/(2 c1) mod the product I1 of the
    former (``gf.inverse_mod``, of degree < deg I1; u = 0 when I1 = 1),
    and it is checked against both congruences.  The first gives
    alpha2 = -(2/3)(3 beta2^2 + c1) + 2 c1/3 = 2 c1/3 mod I, as p != 3.
    """
    F = sf.c1.field
    if not index_factors:
        return Poly.zero(F), Poly.zero(F)
    c1, c2 = sf.c1, sf.c2
    I1 = Poly.one(F)
    for prime, k in index_factors:
        if c1 % prime:
            I1 = I1 * prime**k
    u = Poly.zero(F)
    if I1.degree:
        u = Poly(F, inverse_mod(F, (c1.scale_int(2) % I1).coeffs, I1.coeffs))
    beta2 = (c2 * u).scale_int(-3) % I
    if ((beta2 * beta2).scale_int(3) + c1) % I or (beta2**3 + c1 * beta2 + c2) % (I * I):
        raise NoSolutionError(
            f"no integral-basis residue mod {I.to_str()}; the index is "
            "inconsistent with the standard form"
        )
    alpha2 = ((beta2 * beta2).scale_int(-2)) % I
    return alpha2, beta2


def maximal_order_data(sf: StandardForm) -> MaximalOrderData:
    """Read Delta and I off the stored entries of disc(M0), then solve for
    the integral basis over the prime powers of I.

    The valuation criterion: v_P(Delta) = 2 when v_P(c2) >= 1 and
    v_P(c1) >= v_P(c2) (c1 = 0 included), else v_P(disc(M0)) mod 2.  The
    rest of v_P(disc(M0)) is v_P(I^2): as v_P(disc(M0)) >= 1 the rest is
    at least -1, and it is an exponent of I^2 exactly when it is even.  A
    prime dividing c1 twice and c2 three times divides disc(M0), so the same
    loop checks that (c1, c2) is standard.

    A prime P of a k = 1 entry divides disc(M0) once, so it divides Delta
    once and not I, unless P | c1 and P | c2, which would give v_P(Delta)
    = 2 and a rest of -1.  One gcd of the k = 1 entries with c1 and c2
    checks that no such P exists, and the entries go into Delta whole."""
    F = sf.disc_m0.field
    delta = index = simple = Poly.one(F)
    index_factors = []
    for prime, v in sf.disc_m0_factors:
        if v == 1:
            simple = simple * prime
            continue
        v_c2 = valuation(sf.c2, prime)
        v_c1 = None if sf.c1.is_zero else valuation(sf.c1, prime)
        if v_c2 >= 3 and (v_c1 is None or v_c1 >= 2):
            raise InternalInconsistencyError("standard form has square/cube content")
        if v_c2 >= 1 and (v_c1 is None or v_c1 >= v_c2):
            v_delta = 2
        else:
            v_delta = v % 2
        k, odd = divmod(v - v_delta, 2)
        if odd:
            raise InternalInconsistencyError(
                f"disc_m0 / delta is not a perfect square at {prime.to_str()}"
            )
        delta = delta * prime**v_delta
        if k:
            index = index * prime**k
            index_factors.append((prime, k))
    common = poly_gcd(poly_gcd(sf.c2, sf.c1), simple)
    if not common.is_one:
        raise InternalInconsistencyError(
            f"disc_m0 / delta is not a perfect square at {common.to_str()}"
        )
    delta = delta * simple
    index_factors = tuple(index_factors)
    alpha2, beta2 = integral_basis(sf, index, index_factors)
    return MaximalOrderData(
        delta=delta,
        index=index,
        index_factors=index_factors,
        alpha2=alpha2,
        beta2=beta2,
    )
