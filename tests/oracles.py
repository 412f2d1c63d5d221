"""Independent oracles and instance generators shared by the test suite.

Everything here deliberately avoids the code paths it is used to check:
the content g comes from square-free decompositions of b1 and b2, ring
closure is decided by multiplying companion-matrix representations of
the generators and testing lattice membership coordinate-wise, the field
discriminant is recomputed from the trace form and from the square-free
shape of disc(M0), the residue pattern at v by factoring M mod pv over the
residue field, Frobenius containment and v-maximality are tested on the
triple itself, the Newton polygon at v is a convex hull, the sandwich is
counted with one gcd per pair of divisors, the integral basis is found
by scanning every residue mod I^2, a root of M in A by scanning every unit
times every divisor of a0, field arithmetic is redone on coefficient tuples
without calling the field object (and polynomials over F_p and
primality by plain integer loops), the gcd and ``pow_mod`` kernels by
Euclid and square-and-multiply on Poly remainders and products, the Zech
tables by an orbit walk under schoolbook products, values by Horner's rule
through the field, irreducibility by a root scan and Frobenius fixed
points, skew products are taken in full from
the twist rule with Frobenius powers from ``L.pow``, the endomorphism-ring
enumeration is cross-checked against a brute-force sweep over every HNF
lattice between A[pi] and the maximal order, and the JSON report is a dict
for ``json.dumps``, with A[pi] labelled by comparing triples with its HNF.
"""

from __future__ import annotations

import random

from drinfeld_orders import (
    CandidateBoundExceededError,
    ClassAnalysis,
    DomainError,
    OrderHNF,
    Poly,
    PrimeField,
    WeilCubic,
    WeilValidationError,
    analyze_weil_class,
    divisors,
    make_extension_field,
    poly_gcd,
    squarefree_decompose,
)
from drinfeld_orders.factor import factor
from drinfeld_orders.poly import polys_below_degree

# instance generation may hit these; anything else (in particular
# InternalInconsistencyError) is a bug and must propagate
EXPECTED_REJECTIONS = (WeilValidationError, CandidateBoundExceededError)


def int_poly(F, ints) -> Poly:
    """The polynomial over F with ascending integer coefficients, each
    reduced into the prime field."""
    return Poly(F, [F.from_int(n) for n in ints])


def const_poly(F, c) -> Poly:
    """The constant polynomial c over F."""
    return Poly(F, (c,))


# -- rational functions and the integral-basis reference ---------------------


class RatFunc:
    """A rational function num/den in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Poly.one(num.field)
        else:
            g = poly_gcd(num, den)
            if not g.is_one:
                num = num.exact_div(g)
                den = den.exact_div(g)
            u = num.field.inv(den.lc)
            num = num.scale(u)
            den = den.scale(u)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, f: Poly) -> "RatFunc":
        return cls(f, Poly.one(f.field))

    @property
    def is_poly(self) -> bool:
        return self.den.is_one

    def as_poly(self) -> Poly:
        if not self.is_poly:
            raise DomainError("rational function is not a polynomial")
        return self.num

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_poly:
            return f"RatFunc({self.num.to_str()})"
        return f"RatFunc(({self.num.to_str()})/({self.den.to_str()}))"


def integral_basis_oracle(sf, I: Poly):
    """(alpha2, beta2) by scanning every beta of degree < deg I^2: the
    canonically smallest beta with 3 beta^2 + c1 = 0 mod I and
    beta^3 + c1 beta + c2 = 0 mod I^2, and alpha2 = -2 beta^2 mod I."""
    F = sf.c1.field
    I2 = I * I
    c1, c2 = sf.c1, sf.c2
    solutions = (
        beta
        for beta in polys_below_degree(F, I2.degree)
        if not ((beta * beta).scale_int(3) + c1) % I
        and not (beta**3 + c1 * beta + c2) % I2
    )
    beta = min(solutions, key=lambda b: b.sort_key())
    return (beta * beta).scale_int(-2) % I, beta


# -- factorisations, content, discriminant, square roots and residues --------


def expand(f: Poly, pairs) -> Poly:
    """lc(f) * prod(P^k) over the pairs ((P, k), ...) of a factorisation or
    a square-free decomposition of f."""
    out = const_poly(f.field, f.lc)
    for part, mult in pairs:
        out = out * part**mult
    return out


def content_oracle(b1: Poly, b2: Poly) -> Poly:
    """The square/cube content g = gcd(g1, g2) of (b1, b2) from square-free
    decompositions: g1 = prod part^(mult // 2) over b1 (zero when b1 = 0,
    which gcd ignores) and g2 = prod part^(mult // 3) over b2."""
    F = b2.field
    g1 = Poly.zero(F)
    if not b1.is_zero:
        g1 = Poly.one(F)
        for part, mult in squarefree_decompose(b1):
            g1 = g1 * part ** (mult // 2)
    g2 = Poly.one(F)
    for part, mult in squarefree_decompose(b2):
        g2 = g2 * part ** (mult // 3)
    return poly_gcd(g1, g2)


def exact_sqrt(f: Poly):
    """The monic square root of monic(f), or None when monic(f) is not a
    square.  The leading coefficient is ignored."""
    if f.is_zero:
        raise DomainError("square root of zero")
    F = f.field
    if f.degree == 0:
        return Poly.one(F)
    if f.degree % 2:
        return None
    root = Poly.one(F)
    for part, mult in squarefree_decompose(f):
        if mult % 2:
            return None
        root = root * part ** (mult // 2)
    return root


def field_discriminant_oracle(sf) -> Poly:
    """Monic field discriminant from the square-free shape of disc(M0): the
    parts of odd multiplicity, times the square of the common part of c2
    and the parts of multiplicity 2 and 4."""
    d0 = sf.disc_m0
    F = d0.field
    parts = {mult: part for part, mult in squarefree_decompose(d0)}
    odd_part = Poly.one(F)
    for mult, part in parts.items():
        if mult % 2:
            odd_part = odd_part * part
    d24 = parts.get(2, Poly.one(F)) * parts.get(4, Poly.one(F))
    shared = poly_gcd(d24, sf.c2) if d24.degree >= 1 else Poly.one(F)
    return (odd_part * shared * shared).monic()


def reduce_mod(c: Poly, R):
    """Image of c in the residue field R = F_q[T]/(p)."""
    r = c % Poly(R.base, R.modulus)
    return r.coeffs + (R.base.zero,) * (R.e - len(r.coeffs))


def residue_factor(coeffs, p: Poly):
    """Factor a polynomial in x with F_q[T] coefficients modulo the prime p.

    coeffs are ascending in x.  Returns (residue field, the factor pairs of
    the reduced polynomial over it).
    """
    R = make_extension_field(coeffs[0].field, p)
    reduced = Poly(R, (reduce_mod(c, R) for c in coeffs))
    if reduced.is_zero:
        raise DomainError("polynomial vanishes modulo p")
    return R, factor(reduced)


def residue_pattern_oracle(W: WeilCubic) -> tuple:
    """Sorted (degree, multiplicity) shape of M mod pv by factorisation."""
    _, fac = residue_factor(list(W.coefficients()), W.pv)
    return tuple(sorted((p.degree, mult) for p, mult in fac))


# -- the two tests the enumeration satisfies by construction -------------------


def frobenius_order_hnf(sf, mo) -> OrderHNF:
    """The HNF triple of A[pi]: (g^2*I, 0, g)."""
    g = sf.g
    return OrderHNF(a=g * g * mo.index, b=Poly.zero(g.field), c=g)


def contains_frobenius(order: OrderHNF, g: Poly) -> bool:
    """True iff the Frobenius lies in the lattice: c | g and a | b*(g/c)."""
    q, r = divmod(g, order.c)
    if r:
        return False
    if order.a.degree == 0:
        return True
    return ((order.b * q) % order.a).is_zero


def v_maximality(order: OrderHNF, W: WeilCubic, local) -> bool:
    """Maximality above v.  Free when pv does not divide a2; otherwise the
    conductor norm (a*c)^2 must be prime to pv."""
    if not local.pv_divides_a2:
        return True
    return poly_gcd(W.pv, order.a * order.c).degree == 0


def newton_vertices(points):
    """Vertices of the lower convex hull of (i, v) points: the Newton
    polygon, built point by point; a point on a chord is not a vertex."""
    hull = []
    for pt in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) < (pt[1] - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append(pt)
    return hull


def candidate_count_oracle(sf, mo) -> int:
    """Size of the full sandwich, one gcd per pair of divisors: the b with
    deg b < deg a and a | b*(g/c) number q^deg gcd(a, g/c) for each c | g
    and a | g^2*I."""
    F, g = sf.g.field, sf.g
    cs = divisors(F, factor(g))
    as_ = divisors(F, factor(g * g * mo.index))
    return sum(F.q ** poly_gcd(a, g.exact_div(c)).degree for c in cs for a in as_)


# -- 3x3 polynomial matrices -------------------------------------------------


def mat_mul(a, b):
    zero = Poly.zero(a[0][0].field)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(3)), start=zero)
            for j in range(3)
        )
        for i in range(3)
    )


def mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(3)) for i in range(3))


def mat_scale(a, f: Poly):
    return tuple(tuple(f * a[i][j] for j in range(3)) for i in range(3))


def identity_matrix(field):
    one, zero = Poly.one(field), Poly.zero(field)
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def companion_matrix(sf):
    """Multiplication by pi~ on the basis (1, pi~, pi~^2) of k(pi)."""
    F = sf.c1.field
    zero = Poly.zero(F)
    one = Poly.one(F)
    return (
        (zero, zero, -sf.c2),
        (one, zero, -sf.c1),
        (zero, one, zero),
    )


def omega2_numerator(sf, mo):
    """I * (matrix of omega2): alpha2*Id + beta2*C + C^2."""
    c = companion_matrix(sf)
    c2 = mat_mul(c, c)
    F = sf.c1.field
    return mat_add(
        mat_add(mat_scale(identity_matrix(F), mo.alpha2), mat_scale(c, mo.beta2)),
        c2,
    )


def element_in_lattice(order: OrderHNF, coords, den: Poly, mo) -> bool:
    """Membership of (x + y*pi~ + z*pi~^2)/den in the lattice of `order`.

    Rewrites over (1, omega1, omega2) and runs the triangular division
    chain with exact polynomial divisibility only.
    """
    x, y, z = coords
    u0 = x - z * mo.alpha2
    u1 = y - z * mo.beta2
    u2 = z * mo.index
    dc = den * order.c
    lam, r = divmod(u1, dc)
    if r:
        return False
    q, r = divmod(u2 - den * lam * order.b, den * order.a)
    if r:
        return False
    return (u0 % den).is_zero


def closure_oracle(order: OrderHNF, sf, mo) -> bool:
    """Ring closure via generator products in companion-matrix form."""
    c_mat = companion_matrix(sf)
    w2n = omega2_numerator(sf, mo)
    I = mo.index
    g1n = mat_add(mat_scale(c_mat, order.c * I), mat_scale(w2n, order.b))
    g2n = mat_scale(w2n, order.a)
    den = I * I
    for left, right in ((g1n, g1n), (g1n, g2n), (g2n, g2n)):
        p = mat_mul(left, right)
        coords = (p[0][0], p[1][0], p[2][0])
        if not element_in_lattice(order, coords, den, mo):
            return False
    return True


def frobenius_coords(W: WeilCubic, sf):
    """pi and pi^2 over (1, pi~, pi~^2) with denominator 1."""
    F = W.field
    t = W.a1.scale(F.inv(F.from_int(3)))
    g = sf.g
    zero = Poly.zero(F)
    pi = (-t, g, zero)
    pi2 = (t * t, -(t * g).scale_int(2), g * g)
    return pi, pi2


def sandwich_endo_oracle(analysis: ClassAnalysis):
    """Every HNF lattice between A[pi] and O_max that is a ring containing
    the Frobenius and is maximal above v, by exhaustive sweep."""
    W, sf, mo, local = analysis.weil, analysis.sf, analysis.mo, analysis.local
    F = W.field
    g = sf.g
    one = Poly.one(F)
    pi, pi2 = frobenius_coords(W, sf)
    accepted = []
    for c in divisors(F, factor(g)):
        for a in divisors(F, factor(g * g * mo.index)):
            for b in polys_below_degree(F, a.degree):
                order = OrderHNF(a=a, b=b, c=c)
                if not element_in_lattice(order, pi, one, mo):
                    continue
                if not element_in_lattice(order, pi2, one, mo):
                    continue
                if local.pv_divides_a2 and poly_gcd(W.pv, a * c).degree > 0:
                    continue
                if not closure_oracle(order, sf, mo):
                    continue
                accepted.append(order)
    return accepted


def trace_form_discriminant(sf, mo) -> Poly:
    """disc(1, omega1, omega2) recomputed from the trace pairing."""
    F = sf.c1.field
    c_mat = companion_matrix(sf)
    w2n = omega2_numerator(sf, mo)
    I = RatFunc.from_poly(mo.index)
    basis = [
        [[RatFunc.from_poly(e) for e in row] for row in identity_matrix(F)],
        [[RatFunc.from_poly(e) for e in row] for row in c_mat],
        [[RatFunc.from_poly(e) / I for e in row] for row in w2n],
    ]

    def rmul(a, b):
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = RatFunc.from_poly(Poly.zero(F))
                for k in range(3):
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            out.append(row)
        return out

    def rtrace(m):
        return m[0][0] + m[1][1] + m[2][2]

    gram = [[rtrace(rmul(basis[i], basis[j])) for j in range(3)] for i in range(3)]
    det = (
        gram[0][0] * (gram[1][1] * gram[2][2] - gram[1][2] * gram[2][1])
        - gram[0][1] * (gram[1][0] * gram[2][2] - gram[1][2] * gram[2][0])
        + gram[0][2] * (gram[1][0] * gram[2][1] - gram[1][1] * gram[2][0])
    )
    return det.as_poly()


def kelem_matches_element(elem, coeff_omega1, coeff_omega2, analysis) -> bool:
    """Check that a KElem over pi equals c*omega1 + b*omega2 in k(pi).

    Works in the companion-matrix representation of the original cubic M
    (basis 1, pi, pi^2) with rational-function entries, fully independent
    of the skew machinery that consumes the KElem.
    """
    W, sf, mo = analysis.weil, analysis.sf, analysis.mo
    F = W.field
    zero = RatFunc.from_poly(Poly.zero(F))
    one = RatFunc.from_poly(Poly.one(F))

    def rmat(rows):
        return [[RatFunc.from_poly(p) for p in row] for row in rows]

    def rmul(a, b):
        return [
            [
                sum((a[i][k] * b[k][j] for k in range(3)), start=zero)
                for j in range(3)
            ]
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
    t = RatFunc.from_poly(W.a1.scale(F.inv(F.from_int(3))))
    g = RatFunc.from_poly(sf.g)
    pt = rscale(radd(c_m, rscale(eye, t)), one / g)  # matrix of pi~
    alpha2 = RatFunc.from_poly(mo.alpha2)
    beta2 = RatFunc.from_poly(mo.beta2)
    idx = RatFunc.from_poly(mo.index)
    w2 = rscale(
        radd(radd(rscale(eye, alpha2), rscale(pt, beta2)), rmul(pt, pt)),
        one / idx,
    )
    want = radd(
        rscale(pt, RatFunc.from_poly(coeff_omega1)),
        rscale(w2, RatFunc.from_poly(coeff_omega2)),
    )
    d = RatFunc.from_poly(elem.d)
    got = rscale(
        radd(
            radd(
                rscale(eye, RatFunc.from_poly(elem.n0)),
                rscale(c_m, RatFunc.from_poly(elem.n1)),
            ),
            rscale(rmul(c_m, c_m), RatFunc.from_poly(elem.n2)),
        ),
        one / d,
    )
    return all(got[i][j] == want[i][j] for i in range(3) for j in range(3))


# -- skew arithmetic by the definition -------------------------------------
#
# Skew polynomials are plain coefficient lists over L here; every product
# is the full double sum with tau^i * lam = lam^(q^i) * tau^i, the power
# taken by L.pow, so nothing below reaches a SkewRing cache.


def frobenius(D):
    """pi = tau^n as a skew polynomial of D's ring; central in L{tau}."""
    ring = D.ring
    return ring.poly((ring.L.zero,) * ring.n + (ring.L.one,))


def commutes_with(u, v) -> bool:
    """Whether u*v = v*u, for skew polynomials of one ring."""
    return (u * v).coeffs == (v * u).coeffs


def skew_tau(ring):
    """tau as a skew polynomial of ring."""
    return ring.poly((ring.L.zero, ring.L.one))


def skew_constant(ring, lam):
    """The constant skew polynomial lam."""
    return ring.poly((lam,))


def gamma_t(D):
    """gamma(T), the constant coefficient of phi_T."""
    return D.phi_t.coeffs[0]


def gamma(D, a: Poly):
    """Image of a under the structure map A -> L (evaluate at gamma(T))."""
    L = D.ring.L
    acc = L.zero
    for c in reversed(a.coeffs):
        acc = L.add(L.mul(acc, gamma_t(D)), L.embed(c))
    return acc


def frobenius_power(L, lam, k: int):
    """lam^(q^k) with q the order of L's base field."""
    return L.pow(lam, L.base.q**k)


def _strip(L, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == L.zero:
        coeffs.pop()
    return tuple(coeffs)


def skew_add_oracle(L, u, v):
    n = max(len(u), len(v))
    pad_u = list(u) + [L.zero] * (n - len(u))
    pad_v = list(v) + [L.zero] * (n - len(v))
    return _strip(L, (L.add(x, y) for x, y in zip(pad_u, pad_v)))


def skew_sum(*polys):
    """The sum of skew polynomials of one ring (SkewPoly has no + of its
    own: the program adds only inside its packed or looped kernels)."""
    ring = polys[0].ring
    acc = ()
    for s in polys:
        acc = skew_add_oracle(ring.L, acc, s.coeffs)
    return ring.poly(acc)


def skew_mul_oracle(L, u, v):
    """Coefficients of u*v; the twist exponent q^i is reduced to q^(i mod n)
    because q^n fixes L."""
    if not u or not v:
        return ()
    out = [L.zero] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            twisted = frobenius_power(L, vj, i % L.e)
            out[i + j] = L.add(out[i + j], L.mul(ui, twisted))
    return _strip(L, out)


def phi_horner_oracle(D, a: Poly):
    """Coefficients of phi_a by Horner's rule with full skew products."""
    L = D.ring.L
    acc = ()
    for c in reversed(a.coeffs):
        acc = skew_mul_oracle(L, acc, D.phi_t.coeffs)
        acc = skew_add_oracle(L, acc, (L.embed(c),))
    return acc


def weil_relation_oracle(D, W: WeilCubic) -> bool:
    """pi^3 + phi_a1*pi^2 + phi_a2*pi + phi_a0 = 0 with every product taken
    in full."""
    L, n = D.ring.L, D.ring.n

    def pi_power(k):
        return (L.zero,) * (n * k) + (L.one,)

    acc = pi_power(3)
    for a, k in ((W.a1, 2), (W.a2, 1), (W.a0, 0)):
        term = skew_mul_oracle(L, phi_horner_oracle(D, a), pi_power(k))
        acc = skew_add_oracle(L, acc, term)
    return not acc


def _charpoly(m):
    """(a1, a2, a0) of the characteristic polynomial x^3 + a1 x^2 + a2 x + a0
    of a 3x3 polynomial matrix: minus the trace, the sum of the principal
    2-minors and minus the determinant."""
    zero = Poly.zero(m[0][0].field)
    minors = sum(
        (m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2))),
        start=zero,
    )
    det = sum(
        (
            m[0][k] * (m[1][(k + 1) % 3] * m[2][(k + 2) % 3] - m[1][(k + 2) % 3] * m[2][(k + 1) % 3])
            for k in range(3)
        ),
        start=zero,
    )
    return -(m[0][0] + m[1][1] + m[2][2]), minors, -det


def descended_module(L, g, c):
    """(phi_T coefficients, WeilCubic) of a module with its class, for L of
    degree n over F_q, g = (g0, g1, g2) in F_q and c in L*.

    psi_T = g0 + g1 tau + g2 tau^2 + tau^3 has coefficients in F_q, so tau
    commutes with psi_T and is a root of P(x) = x^3 + g2 x^2 + g1 x + g0 - T
    over A.  Then pi = tau^n is a root of the characteristic polynomial M of
    C^n, C the companion matrix of P (Cayley-Hamilton in A[x]/(P)), and
    M = x^3 - tr x^2 + (principal 2-minors) x - det with
    det = (T - g0)^n.  phi = c psi c^-1, with coefficients
    g_i c^(1 - q^i), is isomorphic to psi, so it lies in the same class."""
    F, n = L.base, L.e
    T, zero, one = Poly.x(F), Poly.zero(F), Poly.one(F)
    gamma = const_poly(F, g[0])
    comp = (
        (zero, zero, T - gamma),
        (one, zero, const_poly(F, F.neg(g[1]))),
        (zero, one, const_poly(F, F.neg(g[2]))),
    )
    m = identity_matrix(F)
    for _ in range(n):
        m = mat_mul(m, comp)
    a1, a2, a0 = _charpoly(m)
    pv = T - gamma
    assert a0 == -(pv**n)
    W = WeilCubic(field=F, a1=a1, a2=a2, mu=F.neg(F.one), pv=pv, m=n)
    c_inv = L.inv(c)
    phi_t = [
        L.mul(L.mul(L.embed(gi), c), frobenius_power(L, c_inv, i))
        for i, gi in enumerate((*g, F.one))
    ]
    return phi_t, W


def motive_class(L, phi_t) -> WeilCubic:
    """The class of phi_T = g0 + g1 tau + g2 tau^2 + g3 tau^3 over L of
    degree n over F_q, for g0 in F_q: the characteristic polynomial of pi
    on the motive of phi, by linear algebra over L[T] alone.

    The motive L{tau} is free over L[T], with T acting by right
    multiplication by phi_T, on the basis 1, tau, tau^2.  Left multiplication
    by tau is q-semilinear with the matrix
    A = [[0, 0, (T - g0)/g3], [1, 0, -g1/g3], [0, 1, -g2/g3]], so pi = tau^n
    acts L[T]-linearly by B = A A^(1) ... A^(n-1), where A^(k) raises every
    coefficient to q^k.  By Cayley-Hamilton its characteristic polynomial
    annihilates pi; its coefficients lie in F_q[T], and its constant term is
    -det B = -(T - g0)^n / N(g3), N the norm to F_q (Anderson, Duke Math. J.
    53, 1986; Musleh and Schost, ISSAC 2019)."""
    F, n = L.base, L.e
    g0, g1, g2, g3 = phi_t
    u = L.inv(g3)
    top = (L.neg(L.mul(g0, u)), u, L.neg(L.mul(g1, u)), L.neg(L.mul(g2, u)))
    zero, one = Poly.zero(L), Poly.one(L)
    b = identity_matrix(L)
    for k in range(n):
        t = [frobenius_power(L, c, k) for c in top]
        a = (
            (zero, zero, Poly(L, t[:2])),
            (one, zero, Poly(L, t[2:3])),
            (zero, one, Poly(L, t[3:])),
        )
        b = mat_mul(b, a)

    def descend(f):
        assert all(L.embed(c[0]) == c for c in f.coeffs), "a coefficient is not in F_q"
        return Poly(F, [c[0] for c in f.coeffs])

    a1, a2, a0 = map(descend, _charpoly(b))
    pv = Poly.x(F) - descend(Poly(L, (g0,)))
    assert a0 == (pv**n).scale(a0.lc)
    return WeilCubic(field=F, a1=a1, a2=a2, mu=a0.lc, pv=pv, m=n)


# -- finite-field arithmetic from the definition ------------------------------
# An element of F_p is an int mod p; one of base[y]/(f) is the tuple of its
# coefficients, multiplied as polynomials and reduced by y^e = -(f - y^e).
# Only the tower's p and moduli are read off the field object.


def field_elements(F) -> list:
    """Every element of F, in index order."""
    return [F.element(i) for i in range(F.q)]


def monic_polys(F, max_deg: int):
    """Every monic polynomial over F of degree at most max_deg."""
    x = Poly.x(F)
    for n in range(max_deg + 1):
        lead = x**n
        for u in polys_below_degree(F, n):
            yield lead + u


def irreducible_oracle(f) -> bool:
    """Root scan for cubics and below, Frobenius fixed-point counting for
    higher degrees."""
    F = f.field
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    if any(poly_value(f, c) == F.zero for c in field_elements(F)):
        return False
    if n <= 3:
        return True  # rootless quadratics and cubics are irreducible
    x = Poly.x(F)
    for d in range(2, n):
        h = pow_mod_oracle(x, F.q**d, f) - x
        if h.is_zero or not poly_gcd_oracle(h, f).is_one:
            return False
    return (pow_mod_oracle(x, F.q**n, f) - x).is_zero


def _prime_ops(p):
    return (
        lambda a, b: (a + b) % p,
        lambda a, b: (a - b) % p,
        lambda a, b: a * b % p,
        0,
    )


def _extension_ops(base_ops, modulus):
    badd, bsub, bmul, bzero = base_ops
    e = len(modulus) - 1

    def add(a, b):
        return tuple(badd(x, y) for x, y in zip(a, b))

    def sub(a, b):
        return tuple(bsub(x, y) for x, y in zip(a, b))

    def mul(a, b):
        acc = [bzero] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                acc[i + j] = badd(acc[i + j], bmul(x, y))
        for i in range(2 * e - 2, e - 1, -1):
            c, acc[i] = acc[i], bzero
            for k in range(e):
                acc[i - e + k] = bsub(acc[i - e + k], bmul(c, modulus[k]))
        return tuple(acc[:e])

    return add, sub, mul, (bzero,) * e


def schoolbook_ops(F):
    """(add, sub, mul) of the field F from the definition."""
    moduli = []
    while hasattr(F, "modulus"):
        moduli.append(F.modulus)
        F = F.base
    ops = _prime_ops(F.p)
    for modulus in reversed(moduli):
        ops = _extension_ops(ops, modulus)
    return ops[:3]


def field_poly_mul_oracle(F, a, b):
    """Product of two coefficient sequences over F, one schoolbook term at a
    time, as the list of len(a) + len(b) - 1 coefficients."""
    add, _, mul = schoolbook_ops(F)
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def field_poly_divmod_oracle(F, a, b):
    """(quotient, remainder) of coefficient sequences over F by long
    division with schoolbook operations, for len(a) >= len(b) and b with a
    nonzero last entry; the remainder keeps its len(b) - 1 entries."""
    _, sub, mul = schoolbook_ops(F)
    inv_lc = schoolbook_pow(mul, F.one, b[-1], F.q - 2)
    n = len(b) - 1
    rem, quo = list(a), [F.zero] * (len(a) - n)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = mul(rem[k + n], inv_lc)
        for j, y in enumerate(b):
            rem[k + j] = sub(rem[k + j], mul(c, y))
    return quo, rem[:n]


def poly_value(f: Poly, x):
    """f(x) by Horner's rule through the field's add and mul."""
    F = f.field
    acc = F.zero
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_gcd_oracle(f: Poly, g: Poly) -> Poly:
    """Monic gcd by Euclid on Poly remainders; gcd(f, 0) is monic(f)."""
    if f.is_zero and g.is_zero:
        raise DomainError("gcd of two zero polynomials")
    while g:
        f, g = g, f % g
    return f.monic()


def pow_mod_oracle(f: Poly, n: int, m: Poly) -> Poly:
    """f^n mod m by square and multiply on Poly products and remainders."""
    return schoolbook_pow(lambda a, b: a * b % m, Poly.one(f.field) % m, f % m, n)


def log_tables_oracle(F):
    """(exp, zech, log) of F's tables, both lists doubled, from the first
    element g in index order whose orbit under schoolbook products has
    q - 1 elements; None when an orbit misses 1 (a reducible modulus)."""
    add, _, mul = schoolbook_ops(F)
    for i in range(1, F.q):
        g = F.element(i)
        powers, seen, x = [F.one], {F.one}, g
        while x not in seen:
            powers.append(x)
            seen.add(x)
            x = mul(x, g)
        if x != F.one:
            return None
        if len(powers) == F.q - 1:
            log = {x: k for k, x in enumerate(powers)}
            log[F.zero] = None
            zech = [log[add(F.one, x)] for x in powers]
            return powers * 2, zech * 2, log
    return None


def is_prime_oracle(n: int) -> bool:
    """Primality by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def poly_mul_oracle(p, a, b):
    """Product of two int coefficient lists mod p, one term at a time."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_divmod_oracle(p, a, b):
    """(quotient, remainder) of int coefficient lists mod p (b with a
    nonzero last entry) by long division, each step reducing mod p; both
    stripped of trailing zeros."""
    inv = next(c for c in range(1, p) if c * b[-1] % p == 1)
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv % p
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - c * y) % p

    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    return strip(quo), strip(rem)


def schoolbook_pow(mul, one, a, n: int):
    """a^n for n >= 0 by square and multiply with the given mul."""
    out = one
    while n:
        if n & 1:
            out = mul(out, a)
        a = mul(a, a)
        n >>= 1
    return out


# -- roots in A ------------------------------------------------------------------


def root_in_a_oracle(W: WeilCubic):
    """The first root of M in A, scanning every unit times every monic
    divisor of a0 (divisors in canonical order, units by index); None when
    M has no root in A."""
    F = W.field
    a0, a2, a1, _ = W.coefficients()
    for d in divisors(F, factor(W.a0)):
        for i in range(1, F.q):
            r = d.scale(F.element(i))
            if (((r + a1) * r + a2) * r + a0).is_zero:
                return r
    return None


# -- instance generation -----------------------------------------------------


def paper_weil(F=None) -> WeilCubic:
    F = F or PrimeField(5)
    return WeilCubic(
        field=F,
        a1=int_poly(F, [1, 1]),
        a2=int_poly(F, [4, 3, 1]),
        mu=F.element(4),
        pv=Poly.x(F),
        m=3,
    )


def _random_poly(F, max_deg, rng):
    return Poly(F, (F.element(rng.randrange(F.q)) for _ in range(max_deg + 1)))


_IRREDUCIBLE_QUADRATIC = {5: [2, 0, 1], 7: [1, 0, 1]}  # T^2+2 over F5, T^2+1 over F7


def random_instance_pool(count=25, seed=20240, max_index_degree=2):
    """Deterministic pool of validated desk-scale instances over F5 and F7,
    every one with deg I <= max_index_degree, biased to include higher
    heights, quadratic pv, nontrivial index and nontrivial content g.

    Quotas guarantee at least eight instances with deg I = 1 and three with
    deg I = 2, so the enumeration and closure cross-checks see candidate
    spaces that are actually populated."""
    rng = random.Random(seed)
    fields = {5: PrimeField(5), 7: PrimeField(7)}
    pool = []
    seen = set()

    def index_degree_count(d):
        return sum(1 for a in pool if a.mo.index.degree == d)

    def try_instance(W, cap_trivial=None):
        try:
            analysis = analyze_weil_class(W, candidate_bound=200_000)
        except EXPECTED_REJECTIONS:
            return False
        if analysis.mo.index.degree > max_index_degree:
            return False
        if cap_trivial is not None and analysis.mo.index.degree == 0:
            if index_degree_count(0) >= cap_trivial:
                return False
        key = (W.field.q, W.a1, W.a2, W.mu, W.pv, W.m)
        if key in seen:
            return False
        seen.add(key)
        pool.append(analysis)
        return True

    # engineered coverage, inside the bounds at infinity: the worked F5
    # instance, nontrivial g, h = 2 and h = 3, as (a1, a2, mu, pv, m)
    F5 = fields[5]
    T5 = Poly.x(F5)
    quadratic = int_poly(F5, _IRREDUCIBLE_QUADRATIC[5])
    engineered = [
        ([1, 3], [2, 2, 4], 3, T5 + Poly.one(F5), 4),  # g = T
        ([1, 2, 3], [3, 4, 4, 2, 4, 3], 4, quadratic, 4),  # g = T + 3
        ([0, 1], [3, 1], 3, quadratic, 2),  # g = T + 1, which divides disc(M0) once
        ([1], [0, 0, 1], 1, T5, 3),  # h = 2
        ([], [0, 0, 1], 1, T5, 3),  # h = 3, g = pv: configs/example_f5_supersingular.json
        ([], [4, 0, 4, 0, 1], 1, quadratic, 3),  # h = 3, g = pv quadratic
        ([], [], 2, T5, 4),  # h = 3 with 3 not dividing m, b1 = 0, g = T
    ]
    try_instance(paper_weil(F5))
    for a1, a2, mu, pv, m in engineered:
        W = WeilCubic(
            field=F5,
            a1=int_poly(F5, a1),
            a2=int_poly(F5, a2),
            mu=F5.element(mu),
            pv=pv,
            m=m,
        )
        if not try_instance(W):
            raise RuntimeError(f"engineered instance {W} was not kept")

    attempts = 0
    while (
        len(pool) < count
        or index_degree_count(1) < 8
        or index_degree_count(2) < 3
    ) and attempts < 60000:
        attempts += 1
        q = rng.choice((5, 7))
        F = fields[q]
        if rng.random() < 0.25:
            pv = int_poly(F, _IRREDUCIBLE_QUADRATIC[q])
        else:
            pv = int_poly(F, [rng.randrange(q), 1])
        m = rng.choice((1, 1, 2, 3))
        mu = F.element(rng.randrange(1, q))
        if rng.random() < 0.5:
            # depressed shape: richer odds of a nontrivial index
            a1 = Poly.zero(F)
            a2 = _random_poly(F, 3, rng)
        else:
            a1 = _random_poly(F, rng.randrange(0, 3), rng)
            a2 = _random_poly(F, rng.randrange(0, 3), rng)
            shape = rng.random()
            if shape < 0.2:
                a2 = a2 * pv  # height >= 2
                if shape < 0.1:
                    a1 = a1 * pv  # supersingular shape
        W = WeilCubic(field=F, a1=a1, a2=a2, mu=mu, pv=pv, m=m)
        try_instance(W, cap_trivial=max(12, count // 2))
    if len(pool) < count or index_degree_count(1) < 8 or index_degree_count(2) < 3:
        raise RuntimeError("instance pool generation fell short")
    return pool


# -- reports ---------------------------------------------------------------------


def _polys_json(**polys: Poly) -> dict:
    """Each named polynomial as ``name``, its ascending coefficient tuple,
    and ``name_str``, its text."""
    out = {}
    for name, f in polys.items():
        out[name] = f.coeffs
        out[f"{name}_str"] = f.to_str()
    return out


def report_oracle(analysis: ClassAnalysis, identifications) -> dict:
    """The JSON report of ``analyze`` as a dict of its fields, for
    ``json.dumps(..., sort_keys=True, indent=2)``: O_max and A[pi] are
    labelled by comparing triples with A[pi]'s, and each order's entry is
    looked up by its triple."""
    W, sf, mo = analysis.weil, analysis.sf, analysis.mo
    maximal = analysis.orders[0].order
    frob = frobenius_order_hnf(sf, mo)
    labels = {maximal: "O_max=A[pi]"} if frob == maximal else {maximal: "O_max", frob: "A[pi]"}
    entries = {}
    for rep in analysis.orders:
        o = rep.order
        entries[o] = {**_polys_json(a=o.a, b=o.b, c=o.c), "label": labels.get(o, "")}
    orders = [
        {
            **entries[rep.order],
            "is_closed": True,
            "contains_pi": True,
            "v_maximal": True,
            **_polys_json(conductor_norm=rep.conductor_norm, disc=rep.disc),
        }
        for rep in analysis.orders
    ]
    idents = []
    for ident in identifications:
        entry = {"module": ident.module, "in_class": ident.end is not None}
        if ident.end is not None:
            entry["order"] = entries[analysis.orders[ident.end].order]
            entry["survey"] = [
                {"order": entries[rep.order], "generators": verdicts}
                for rep, verdicts in zip(analysis.orders, ident.survey)
            ]
        idents.append(entry)
    return {
        "inputs": {
            "p": W.field.p,
            "e": W.field.degree,
            "q": W.field.q,
            **_polys_json(pv=W.pv),
            "m": W.m,
            "a1": W.a1.coeffs,
            "a2": W.a2.coeffs,
            "mu": W.mu,
        },
        "verdict": "necessary conditions passed",
        "local": {
            "height": analysis.local.height,
            "etale_degree": analysis.local.etale_degree,
            "supersingular": analysis.local.supersingular,
            "pv_divides_a2": analysis.local.pv_divides_a2,
            "residue_pattern": analysis.local.residue_pattern,
        },
        "standard_form": {
            "b1": sf.b1.coeffs,
            "b2": sf.b2.coeffs,
            **_polys_json(g=sf.g, c1=sf.c1, c2=sf.c2),
        },
        **_polys_json(
            disc_m0=sf.disc_m0, delta=mo.delta, index=mo.index,
            alpha2=mo.alpha2, beta2=mo.beta2,
        ),
        "candidate_count": analysis.candidate_count,
        "orders": orders,
        "identifications": idents,
    }
