"""Independent oracles and instance generators shared by the test suite.

Everything here deliberately avoids the code paths it is used to check:
ring closure is decided by multiplying companion-matrix representations of
the generators and testing lattice membership coordinate-wise, the field
discriminant is recomputed from the trace form, the integral basis is found
by scanning every residue mod I^2, a root of M in A by scanning every unit
times every divisor of a0, field arithmetic is redone on coefficient tuples
without calling the field object, skew products are taken in full from
the twist rule with Frobenius powers from ``L.pow``, and the endomorphism-ring
enumeration is cross-checked against a brute-force sweep over every HNF
lattice between A[pi] and the maximal order.
"""

from __future__ import annotations

import random

from drinfeld_orders import (
    BadConstantTermError,
    CandidateBoundExceededError,
    ClassAnalysis,
    DomainError,
    NotWeilAtVError,
    OrderHNF,
    Poly,
    PrimeField,
    ReducibleError,
    WeilCubic,
    analyze_weil_class,
    divisors,
    poly_gcd,
)
from drinfeld_orders.poly import polys_below_degree

# instance generation may hit these; anything else (in particular
# InternalInconsistencyError) is a bug and must propagate
EXPECTED_REJECTIONS = (
    ReducibleError,
    BadConstantTermError,
    NotWeilAtVError,
    CandidateBoundExceededError,
)

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
    for c in divisors(g):
        for a in divisors(g * g * mo.index):
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
    return u * v == v * u


def skew_tau(ring):
    """tau as a skew polynomial of ring."""
    return ring.poly((ring.L.zero, ring.L.one))


def skew_constant(ring, lam):
    """The constant skew polynomial lam."""
    return ring.poly((lam,))


def gamma_t(D):
    """gamma(T), the constant coefficient of phi_T."""
    return D.phi_t.coeff(0)


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


# -- finite-field arithmetic from the definition ------------------------------
# An element of F_p is an int mod p; one of base[y]/(f) is the tuple of its
# coefficients, multiplied as polynomials and reduced by y^e = -(f - y^e).
# Only the tower's p and moduli are read off the field object.


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
    for d in divisors(W.a0):
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
        a1=Poly.from_ints(F, [1, 1]),
        a2=Poly.from_ints(F, [4, 3, 1]),
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

    # engineered coverage: the worked F5 instance, nontrivial g, h = 2, h = 3
    F5 = fields[5]
    T5 = Poly.x(F5)
    try_instance(paper_weil(F5))
    try_instance(
        WeilCubic(
            field=F5,
            a1=T5,
            a2=Poly.from_ints(F5, [3, 2, 2, 1]),
            mu=F5.element(2),
            pv=Poly.from_ints(F5, [2, 1]),
            m=2,
        )
    )
    try_instance(
        WeilCubic(
            field=F5,
            a1=T5,
            a2=Poly.from_ints(F5, [4, 0, 0, 2]),
            mu=F5.element(2),
            pv=Poly.from_ints(F5, [2, 1]),
            m=2,
        )
    )
    try_instance(
        WeilCubic(field=F5, a1=Poly.one(F5), a2=T5, mu=F5.element(2), pv=T5, m=1)
    )
    try_instance(
        WeilCubic(field=F5, a1=T5, a2=T5, mu=F5.element(2), pv=T5, m=1)
    )

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
            pv = Poly.from_ints(F, _IRREDUCIBLE_QUADRATIC[q])
        else:
            pv = Poly.from_ints(F, [rng.randrange(q), 1])
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
