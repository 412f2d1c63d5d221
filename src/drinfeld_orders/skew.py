"""Twisted polynomials over a finite A-field, Drinfeld modules, and the
right-division membership test.

L{tau} is the ring of polynomials in tau over L with the commutation rule
tau * lam = lam^q * tau, q the order of the base field.  A rank-3 Drinfeld
module is given by phi_T of tau-degree 3; its A-module structure phi_a is
the ring-homomorphism image of a under T -> phi_T.  The Frobenius of L is
pi = tau^n with n = [L : F_q]; it is central in L{tau}.

An element (n0 + n1*pi + n2*pi^2)/d of the Frobenius field acts as an
endomorphism of phi exactly when the right division of
N = phi_n0 + phi_n1*pi + phi_n2*pi^2 by phi_d leaves remainder zero; the
quotient w then satisfies w*phi_d = N and commutes with phi_T because
(w*phi_T - phi_T*w)*phi_d = N*phi_T - phi_T*N = 0 and L{tau} has no zero
divisors.

The arithmetic never recomputes a Frobenius power.  Each ``SkewRing``
(one per config's L) keeps the orbit lam, lam^q, ..., lam^(q^(n-1)) of
every element it has twisted, so a twist is a list lookup after n-1 q-th
powers.  A product s*pi^k only prepends n*k zero coefficients
(``SkewPoly.mul_pi``).  Each ``DrinfeldModule`` keeps phi_{T^k} for the
k used so far, and phi_a = sum_k a_k*phi_{T^k} scales their coefficients
by the a_k in F_q.

``survey_candidates`` is the one membership loop: it tests both generators
of every accepted order, and ``identify_endo_ring`` reads End(phi) off its
rows.  The CLI's ``check-module`` shows the ``analyze`` line for one module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cubic import MaximalOrderData, StandardForm, WeilCubic
from .errors import DomainError, NoCandidateError
from .gf import ExtensionField
from .orders import OrderHNF
from .poly import Poly, poly_gcd


class SkewRing:
    """The twisted polynomial ring L{tau} with tau*lam = lam^q*tau."""

    def __init__(self, L: ExtensionField):
        self.L = L
        self.base = L.base
        self.q = L.base.q
        self.n = L.e  # [L : F_q]
        self._orbits = {}  # lam -> [lam, lam^q, ..., lam^(q^(n-1))]

    def twist(self, lam, k: int):
        """lam^(q^k); the k-th power of the relative Frobenius."""
        k %= self.n
        if k == 0:
            return lam
        orbit = self._orbits.get(lam)
        if orbit is None:
            orbit = [lam]
            for _ in range(self.n - 1):
                orbit.append(self.L.pow(orbit[-1], self.q))
            self._orbits[lam] = orbit
        return orbit[k]

    def poly(self, coeffs: Sequence) -> "SkewPoly":
        return SkewPoly(self, coeffs)

    def zero(self) -> "SkewPoly":
        return SkewPoly(self, ())

    def one(self) -> "SkewPoly":
        return SkewPoly(self, (self.L.one,))

    def __eq__(self, other):
        return isinstance(other, SkewRing) and other.L == self.L

    def __hash__(self):
        return hash(("SkewRing", self.L))


class SkewPoly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SkewRing, coeffs):
        coeffs = list(coeffs)
        zero = ring.L.zero
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.L.zero

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            return NotImplemented
        L = self.ring.L
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(
            self.ring, (L.add(self.coeff(i), other.coeff(i)) for i in range(n))
        )

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            return NotImplemented
        ring = self.ring
        L = ring.L
        zero = L.zero
        if not self.coeffs or not other.coeffs:
            return SkewPoly(ring, ())
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ui in enumerate(self.coeffs):
            if ui == zero:
                continue
            for j, vj in enumerate(other.coeffs):
                if vj == zero:
                    continue
                out[i + j] = L.add(out[i + j], L.mul(ui, ring.twist(vj, i)))
        return SkewPoly(ring, out)

    def mul_pi(self, k: int) -> "SkewPoly":
        """self * pi^k: pi = tau^n is central and fixes L, so this only
        shifts the coefficients up by n*k."""
        if not self.coeffs:
            return self
        ring = self.ring
        return SkewPoly(ring, (ring.L.zero,) * (ring.n * k) + self.coeffs)

    def right_divmod(self, d: "SkewPoly") -> Tuple["SkewPoly", "SkewPoly"]:
        """(w, r) with self = w*d + r and deg_tau r < deg_tau d."""
        if d.is_zero:
            raise DomainError("skew division by zero")
        ring = self.ring
        L = ring.L
        rem = list(self.coeffs)
        dn = d.degree
        if len(rem) - 1 < dn:
            return ring.zero(), self
        # 1/lc(d)^(q^k) = (1/lc(d))^(q^k): one inversion, then twists
        inv_lc = L.inv(d.coeffs[-1])
        qcoeffs = [L.zero] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == L.zero:
                continue
            k = i - dn
            qk = L.mul(c, ring.twist(inv_lc, k))
            qcoeffs[k] = qk
            for j, dj in enumerate(d.coeffs):
                rem[k + j] = L.sub(rem[k + j], L.mul(qk, ring.twist(dj, k)))
        return SkewPoly(ring, qcoeffs), SkewPoly(ring, rem[:dn])

    def sort_key(self):
        idx = self.ring.L.index
        return (self.degree, tuple(idx(c) for c in reversed(self.coeffs)))

    def to_str(self) -> str:
        if self.is_zero:
            return "0"
        L = self.ring.L
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == L.zero:
                continue
            cs = "(" + ",".join(map(str, c)) + ")"
            if i == 0:
                parts.append(cs)
            elif c == L.one:
                parts.append("tau" if i == 1 else f"tau^{i}")
            else:
                parts.append(f"{cs}*tau" if i == 1 else f"{cs}*tau^{i}")
        return "+".join(parts)

    def __repr__(self):
        return f"SkewPoly({self.to_str()})"

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and other.ring == self.ring
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))


class DrinfeldModule:
    """A rank-3 module over the A-field L, given by the image of T."""

    def __init__(self, ring: SkewRing, phi_t: SkewPoly):
        if phi_t.degree != 3:
            raise DomainError(
                f"phi_T has tau-degree {phi_t.degree}; rank 3 over a degree-1 "
                "base requires tau-degree exactly 3"
            )
        self.ring = ring
        self.phi_t = phi_t
        self._powers = [ring.one(), phi_t]  # phi_{T^k}, grown on demand

    def phi(self, a: Poly) -> SkewPoly:
        """The unique ring-homomorphism image of a with T -> phi_T, as
        sum_k a_k * phi_{T^k}; the a_k lie in F_q, so each term scales the
        coefficients of phi_{T^k} (tuples over F_q) and needs no twist."""
        powers = self._powers
        while len(powers) < len(a.coeffs):
            powers.append(powers[-1] * self.phi_t)
        L, base = self.ring.L, self.ring.base
        zero, one = base.zero, base.one
        out = [L.zero] * (3 * len(a.coeffs))
        for c, power in zip(a.coeffs, powers):
            if c == zero:
                continue
            for i, lam in enumerate(power.coeffs):
                if c != one:
                    lam = tuple(base.mul(c, x) for x in lam)
                out[i] = L.add(out[i], lam)
        return SkewPoly(self.ring, out)


def verify_weil_action(D: DrinfeldModule, W: WeilCubic) -> bool:
    """True iff pi^3 + phi_a1*pi^2 + phi_a2*pi + phi_a0 = 0 in L{tau},
    i.e. D lies in the isogeny class described by W."""
    acc = D.ring.one().mul_pi(3)
    acc = acc + D.phi(W.a1).mul_pi(2)
    acc = acc + D.phi(W.a2).mul_pi(1)
    acc = acc + D.phi(W.a0)
    return acc.is_zero


@dataclass(frozen=True)
class KElem:
    """(n0 + n1*pi + n2*pi^2) / d with entries in A, gcd of all four 1 and
    d monic."""

    n0: Poly
    n1: Poly
    n2: Poly
    d: Poly

    @staticmethod
    def make(n0: Poly, n1: Poly, n2: Poly, d: Poly) -> "KElem":
        if d.is_zero:
            raise DomainError("KElem with zero denominator")
        g = d
        for t in (n0, n1, n2):
            g = poly_gcd(g, t)
        if not g.is_one:
            n0, n1, n2, d = (x.exact_div(g) for x in (n0, n1, n2, d))
        u = d.field.inv(d.lc)
        if d.lc != d.field.one:
            n0, n1, n2, d = (x.scale(u) for x in (n0, n1, n2, d))
        return KElem(n0, n1, n2, d)

    def add(self, other: "KElem") -> "KElem":
        return KElem.make(
            self.n0 * other.d + other.n0 * self.d,
            self.n1 * other.d + other.n1 * self.d,
            self.n2 * other.d + other.n2 * self.d,
            self.d * other.d,
        )

    def scale_poly(self, f: Poly) -> "KElem":
        return KElem.make(self.n0 * f, self.n1 * f, self.n2 * f, self.d)


def element_membership(D: DrinfeldModule, e: KElem) -> Optional[SkewPoly]:
    """The endomorphism realising e, or None when e is not in End(phi).

    Computes N = phi_n0 + phi_n1*pi + phi_n2*pi^2 and right-divides by
    phi_d; a zero remainder certifies membership and the quotient is the
    endomorphism.
    """
    n = D.phi(e.n0) + D.phi(e.n1).mul_pi(1) + D.phi(e.n2).mul_pi(2)
    w, r = n.right_divmod(D.phi(e.d))
    if r.is_zero:
        return w
    return None


def basis_kelems(W: WeilCubic, sf: StandardForm, mo: MaximalOrderData) -> Tuple[KElem, KElem]:
    """(omega1, omega2) rewritten over pi:

        omega1 = (t + pi)/g            with t = a1/3
        omega2 = (alpha2*g^2 + beta2*g*(t+pi) + (t+pi)^2) / (g^2*I)
    """
    F = W.field
    third = F.inv(F.from_int(3))
    t = W.a1.scale(third)
    g = sf.g
    one = Poly.one(F)
    omega1 = KElem.make(t, one, Poly.zero(F), g)
    n0 = mo.alpha2 * g * g + mo.beta2 * g * t + t * t
    n1 = mo.beta2 * g + t.scale_int(2)
    omega2 = KElem.make(n0, n1, one, g * g * mo.index)
    return omega1, omega2


def order_generator_kelems(
    order: OrderHNF, W: WeilCubic, sf: StandardForm, mo: MaximalOrderData
) -> Tuple[KElem, KElem]:
    """The two non-trivial generators c*omega1 + b*omega2 and a*omega2."""
    omega1, omega2 = basis_kelems(W, sf, mo)
    gen1 = omega1.scale_poly(order.c).add(omega2.scale_poly(order.b))
    gen2 = omega2.scale_poly(order.a)
    return gen1, gen2


@dataclass(frozen=True)
class MembershipSurvey:
    """Per-candidate generator verdicts for one module."""

    order: OrderHNF
    generator_verdicts: Tuple[bool, bool]

    @property
    def all_members(self) -> bool:
        return all(self.generator_verdicts)


def survey_candidates(
    D: DrinfeldModule,
    candidates: Sequence[OrderHNF],
    W: WeilCubic,
    sf: StandardForm,
    mo: MaximalOrderData,
) -> List[MembershipSurvey]:
    """Both generator verdicts of every candidate, in the given order."""
    out = []
    for order in candidates:
        gen1, gen2 = order_generator_kelems(order, W, sf, mo)
        verdicts = (
            element_membership(D, gen1) is not None,
            element_membership(D, gen2) is not None,
        )
        out.append(MembershipSurvey(order=order, generator_verdicts=verdicts))
    return out


def identify_endo_ring(survey: Sequence[MembershipSurvey]) -> OrderHNF:
    """End(phi) read off a membership survey: the largest surveyed order
    (smallest ``sort_key``) whose generators all act as endomorphisms.

    Every all-member row is an order inside End(phi), End(phi) is itself a
    row, and a proper suborder has an index in O_max of larger degree
    (deg a + deg c, the key's first entry), so the smallest key is End(phi).
    """
    members = [row.order for row in survey if row.all_members]
    if not members:
        raise NoCandidateError(
            "no candidate order, not even A[pi], realises the module's "
            "endomorphisms; inputs are inconsistent"
        )
    return min(members, key=lambda o: o.sort_key())
