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
every element it has twisted, so a twist is a list lookup.  Each
``DrinfeldModule`` keeps phi_{T^k} for the k used so far, and
phi_a = sum_k a_k*phi_{T^k} scales their coefficients by the a_k in F_q.
pi = tau^n is central and fixes L, so a product by pi^j only shifts the
coefficients up by n*j: sum_j phi_(a_j)*pi^j (the relation M(pi) and the
numerators N) is one such sum with shifts (``phi_combination``).

All of it runs on packed ints (``gf.Packing``, over L = F_q[z]/(f) with
F_q = F_p or F_p[y]/(g)) and reduces late:
- a coefficient of a product u*v is the sum over i of u_i times
  v_(m-i)^(q^i), made of big-int products of the packed u_i (packed once)
  and the packed orbits of the v_j (cached per ring), and folded once;
- the orbit itself is F_p-linear: F_q is fixed by the q-Frobenius, so
  x^q = sum_(i,j) x_ij y^j (z^q)^i over the F_p-coordinates x_ij of x, and
  it needs no power in L; z^q and the rows y^j (z^q)^i are products on the
  ring's own packing, built once per ring;
- phi_{T^k} is kept packed and reduced, so a coefficient of
  sum_j phi_(a_j)*pi^j, a sum of reduced elements times scalars in F_q, is
  unpacked once over F_p and never folded; over F_p[y]/(g) a scalar is
  packed as an element of L and each sum is folded once;
- right division reduces only the top remainder coefficient at each step
  (``Packing.reduce`` returns the canonical packed element, so zero is the
  int 0), keeps each quotient coefficient packed and unpacks the quotient
  once at the end.
At most ``SKEW_TERMS`` products go into a sum before it is folded; a longer
sum is first reduced to one summand.  Right division inverts lc(d) by
``gf.inverse_mod`` on the base field's kernels, so L builds neither log
tables nor a second ``Packing``.  The orbit of z also decides
whether L is a field (``SkewRing.is_field``, Rabin's criterion), so
``cli`` tests L on the one ring per config that its modules then use.

``survey_candidates`` is the one membership loop: it decides both
generators of every accepted order, and ``identify_endo_ring`` reads
End(phi) off its rows.  A generator over d = 1 lies in A[pi], which is
inside End(phi), so only the others go through the right division.
``order_generator_kelems`` writes each generator over pi in one step, over
the common denominator g^2*I of omega1 and omega2, and puts it in lowest
terms once.
"""

from __future__ import annotations

from itertools import chain, cycle, repeat
from operator import add, mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .cubic import MaximalOrderData, StandardForm, WeilCubic
from .errors import DomainError, NoCandidateError
from .gf import ExtensionField, Packing, inverse_mod, power_ladder
from .orders import OrderHNF
from .poly import Poly, poly_gcd


# Products summed into one coefficient before it is folded (gf.Packing);
# a longer sum is reduced to one summand first.
SKEW_TERMS = 64


class SkewRing:
    """The twisted polynomial ring L{tau} with tau*lam = lam^q*tau."""

    def __init__(self, L: ExtensionField):
        self.L = L
        self.base = L.base
        self.q = L.base.q
        self.n = L.e  # [L : F_q]
        self._pk = pk = Packing(L, SKEW_TERMS)
        self._packed_orbits = {}  # lam -> the orbit of lam, packed
        # y^j (z^q)^i packed, listed as the F_p-coordinates x_ij of an
        # element are: (y^j z^i)^q = y^j (z^q)^i, as y^q = y; z^q and the
        # rows are products on this packing, none made by L itself
        reduce = pk.reduce
        zq = power_ladder(pk.pack(L.generator()), self.q, lambda a, b: reduce(a * b))
        ys = [pk.pack(L.embed(L.base.element(L.p**j))) for j in range(1, L.base.degree)]
        rows, x = [], pk.pack(L.one)
        for i in range(self.n):
            if i:
                x = reduce(x * zq)
            rows.append(x)
            rows += [reduce(x * y) for y in ys]
        self._frobenius_rows = rows

    def is_field(self) -> bool:
        """Whether L's modulus f is irreducible, by Rabin's criterion
        (Rabin, SIAM J. Comput. 9, 1980): z^(q^n) = z, and
        gcd(prod over the primes r | n of (z^(q^(n/r)) - z), f) = 1 with
        the product taken in L.  For a reducible f, L is a ring and
        x -> x^q still its F_q-linear Frobenius, so the orbit of z means
        the same there."""
        L, pk, n = self.L, self._pk, self.n
        z = L.generator()
        orbit = self._packed_orbit(z)
        if self._frobenius(pk.unpack(orbit[-1])) != z:
            return False
        minus_z, prod = pk.pack(L.neg(z)), pk.pack(L.one)
        for r in range(2, n + 1):
            if n % r == 0 and all(r % s for s in range(2, r)):
                prod = pk.reduce(prod * pk.reduce(orbit[n // r] + minus_z))
        B = self.base
        return poly_gcd(Poly(B, pk.unpack(prod)), Poly(B, L.modulus)).is_one

    def twist(self, lam, k: int):
        """lam^(q^k); the k-th power of the relative Frobenius."""
        k %= self.n
        return self._pk.unpack(self._packed_orbit(lam)[k]) if k else lam

    def _frobenius(self, x):
        """x^q: one sum of the Frobenius rows times the F_p-coordinates of
        x, unpacked without a fold."""
        coords = chain.from_iterable(x) if self.base.degree > 1 else x
        return self._pk.unpack(sum(map(mul, coords, self._frobenius_rows)))

    def _packed_orbit(self, lam):
        """[lam, lam^q, ..., lam^(q^(n-1))] packed, built once per element
        and ring."""
        orbit = self._packed_orbits.get(lam)
        if orbit is None:
            pack, x = self._pk.pack, lam
            orbit = [pack(x)]
            for _ in range(self.n - 1):
                x = self._frobenius(x)
                orbit.append(pack(x))
            self._packed_orbits[lam] = orbit
        return orbit

    def _product(self, pu, v):
        """The unfolded coefficient sums of u*v, from the packed
        coefficients pu of u: entry m is sum_i u_i * v_(m-i)^(q^i)."""
        pk, zero = self._pk, self.L.zero
        acc = [0] * (len(pu) + len(v) - 1)
        terms = 0
        for j, y in enumerate(v):
            if y == zero:
                continue
            if terms == pk.terms and len(pu) > pk.terms:
                acc = [pk.reduce(c) for c in acc]
                terms = 1
            terms += 1
            end = j + len(pu)
            acc[j:end] = map(add, acc[j:end], map(mul, pu, cycle(self._packed_orbit(y))))
        return acc

    def poly(self, coeffs: Sequence) -> "SkewPoly":
        return SkewPoly(self, coeffs)

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

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            return NotImplemented
        ring = self.ring
        if not self.coeffs or not other.coeffs:
            return SkewPoly(ring, ())
        fold, pack = ring._pk.fold, ring._pk.pack
        acc = ring._product([pack(x) for x in self.coeffs], other.coeffs)
        return SkewPoly(ring, [fold(c) for c in acc])

    def right_divmod(self, d: "SkewPoly") -> Tuple["SkewPoly", "SkewPoly"]:
        """(w, r) with self = w*d + r and deg_tau r < deg_tau d."""
        if d.is_zero:
            raise DomainError("skew division by zero")
        ring = self.ring
        L = ring.L
        dn = d.degree
        if len(self.coeffs) - 1 < dn:
            return SkewPoly(ring, ()), self
        # 1/lc(d)^(q^k) = (1/lc(d))^(q^k): one inversion, by inverse_mod on
        # the base field's kernels (no tables for L), then twists
        inv_orbit = ring._packed_orbit(inverse_mod(L.base, d.coeffs[-1], L.modulus))
        # rem holds unfolded sums, and only the top one is reduced at each
        # step; column r lists (-d_j)^(q^r) for j < dn (the top cancels)
        pk, n = ring._pk, ring.n
        reduce = pk.reduce
        orbits = [ring._packed_orbit(L.neg(c)) for c in d.coeffs[:dn]]
        columns = [[orbit[r] for orbit in orbits] for r in range(n)]
        rem = [pk.pack(c) for c in self.coeffs]
        quo = [0] * (len(rem) - dn)  # packed
        terms = 1
        for k in range(len(quo) - 1, -1, -1):
            c = reduce(rem[k + dn])
            if not c:
                continue
            if terms == pk.terms:
                rem[: k + dn] = map(reduce, rem[: k + dn])
                terms = 1
            terms += 1
            r = k % n
            qk = quo[k] = reduce(c * inv_orbit[r])
            end = k + dn
            rem[k:end] = map(add, rem[k:end], map(mul, columns[r], repeat(qk)))
        return SkewPoly(ring, map(pk.unpack, quo)), SkewPoly(ring, map(pk.fold, rem[:dn]))

    def __repr__(self):
        return f"SkewPoly({self.coeffs})"

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
        # phi_{T^k}, grown on demand, as lists of packed coefficients
        pk = ring._pk
        self._powers = [[pk.pack(ring.L.one)], [pk.pack(c) for c in phi_t.coeffs]]

    def _powers_below(self, k: int) -> list:
        """phi_{T^0}, ..., phi_{T^(k-1)} (at least)."""
        powers, ring = self._powers, self.ring
        while len(powers) < k:
            acc = ring._product(powers[-1], self.phi_t.coeffs)
            powers.append([ring._pk.reduce(c) for c in acc])
        return powers

    def phi(self, a: Poly) -> SkewPoly:
        """The unique ring-homomorphism image of a with T -> phi_T."""
        return self.phi_combination((a,))

    def phi_combination(self, polys: Sequence[Poly]) -> SkewPoly:
        """sum_j phi_(polys[j]) * pi^j, with phi_a = sum_k a_k * phi_{T^k}.

        The a_k lie in F_q, so each term scales the coefficients of
        phi_{T^k} and needs no twist, and pi^j shifts them by n*j.  Over F_p
        a term is a reduced element times one digit, so each coefficient of
        the sum is unpacked once and never folded; over F_p[y]/(g) the
        scalar is packed as an element of L and each sum is folded once.
        """
        ring = self.ring
        L, n, pk = ring.L, ring.n, ring._pk
        powers = self._powers_below(max(len(a.coeffs) for a in polys))
        size = max(
            (3 * len(a.coeffs) - 2 + n * j for j, a in enumerate(polys) if a.coeffs),
            default=0,
        )
        tower = L.base.degree > 1
        zero = L.base.zero
        acc = [0] * size
        terms = 0
        for j, a in enumerate(polys):
            for c, power in zip(a.coeffs, powers):
                if c == zero:
                    continue
                if terms == pk.terms:
                    acc = [pk.reduce(x) for x in acc]
                    terms = 1
                terms += 1
                if tower:
                    c = pk.pack(L.embed(c))
                start, end = n * j, n * j + len(power)
                acc[start:end] = map(add, acc[start:end], map(mul, power, repeat(c)))
        finish = pk.fold if tower else pk.unpack
        return SkewPoly(ring, [finish(x) for x in acc])


def verify_weil_action(D: DrinfeldModule, W: WeilCubic) -> bool:
    """True iff phi_a0 + phi_a2*pi + phi_a1*pi^2 + pi^3 = 0 in L{tau},
    i.e. D lies in the isogeny class described by W."""
    return D.phi_combination(W.coefficients()).is_zero


class KElem(NamedTuple):
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
        if d.lc != d.field.one:
            u = d.field.inv(d.lc)
            n0, n1, n2, d = (x.scale(u) for x in (n0, n1, n2, d))
        return KElem(n0, n1, n2, d)


def element_membership(D: DrinfeldModule, e: KElem) -> Optional[SkewPoly]:
    """The endomorphism realising e, or None when e is not in End(phi).

    Computes N = phi_n0 + phi_n1*pi + phi_n2*pi^2 and right-divides by
    phi_d; a zero remainder certifies membership and the quotient is the
    endomorphism.
    """
    n = D.phi_combination((e.n0, e.n1, e.n2))
    w, r = n.right_divmod(D.phi(e.d))
    if r.is_zero:
        return w
    return None


def order_generator_kelems(
    order: OrderHNF, sf: StandardForm, mo: MaximalOrderData
) -> Tuple[KElem, KElem]:
    """The two non-trivial generators c*omega1 + b*omega2 and a*omega2,
    each put in lowest terms once over the common denominator g*gI,
    gI = g*I, of

        omega1 = (t + pi)/g            with t = a1/3 = sf.t
        omega2 = (n0 + n1*pi + pi^2) / (g*gI)

    where n0 = alpha2*g^2 + beta2*g*t + t^2 and n1 = beta2*g + 2t, read
    from the standard form (t, g) and the maximal-order data (I, alpha2,
    beta2) alone.  The basis (omega1, omega2) itself is the pair of
    O_max = (1, 0, 1).
    """
    t, g = sf.t, sf.g
    gI = g * mo.index
    d = g * gI
    n0 = mo.alpha2 * g * g + mo.beta2 * g * t + t * t
    n1 = mo.beta2 * g + t.scale_int(2)
    a, b, c = order.a, order.b, order.c
    gen1 = KElem.make(c * gI * t + b * n0, c * gI + b * n1, b, d)
    gen2 = KElem.make(a * n0, a * n1, a, d)
    return gen1, gen2


class MembershipSurvey(NamedTuple):
    """Per-candidate generator verdicts for one module."""

    order: OrderHNF
    generator_verdicts: Tuple[bool, bool]

    @property
    def all_members(self) -> bool:
        return all(self.generator_verdicts)


def survey_candidates(
    D: DrinfeldModule,
    candidates: Sequence[OrderHNF],
    sf: StandardForm,
    mo: MaximalOrderData,
) -> List[MembershipSurvey]:
    """Both generator verdicts of every candidate, in the given order.  A
    generator over d = 1 lies in A[pi], inside End(phi): it is a member
    without a test."""
    out = []
    for order in candidates:
        verdicts = tuple(
            gen.d.is_one or element_membership(D, gen) is not None
            for gen in order_generator_kelems(order, sf, mo)
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
