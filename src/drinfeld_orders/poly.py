"""Dense univariate polynomials over a finite field.

Coefficients are stored ascending with trailing zeros stripped, so the
empty tuple is the zero polynomial and its degree is the sentinel -1.
Polynomials are immutable and hashable; all arithmetic is exact.

Every coefficient operation runs on the field's kernels, so the two
regimes of ``gf`` apply here too: sums, differences and negatives on
``vec_add``/``vec_sub``, the derivative on ``vec_int_mul``, scalar multiples
and products on ``poly_mul``, division on ``poly_divmod``, powers on
``gf.power_ladder``, and ``pow_mod`` and ``poly_gcd`` on one kernel call
each (``poly_pow_mod``, ``poly_gcd``), which converts the operands once and
runs the whole chain of products and remainders in the field's working
form.  Over F_p these are integer loops: division reduces each
coefficient mod p once, when it is read, and a product of two polynomials
with at least ``gf.KRONECKER_MIN`` nonzero coefficients each is packed
(Kronecker substitution, 2^w > n (p-1)^2 for w-bit digits, n the smaller
count of nonzero coefficients); a shorter or sparser one goes term by term.
Over an extension field with log tables (``gf.TABLE_CAP``) products and
divisions run on log indices, one Zech lookup per sum and no field call per
coefficient; above the cap the kernels loop through its packed operations.

The canonical order used everywhere for deterministic output sorts by
degree first, then lexicographically on coefficients from the leading one
down to the constant, comparing coefficients by their canonical index in
the field.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator

from .errors import DomainError
from .gf import FiniteField, elem_str, power_ladder, trim


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable):
        self.field = field
        self.coeffs = trim(tuple(coeffs), field.zero)

    @classmethod
    def _exact(cls, field: FiniteField, coeffs) -> "Poly":
        """From coefficients that end in a nonzero one, as a product or a
        quotient over a field does: no copy-and-strip pass."""
        out = object.__new__(cls)
        out.field = field
        out.coeffs = tuple(coeffs)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FiniteField) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FiniteField) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: FiniteField) -> "Poly":
        return cls(field, (field.zero, field.one))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self):
        """Leading coefficient; zero for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else self.field.zero

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (self.field.one,)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(a) > len(b):
            return Poly._exact(F, F.vec_add(a, b) + a[len(b) :])
        return Poly(F, F.vec_add(a, b))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        F = self.field
        a, b = self.coeffs, other.coeffs
        pad = len(b) - len(a)
        out = F.vec_sub(a + (F.zero,) * pad, b) + a[len(b) :]
        return Poly._exact(F, out) if pad else Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly._exact(F, F.vec_sub((F.zero,) * len(self.coeffs), self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        return Poly._exact(F, F.poly_mul(a, b))

    def scale(self, c) -> "Poly":
        """Multiply by a field scalar."""
        F = self.field
        if c == F.zero:
            return Poly(F, ())
        return Poly._exact(F, F.poly_mul(self.coeffs, (c,)))

    def scale_int(self, n: int) -> "Poly":
        return self.scale(self.field.from_int(n))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        return power_ladder(self, n, mul) if n else Poly.one(self.field)

    def __divmod__(self, other: "Poly"):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        if len(self.coeffs) < len(other.coeffs):
            return Poly(F, ()), self
        q, r = F.poly_divmod(self.coeffs, other.coeffs)
        return Poly._exact(F, q), Poly(F, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if r:
            raise DomainError("inexact polynomial division")
        return q

    def divides(self, other: "Poly") -> bool:
        """True when self divides other (self nonzero, or other zero)."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def pow_mod(self, n: int, modulus: "Poly") -> "Poly":
        if n < 0:
            raise DomainError("negative exponent in pow_mod")
        if modulus.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        return Poly(F, F.poly_pow_mod(self.coeffs, n, modulus.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DomainError("monic of zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.lc))

    def derivative(self) -> "Poly":
        F, c = self.field, self.coeffs
        return Poly(F, F.vec_int_mul(c[1:], range(1, len(c))))

    # -- ordering, formatting ----------------------------------------------

    def sort_key(self):
        """Canonical key: degree, then coefficients leading to constant."""
        idx = self.field.index
        return (self.degree, tuple(idx(c) for c in reversed(self.coeffs)))

    def to_str(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        zero, one = self.field.zero, self.field.one
        parts = []
        for i in range(len(coeffs) - 1, 0, -1):
            c = coeffs[i]
            if c != zero:
                head = "" if c == one else elem_str(c) + "*"
                parts.append(f"{head}T" if i == 1 else f"{head}T^{i}")
        if coeffs[0] != zero:
            parts.append(elem_str(coeffs[0]))
        return "+".join(parts)

    def __repr__(self):
        return f"Poly({self.to_str()})"

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor (``gf``'s kernel).  gcd(f, 0) is
    monic(f); gcd(0, 0) raises DomainError."""
    return Poly._exact(f.field, f.field.poly_gcd(f.coeffs, g.coeffs))


def polys_below_degree(field: FiniteField, d: int) -> Iterator[Poly]:
    """All q^d polynomials of degree < d, in canonical index order."""
    q = field.q
    for n in range(q**d):
        coeffs = []
        k = n
        for _ in range(d):
            k, rem = divmod(k, q)
            coeffs.append(field.element(rem))
        yield Poly(field, coeffs)


def valuation(f: Poly, p: Poly) -> int:
    """Exact power of p dividing f (f nonzero, deg p >= 1): one
    ``poly_divmod`` of coefficient tuples per power, with no Poly built on
    the way."""
    if f.is_zero:
        raise DomainError("valuation of zero polynomial")
    if p.degree < 1:
        raise DomainError("valuation at a constant")
    F, a, b = f.field, f.coeffs, p.coeffs
    zeros = [F.zero] * p.degree
    v = 0
    while len(a) >= len(b):
        a, rem = F.poly_divmod(a, b)
        if rem != zeros:
            return v
        v += 1
    return v
