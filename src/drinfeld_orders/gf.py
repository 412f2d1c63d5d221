"""Finite fields built as explicit towers.

A field is either a prime field F_p or an extension of another field by a
monic irreducible modulus supplied as a coefficient tuple.  Elements are
plain immutable Python values: an element of F_p is an int in range(p), an
element of a degree-e extension is a tuple of e base-field elements
(ascending powers of the generator).  The field object owns the arithmetic;
values themselves are inert, hashable and directly comparable, so they can
be used as dict keys without wrapping.

Towers nest: F_9 = F_3[y]/(y^2+1) has int coefficients, and a residue field
F_q[T]/(p) built on top of an extension F_q has tuple coefficients.  Field
equality is structural, so the same tower built twice compares equal.

Constructors here check only shape (primality, monic modulus).  Whether a
modulus is irreducible is a factorisation question; use
``factor.make_extension_field`` when that guarantee is needed.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FiniteField:
    """Shared interface of PrimeField and ExtensionField.

    Subclasses provide p, q, degree (over the prime field), zero, one and
    the core operations add/sub/neg/mul/inv/element/index.
    """

    p: int
    q: int
    degree: int
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def element(self, i: int):
        """The i-th element in the canonical enumeration, 0 <= i < q."""
        raise NotImplementedError

    def index(self, a) -> int:
        """Position of a in the canonical enumeration (inverse of element)."""
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def from_int(self, n: int):
        """The image of the integer n under Z -> F_p -> this field."""
        return self.element(n % self.p)

    def elements(self) -> Iterator:
        return (self.element(i) for i in range(self.q))

    def pth_root(self, a):
        """Inverse of the absolute Frobenius x -> x^p (always bijective)."""
        return self.pow(a, self.p ** (self.degree - 1))

    def is_square(self, a) -> bool:
        """Whether a is a square: always in characteristic 2, else by
        Euler's criterion a^((q-1)/2) = 1 for a nonzero."""
        if a == self.zero or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == self.one


class PrimeField(FiniteField):
    """F_p with elements represented as ints in range(p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.degree = 1
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def element(self, i: int):
        if not 0 <= i < self.p:
            raise DomainError(f"element index {i} out of range for GF({self.p})")
        return i

    def index(self, a) -> int:
        return a

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(FiniteField):
    """An extension of `base` by a monic modulus of degree e >= 1.

    Elements are tuples of e base-field values, ascending powers of the
    generator.  The modulus is a tuple of e+1 base values with leading
    coefficient one; irreducibility is the caller's responsibility.
    """

    def __init__(self, base: FiniteField, modulus):
        modulus = tuple(modulus)
        e = len(modulus) - 1
        if e < 1:
            raise DomainError("extension degree must be at least 1")
        if modulus[-1] != base.one:
            raise DomainError("extension modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.e = e
        self.p = base.p
        self.q = base.q**e
        self.degree = base.degree * e
        self.zero = (base.zero,) * e
        self.one = (base.one,) + (base.zero,) * (e - 1)

    def embed(self, c):
        """The image of a base-field element in this field."""
        return (c,) + (self.base.zero,) * (self.e - 1)

    def generator(self):
        """The class of the generator symbol (a root of the modulus)."""
        if self.e == 1:
            return (self.base.neg(self.modulus[0]),)
        return self.element(self.base.q)

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        e = self.e
        zero = base.zero
        acc = [zero] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                if bj == zero:
                    continue
                acc[i + j] = base.add(acc[i + j], base.mul(ai, bj))
        for i in range(len(acc) - 1, e - 1, -1):
            ci = acc[i]
            if ci == zero:
                continue
            acc[i] = zero
            for j in range(e):
                mj = self.modulus[j]
                if mj != zero:
                    acc[i - e + j] = base.sub(acc[i - e + j], base.mul(ci, mj))
        return tuple(acc[:e])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def element(self, i: int):
        if not 0 <= i < self.q:
            raise DomainError(f"element index {i} out of range for GF({self.q})")
        bq = self.base.q
        out = []
        for _ in range(self.e):
            i, r = divmod(i, bq)
            out.append(self.base.element(r))
        return tuple(out)

    def index(self, a) -> int:
        bq = self.base.q
        s = 0
        for c in reversed(a):
            s = s * bq + self.base.index(c)
        return s

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"
