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

An extension with q <= TABLE_CAP builds, on its first add, sub, mul, inv or
pow, the tables of a primitive element g: exp[k] = g^k, log[g^k] = k and the
Zech logarithms log(1 + g^k) (Huber, IEEE Trans. IT 36, 1990; Lidl and
Niederreiter, *Finite Fields*, ch. 9).  Products, inverses and powers are
then index arithmetic and sums one Zech lookup.  The tables are a write-once
cache: built at most once per field object and never changed after.  Larger
fields, and a reducible modulus (no element of order q - 1), keep the
schoolbook arithmetic on coefficient tuples, with inverses from the extended
Euclidean algorithm.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .errors import DomainError

# Building tables costs about q schoolbook products (33 ms for F_2401 on a
# 2-vCPU Xeon), more than the ~1,700 products such a field does per config.
TABLE_CAP = 2**10


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
    coefficient one; irreducibility is the caller's responsibility.  With
    q <= TABLE_CAP, add/sub/mul/inv/pow run on log tables built on first
    use; a value that is not an element then raises KeyError.
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

    # -- tables -----------------------------------------------------------

    @cached_property
    def _log(self):
        """log[g^k] = k and log[zero] = None for a primitive element g; also
        sets _exp, _zech and _log_neg_one.  Empty when the field has no
        tables (q > TABLE_CAP or a reducible modulus)."""
        exp = self._primitive_powers() if self.q <= TABLE_CAP else None
        if exp is None:
            return {}
        n = self.q - 1
        log = {x: k for k, x in enumerate(exp)}
        log[self.zero] = None
        zech = [log[self._add(self.one, x)] for x in exp]
        # both doubled, so that a sum of two logs, or a difference of two
        # (a negative index wraps), needs no reduction mod n
        self._exp = exp + exp
        self._zech = zech + zech
        self._log_neg_one = n // 2 if self.p != 2 else 0
        return log

    def _primitive_powers(self):
        """[g^0, ..., g^(q-2)] for the first element g of order q - 1, or
        None when some element is not a unit (a reducible modulus)."""
        one = self.one
        for i in range(1, self.q):
            g = self.element(i)
            powers, seen, x = [one], {one}, g
            while x not in seen:
                powers.append(x)
                seen.add(x)
                x = self._mul(x, g)
            if x != one:
                return None
            if len(powers) == self.q - 1:
                return powers
        return None

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        log = self._log
        if not log:
            return self._add(a, b)
        la, lb = log[a], log[b]
        if la is None:
            return b
        if lb is None:
            return a
        z = self._zech[lb - la]  # g^la + g^lb = g^la (1 + g^(lb-la))
        return self.zero if z is None else self._exp[la + z]

    def sub(self, a, b):
        log = self._log
        if not log:
            return self._sub(a, b)
        la, lb = log[a], log[b]
        if lb is None:
            return a
        lb += self._log_neg_one
        if la is None:
            return self._exp[lb]
        z = self._zech[lb - la]
        return self.zero if z is None else self._exp[la + z]

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        log = self._log
        if not log:
            return self._mul(a, b)
        la, lb = log[a], log[b]
        if la is None or lb is None:
            return self.zero
        return self._exp[la + lb]

    def inv(self, a):
        log = self._log
        if not log:
            return self._inv(a)
        la = log[a]
        if la is None:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-la]

    def pow(self, a, n: int):
        log = self._log
        if not log:
            return super().pow(a, n)
        la = log[a]
        if la is None:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.zero if n else self.one
        return self._exp[la * n % (self.q - 1)]

    # -- schoolbook arithmetic on coefficient tuples ------------------------

    def _add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def _sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def _mul(self, a, b):
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

    def _inv(self, a):
        """Inverse by the extended Euclidean algorithm on a and the modulus
        in base[y], keeping s with s*a = r mod the modulus for each
        remainder r."""
        base = self.base
        zero = base.zero

        def trim(c):
            while c and c[-1] == zero:
                c.pop()
            return c

        r0, r1 = list(self.modulus), trim(list(a))
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [], [base.one]
        while len(r1) > 1:
            inv_lc = base.inv(r1[-1])
            while len(r0) >= len(r1):
                c = base.mul(r0[-1], inv_lc)
                k = len(r0) - len(r1)
                s0 += [zero] * (len(s1) + k - len(s0))
                for i, x in enumerate(r1):
                    r0[i + k] = base.sub(r0[i + k], base.mul(c, x))
                for i, x in enumerate(s1):
                    s0[i + k] = base.sub(s0[i + k], base.mul(c, x))
                trim(r0)
                trim(s0)
            r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            raise ZeroDivisionError(f"{a} is a zero divisor (reducible modulus)")
        c = base.inv(r1[0])
        return tuple([base.mul(c, x) for x in s1] + [zero] * (self.e - len(s1)))

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
