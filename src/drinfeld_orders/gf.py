"""Finite fields built as explicit towers.

A field is either a prime field F_p or an extension of another field by a
monic irreducible modulus supplied as a coefficient tuple.  Elements are
plain immutable Python values: an element of F_p is an int in range(p), an
element of a degree-e extension is a tuple of e base-field elements
(ascending powers of the generator).  The field object owns the arithmetic;
values themselves are inert, hashable and directly comparable, so they can
be used as dict keys without wrapping.

Towers nest two levels deep: F_9 = F_3[y]/(y^2+1) has int coefficients, and
the field L = F_q[z]/(f) of the modules, built over an extension F_q, has
tuple coefficients; an extension's base is F_p or of degree >= 2 over F_p.
Field equality is structural, so the same tower built twice compares equal.

Constructors here check only shape: primality, and a modulus monic of
degree >= 1, checked by ``ExtensionField`` alone.  Whether a modulus is
irreducible is decided by Ben-Or's test in ``factor.make_extension_field``
for F_q, and for the modules' field L by Rabin's criterion on the
Frobenius of its skew ring (``skew``).

Extension arithmetic runs in one of two regimes, chosen per field object:

* log tables, for q <= TABLE_CAP: on its first add, sub, mul or inv the
  field builds the tables of a primitive element g: exp[k] = g^k,
  log[g^k] = k and the Zech logarithms log(1 + g^k) (Huber, IEEE Trans. IT
  36, 1990; Lidl and Niederreiter, *Finite Fields*, ch. 9).  Products and
  inverses are then index arithmetic and sums one Zech lookup.  g is the
  first element of order q - 1 from index base.q on (the elements before
  it lie in the base field), found by walking orbits on packed products
  (``Packing``).  The tables are a write-once cache: built at most once
  per field object and never changed after.
* packed ints, above the cap (and for a reducible modulus, which has no
  element of order q - 1): a product packs the F_p-coordinates of each
  operand into one int, makes one big-int multiply (Kronecker substitution
  in z and y; von zur Gathen and Gerhard, *Modern Computer Algebra*, section
  8.4), folds the digits outside the basis back with packed rows built
  once per field on the base field's kernels and takes every digit mod p
  in one multiply-shift step (``Packing``), with digits wide enough for
  that step.  ``skew`` folds a sum of many products at once, and keeps what
  it reduces packed.  Building the tables multiplies the same way.  Sums,
  differences and negatives go coordinatewise through the base field.

Powers come from ``power_ladder``, the one square-and-multiply loop, in
every field (over ``mul``, so a tabled field squares on its tables), and
``poly.Poly`` shares it.  F_p inverts by ``pow``; outside the tables, an
extension inverts by ``inverse_mod``, the one extended Euclidean
algorithm, run on the base field's polynomial kernels, which ``skew``
(lc(d) in L) and ``cubic`` (2 c1 modulo part of the index) call too.

``poly.Poly`` combines coefficients only through the kernels here, on
coefficient sequences: ``vec_add``, ``vec_sub``, ``vec_int_mul``,
``poly_mul``, ``poly_divmod``, and the two chained loops ``poly_gcd``
(Euclid on remainders) and ``poly_pow_mod`` (``power_ladder`` over a
product and a remainder).  The polynomial kernels run in the field's
working form (``_form``): ints over F_p, logs over an extension with
tables, the elements otherwise.  Each call converts its operands into it
once and its result out of it once; in between, ``poly_gcd`` and
``poly_pow_mod`` run on the form's one product core and one division
core, with no field call and no conversion per step.  One more kernel,
``poly_has_unit_root``, answers whether a polynomial has a root in F_q*,
the test behind ``factor.is_irreducible`` in degree 2 and 3.  It exists
in two forms only: on ints, Horner at all units at once, one list per
coefficient; on logs, Horner at each unit with one Zech lookup per
coefficient, up to the first root.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import repeat

from .errors import DomainError

# Building tables costs about q schoolbook products (33 ms for F_2401 on a
# 2-vCPU Xeon), more than the ~1,700 products such a field does per config.
TABLE_CAP = 2**10


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


# A product in F_p[T] is packed once both factors have this many nonzero
# coefficients; a short or sparse factor is cheaper term by term.
KRONECKER_MIN = 4


def _pack(digits, w: int) -> int:
    """sum_i digits[i] * 2^(w*i): one int with w bits per digit."""
    x = 0
    for d in reversed(digits):
        x = x << w | d
    return x


def power_ladder(x, n: int, mul):
    """x^n for n >= 1 under the product `mul`, by square and multiply from
    the top bit of n down, starting from x, so no product has the factor 1."""
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def elem_str(c) -> str:
    """A field element as the reports write it: an int as itself, a tuple of
    coordinates as (c0,c1,...)."""
    return str(c) if isinstance(c, int) else "(" + ",".join(map(elem_str, c)) + ")"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; DomainError for n >= MR_BOUND, where the
    fixed bases no longer decide."""
    if n >= MR_BOUND:
        raise DomainError(f"{n} is too large: primality is decided below {MR_BOUND}")
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inverse_mod(B, a, f):
    """The inverse of a modulo f over the field B, as deg f entries, for
    coefficient sequences with len(a) < len(f).  The extended Euclidean
    algorithm on a and f in B[y] (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, section 3.2), on B's polynomial kernels, keeping s
    with s*a = r mod f for each remainder r."""
    zero = B.zero
    r0, r1 = list(f), trim(a, zero)
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    s0, s1 = [], [B.one]
    while len(r1) > 1:
        quo, rem = B.poly_divmod(r0, r1)
        qs = B.poly_mul(quo, s1)  # longer than s0: deg s grows each step
        r0, r1 = r1, trim(rem, zero)
        s0, s1 = s1, list(B.vec_sub(s0 + [zero] * (len(qs) - len(s0)), qs))
    if not r1:
        raise ZeroDivisionError(f"{a} is a zero divisor (reducible modulus)")
    s = B.poly_mul((B.inv(r1[0]),), s1)
    return tuple(s + [zero] * (len(f) - 1 - len(s)))


class FiniteField:
    """Shared interface of PrimeField and ExtensionField.

    Subclasses provide p, q, degree (over the prime field), zero, one and
    the core operations add/sub/neg/mul/inv and ``vec_int_mul``, plus the
    canonical enumeration: element(i) is the i-th element for 0 <= i < q,
    and index(a) its inverse.
    """

    p: int
    q: int
    degree: int
    zero = None
    one = None

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        return power_ladder(a, n, self.mul) if n else self.one

    def from_int(self, n: int):
        """The image of the integer n under Z -> F_p -> this field."""
        return self.element(n % self.p)

    def pth_root(self, a):
        """Inverse of the absolute Frobenius x -> x^p (always bijective)."""
        return self.pow(a, self.p ** (self.degree - 1))

    # -- kernels on coefficient sequences -----------------------------------
    # The polynomial kernels convert their operands into the working form
    # once and the result out of it once, and loop on its two cores.

    @cached_property
    def _form(self):
        """(to, back, zero, mul, div) of the working form: to and back
        convert a coefficient sequence into a new list of it and out of it,
        mul(F, a, b) is the product core, and the division core div(F, a, b)
        divides the list a in place by b (whose last entry is nonzero), and
        returns it with the remainder in its first len(b) - 1 entries and
        the quotient after them.  The cores are plain functions, called
        with the field, so that the cached form holds no reference back to
        it and a field is freed as soon as its last user drops it.  Here the
        elements themselves, through the field's own operations."""
        return list, list, self.zero, FiniteField._elem_mul, FiniteField._elem_div

    def _elem_mul(self, a, b):
        zero, add, mul = self.zero, self.add, self.mul
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b, i):
                if y != zero:
                    out[j] = add(out[j], mul(x, y))
        return out

    def _elem_div(self, a, b):
        zero, sub, mul = self.zero, self.sub, self.mul
        n = len(b) - 1
        inv_lc, low = self.inv(b[-1]), b[:n]
        for i in range(len(a) - n - 1, -1, -1):
            c = a[i + n]
            if c != zero:
                c = a[i + n] = mul(c, inv_lc)
                for j, y in enumerate(low, i):
                    a[j] = sub(a[j], mul(c, y))
        return a

    def vec_add(self, a, b):
        """Coordinatewise a + b of two tuples, up to the end of the shorter."""
        add = self.add
        return tuple([add(x, y) for x, y in zip(a, b)])

    def vec_sub(self, a, b):
        sub = self.sub
        return tuple([sub(x, y) for x, y in zip(a, b)])

    def poly_mul(self, a, b):
        """Coefficients (ascending, a list) of the product of two nonempty
        coefficient sequences."""
        to, back, _, mul, _ = self._form
        return back(mul(self, to(a), to(b)))

    def poly_divmod(self, a, b):
        """(quotient, remainder) coefficient lists of a divided by b, for
        len(a) >= len(b) and a nonzero last entry of b; the remainder has
        len(b) - 1 entries."""
        to, back, _, _, div = self._form
        n = len(b) - 1
        r = div(self, to(a), to(b))
        return back(r[n:]), back(r[:n])

    def poly_gcd(self, a, b):
        """The monic gcd of two coefficient sequences, not both zero:
        Euclid on the remainders alone, with no quotient kept (von zur
        Gathen and Gerhard, *Modern Computer Algebra*, section 3.2)."""
        to, back, zero, mul, div = self._form
        a, b = trim(to(a), zero), trim(to(b), zero)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, trim(div(self, a, b)[: len(b) - 1], zero)
        if not a:
            raise DomainError("gcd of two zero polynomials")
        lc = back(a[-1:])[0]
        return back(a if lc == self.one else mul(self, a, to((self.inv(lc),))))

    def poly_pow_mod(self, a, n: int, f):
        """a^n mod f, for n >= 0 and a nonzero last entry of f, as deg f
        entries or fewer: ``power_ladder`` over one product and one
        remainder per step (von zur Gathen and Gerhard, section 4.3)."""
        to, back, _, mul, div = self._form
        m, f = len(f) - 1, to(f)
        x = div(self, to(a) if n else to((self.one,)), f)[:m]
        if n and x:
            x = power_ladder(x, n, lambda u, v: div(self, mul(self, u, v), f)[:m])
        return back(x)


def trim(c, zero):
    """c without its trailing zeros."""
    k = len(c)
    while k and c[k - 1] == zero:
        k -= 1
    return c[:k]


class Packing:
    """L = B[z]/(f) on packed ints, for f monic of degree n over a base
    B = F_p (e = 1) or F_p[y]/(g), g of degree e: F_p-coordinate j of
    coefficient i of an element is digit i(2e-1) + j of one int, w bits per
    digit.  ``pack`` is ``_pack`` over these digits: the coordinates of
    each coefficient, padded with e - 1 zero digits.

    Two packed elements multiply as polynomials in z and y (Kronecker
    substitution in two variables), and digit (i, j) of the product,
    i < 2n - 1 and j < 2e - 1, stays in place; it is at most ne (p-1)^2.
    ``reduce`` takes a sum of up to `terms` such products (or of smaller
    summands: reduced elements, or ones scaled by B), keeps the ne basis
    digits (i < n, j < e) and adds each of the R = (2n-1)(2e-1) - ne others
    back times its packed row z^i y^j reduced.  A folded digit adds at most
    p - 1 times its own bound to a basis digit, so no basis digit exceeds
    bound = terms ne (p-1)^2 (1 + R(p-1)).  One step then takes every digit
    mod p at once, r - p ((r M >> K) & qmask), and ``reduce`` returns the
    canonical packed element.  With K = bits(bound) + bits(p) and
    M = ceil(2^K / p) (``qshift`` and ``qmul``), d M >> K = d // p for
    every d <= bound (Granlund and Montgomery, PLDI 1994); qmask keeps the
    low w - K bits of each basis digit, where that quotient lands.  The
    width is w = bits(bound M), so no d M overflows its digit, no quotient
    overlaps the next digit and no difference borrows.  ``digits``
    extracts the element from a canonical packed int, ``fold`` is
    ``reduce`` followed by it, and ``unpack`` takes the same mod-p step and
    extracts, for a sum that has no digits outside the basis.  For e = 1 a
    coefficient is one digit, and the rows are z^(n+k) mod f.  B's own
    kernels build the rows: z^i is z^(i-1) shifted, reduced by one
    ``poly_divmod`` step by f once i >= n, and B.mul takes each
    coefficient times y^j.
    """

    def __init__(self, L, terms: int):
        p, n, e = L.p, L.e, L.base.degree
        span = 2 * e - 1  # digits per coefficient of a product
        outside = (2 * n - 1) * span - n * e
        bound = terms * n * e * (p - 1) ** 2 * (1 + outside * (p - 1))
        qshift = bound.bit_length() + p.bit_length()
        qmul = -(-(1 << qshift) // p)
        w = (bound * qmul).bit_length()
        digit = (1 << w) - 1
        if e == 1:
            shifts = range(0, w * n, w)
            basis = (1 << w * n) - 1
            pack = partial(_pack, w=w)

            def digits(r):
                return tuple([r >> s & digit for s in shifts])
        else:
            blocks = [range(w * span * i, w * (span * i + e), w) for i in range(n)]
            basis = sum(digit << s for block in blocks for s in block)
            pad = (0,) * (e - 1)

            def pack(a):
                return _pack([d for c in a for d in c + pad], w)

            def digits(r):
                return tuple([tuple([r >> s & digit for s in b]) for b in blocks])

        # (shift of digit (i, j), z^i y^j reduced and packed) for the digits
        # outside the basis; over F_p only j = 0 occurs, so no B.mul is made
        B, f = L.base, L.modulus
        ys = [B.one] + [B.pow(B.generator(), j) for j in range(1, span)]
        folds = []
        x = [B.one] + [B.zero] * (n - 1)
        for i in range(2 * n - 1):
            if i:
                x = [B.zero] + x
                x = B.poly_divmod(x, f)[1] if i >= n else x[:n]
            for j, y in enumerate(ys):
                if i >= n or j >= e:
                    row = [B.mul(c, y) for c in x] if j else x
                    folds.append((w * (span * i + j), pack(row)))

        # basis // digit is 1 at the foot of each basis digit, so qmask keeps
        # the low w - qshift bits of each
        qmask = basis // digit * ((1 << w - qshift) - 1)

        def reduce(c):
            r = c & basis
            for s, row in folds:
                r += (c >> s & digit) * row
            return r - p * (r * qmul >> qshift & qmask)

        def unpack(c):  # the step of reduce, inlined there
            return digits(c - p * (c * qmul >> qshift & qmask))

        def fold(c):
            return digits(reduce(c))

        self.w, self.terms = w, terms
        self.pack, self.unpack, self.reduce, self.fold = pack, unpack, reduce, fold
        self.digits = digits


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
        return pow(a, -1, self.p)

    def element(self, i: int):
        if not 0 <= i < self.p:
            raise DomainError(f"element index {i} out of range for GF({self.p})")
        return i

    def index(self, a) -> int:
        return a

    @cached_property
    def _form(self):
        # ints: poly_mul is the product core
        return list, list, 0, PrimeField.poly_mul, PrimeField._div

    def vec_add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def vec_sub(self, a, b):
        p = self.p
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def vec_int_mul(self, a, ns):
        """Coordinatewise n * x of a tuple a and ints ns; an extension
        multiplies each coordinate over its base."""
        p = self.p
        return tuple([n * x % p for n, x in zip(ns, a)])

    def poly_mul(self, a, b):
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        if len(b) >= KRONECKER_MIN:
            if len(a) - a.count(0) < len(b) - b.count(0):
                a, b = b, a
            n = len(b) - b.count(0)  # b has the fewer nonzero terms
            if n >= KRONECKER_MIN:
                # a digit of the product is a sum of at most n terms < p^2
                w = (n * (p - 1) ** 2).bit_length()
                c = _pack(a, w) * _pack(b, w)
                digit = (1 << w) - 1
                return [(c >> s & digit) % p for s in range(0, w * (len(a) + len(b) - 1), w)]
        out = [0] * (len(a) + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                for j, x in enumerate(a, i):
                    if x:
                        out[j] = (out[j] + x * y) % p
        return out

    def poly_divmod(self, a, b):
        n = len(b) - 1
        r = self._div(list(a), b)
        return r[n:], r[:n]

    def poly_has_unit_root(self, a):
        """Whether the nonzero polynomial a has a root in F_q*: Horner at
        all units at once.  An ``ExtensionField`` has the same kernel on
        its logs, and only with tables."""
        p, units = self.p, range(1, self.p)
        v = [a[-1]] * (p - 1)
        for c in a[-2::-1]:
            v = [(x * u + c) % p for x, u in zip(v, units)]
        return 0 in v

    def _div(self, a, b):
        # the entries stay unreduced until they are read
        p = self.p
        n = len(b) - 1
        inv_lc, low = pow(b[-1], -1, p), b[:n]
        for i in range(len(a) - n - 1, -1, -1):
            c = a[i + n] = a[i + n] * inv_lc % p
            if c:
                for j, y in enumerate(low, i):
                    a[j] -= c * y
        for j in range(min(n, len(a))):
            a[j] %= p
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
    q <= TABLE_CAP, add/sub/mul/inv run on log tables built on first use,
    and so do powers, through mul; a value that is not an element then
    raises KeyError.
    """

    def __init__(self, base: FiniteField, modulus):
        modulus = tuple(modulus)
        e = len(modulus) - 1
        if e < 1 or modulus[-1] != base.one:
            raise DomainError("extension modulus must be monic of degree >= 1")
        if isinstance(base, ExtensionField) and (base.e < 2 or not isinstance(base.base, PrimeField)):
            raise DomainError("an extension's base must be F_p or of degree >= 2 over F_p")
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
        if self.q > TABLE_CAP:
            return {}
        pk = Packing(self, 1)
        powers = self._primitive_powers(pk)
        if powers is None:
            return {}
        n, p = self.q - 1, self.p
        exp = list(map(pk.digits, powers))
        log = {x: k for k, x in enumerate(exp)}
        log[self.zero] = None
        # 1 + g^k adds 1 to the first F_p-coordinate: digit 0 of the packed
        # g^k, which wraps to 0 from p - 1; the packed 0 is no power, so
        # 1 + g^k = 0 gets None
        index, low = {x: k for k, x in enumerate(powers)}, (1 << pk.w) - 1
        zech = [index.get(x + 1 if x & low != p - 1 else x - p + 1) for x in powers]
        # both doubled, so that a sum of two logs, or a difference of two
        # (a negative index wraps), needs no reduction mod n
        self._exp = exp + exp
        self._zech = zech + zech
        self._log_neg_one = n // 2 if p != 2 else 0
        return log

    def _primitive_powers(self, pk):
        """[g^0, ..., g^(q-2)], packed by pk, for the first element g of
        order q - 1, or None when some element is not a unit (a reducible
        modulus).  For e > 1 the search starts at index base.q, as the
        elements before it lie in the base field, whose units have order
        dividing base.q - 1.  Each orbit is walked on packed products, with
        g packed once: a walk of q - 1 steps that misses 1 has met a
        non-unit."""
        pack, reduce = pk.pack, pk.reduce
        one, n = pack(self.one), self.q - 1
        for i in range(self.base.q if self.e > 1 else 1, self.q):
            g = pack(self.element(i))
            powers, x = [one], g
            while x != one and len(powers) < n:
                powers.append(x)
                x = reduce(x * g)
            if x != one:
                return None
            if len(powers) == n:
                return powers
        return None

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        log = self._log
        if not log:
            return self.base.vec_add(a, b)
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
            return self.base.vec_sub(a, b)
        la, lb = log[a], log[b]
        if lb is None:
            return a
        lb += self._log_neg_one
        if la is None:
            return self._exp[lb]
        z = self._zech[lb - la]
        return self.zero if z is None else self._exp[la + z]

    def neg(self, a):
        return self.base.vec_sub(self.zero, a)

    def vec_int_mul(self, a, ns):
        B = self.base
        return tuple([B.vec_int_mul(x, repeat(n)) for n, x in zip(ns, a)])

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
            return inverse_mod(self.base, a, self.modulus)
        la = log[a]
        if la is None:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-la]

    # -- the log form -------------------------------------------------------
    # With tables the working form is logs, None for zero, each below
    # q - 1: a term is a sum of two logs, and adding g^t to g^o gives
    # g^(o + zech[t - o]); the sum and the difference index the doubled
    # tables as they are, and every log stored is reduced mod q - 1.

    @cached_property
    def _form(self):
        log = self._log
        if not log:
            return super()._form
        # the n logs and None in one dict, so that both conversions are maps
        exp = dict(enumerate(self._exp[: self.q - 1]))
        exp[None] = self.zero
        to, back = log.__getitem__, exp.__getitem__
        return (lambda a: list(map(to, a)), lambda w: list(map(back, w)), None,
                ExtensionField._log_mul, ExtensionField._log_div)

    def _log_mul(self, a, b):
        n, zech = self.q - 1, self._zech
        terms = [(j, y) for j, y in enumerate(b) if y is not None]
        out = [None] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x is None:
                continue
            for j, y in terms:
                t, k = x + y, i + j
                o = out[k]
                if o is None:
                    out[k] = t % n
                else:
                    z = zech[t - o]
                    out[k] = None if z is None else (o + z) % n
        return out

    def _log_div(self, a, b):
        n, zech, neg = self.q - 1, self._zech, self._log_neg_one
        dn = len(b) - 1
        inv_lc = n - b[-1]
        # the logs of -b below its leading term
        terms = [(j, (y + neg) % n) for j, y in enumerate(b[:dn]) if y is not None]
        for i in range(len(a) - dn - 1, -1, -1):
            c = a[i + dn]
            if c is None:
                continue
            c = a[i + dn] = (c + inv_lc) % n
            for j, y in terms:
                t, k = c + y, i + j
                o = a[k]
                if o is None:
                    a[k] = t % n
                else:
                    z = zech[t - o]
                    a[k] = None if z is None else (o + z) % n
        return a

    def poly_has_unit_root(self, a):
        """Only with tables, which every field that asks has: an F_q with
        q <= ``factor.ROOT_SCAN_MAX`` <= TABLE_CAP has them whenever its
        modulus is irreducible."""
        log = self._log
        n, zech = self.q - 1, self._zech
        la = [log[x] for x in reversed(a)]
        for k in range(n):  # at g^k, Horner on the logs of a, to the first root
            v = None
            for c in la:
                if v is None:
                    v = c
                elif c is None:
                    v = (v + k) % n
                else:
                    z = zech[c - v - k]
                    v = None if z is None else (v + k + z) % n
            if v is None:
                return True
        return False

    # -- arithmetic on coefficient tuples ---------------------------------

    @cached_property
    def _mul(self):
        """(a, b) -> a*b mod the modulus on coefficient tuples: one product
        of packed ints and one fold."""
        pk = Packing(self, 1)
        pack, fold = pk.pack, pk.fold
        return lambda a, b: fold(pack(a) * pack(b))

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
