"""Finite-field, polynomial and twisted-polynomial arithmetic for the
benchmark's input generators and checks.

This is deliberately independent of ``drinfeld_orders``: the generators
decide what the program should answer, so a defect in the program's own
arithmetic must not also change the inputs or the expected answers.  It
is small and slow on purpose; only generation and tests use it.

Conventions: polynomials are lists of field elements in ascending order
with no trailing zeros (the empty list is zero).
"""

from __future__ import annotations

import random


class SmallField:
    """F_q = F_p[y]/(modulus) with q small enough for full tables.

    Elements are ints in range(q); element i has base-p digits
    (c0, c1, ...) = the coefficients of c0 + c1*y + ..., which is also how
    the program's config format writes it.
    """

    def __init__(self, p: int, modulus=(0, 1)):
        self.p = p
        self.modulus = tuple(modulus)
        self.e = len(self.modulus) - 1
        self.q = p**self.e
        vecs = [self._digits(i) for i in range(self.q)]
        code = {v: i for i, v in enumerate(vecs)}
        self.add_t = [
            [code[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs] for a in vecs
        ]
        self.mul_t = [[code[self._vec_mul(a, b)] for b in vecs] for a in vecs]
        self.neg_t = [code[tuple(-x % p for x in a)] for a in vecs]
        self.inv_t = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self.mul_t[a][b] == 1:
                    self.inv_t[a] = b
                    break
        if any(self.inv_t[a] == 0 for a in range(1, self.q)):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")

    def _digits(self, i):
        out = []
        for _ in range(self.e):
            i, r = divmod(i, self.p)
            out.append(r)
        return tuple(out)

    def _vec_mul(self, a, b):
        p, e, mod = self.p, self.e, self.modulus
        acc = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                acc[i + j] = (acc[i + j] + x * y) % p
        for i in range(len(acc) - 1, e - 1, -1):
            c = acc[i]
            acc[i] = 0
            for j in range(e):
                acc[i - e + j] = (acc[i - e + j] - c * mod[j]) % p
        return tuple(acc[:e])

    def add(self, a, b):
        return self.add_t[a][b]

    def sub(self, a, b):
        return self.add_t[a][self.neg_t[b]]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def to_config(self, a):
        """The element as the program's config format writes it."""
        return a if self.e == 1 else list(self._digits(a))

    def field_config(self):
        if self.e == 1:
            return {"p": self.p, "e": 1}
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


# -- polynomials over a SmallField ------------------------------------------


def norm(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F, a, b):
    n = max(len(a), len(b))
    return norm(
        F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)
    )


def psub(F, a, b):
    n = max(len(a), len(b))
    return norm(
        F.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)
    )


def pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = F.mul_t[x]
            for j, y in enumerate(b):
                out[i + j] = F.add_t[out[i + j]][row[y]]
    return norm(out)


def ppow(F, a, k):
    out = [1]
    for _ in range(k):
        out = pmul(F, out, a)
    return out


def pscale(F, a, c):
    return norm(F.mul(c, x) for x in a)


def pmod(F, a, m):
    rem = list(a)
    inv_lc = F.inv_t[m[-1]]
    while len(rem) >= len(m):
        c = F.mul(rem[-1], inv_lc)
        shift = len(rem) - len(m)
        for j, mj in enumerate(m):
            rem[shift + j] = F.sub(rem[shift + j], F.mul(c, mj))
        rem = norm(rem)
    return rem


def pgcd(F, a, b):
    while b:
        a, b = b, pmod(F, a, b)
    return a


def ppowmod(F, a, k, m):
    result, base = [1], pmod(F, a, m)
    while k:
        if k & 1:
            result = pmod(F, pmul(F, result, base), m)
        base = pmod(F, pmul(F, base, base), m)
        k >>= 1
    return result


def pderiv(F, a):
    return norm(F.mul(i % F.p, c) for i, c in enumerate(a) if i)


def cubic_disc(F, a1, a2, a0):
    """Discriminant of x^3 + a1 x^2 + a2 x + a0 over F_q[T]."""

    def s(k, a):
        return pscale(F, a, k % F.p)

    return padd(
        F,
        padd(F, s(18, pmul(F, pmul(F, a1, a2), a0)), s(-4, pmul(F, ppow(F, a1, 3), a0))),
        padd(
            F,
            padd(F, pmul(F, pmul(F, a1, a1), pmul(F, a2, a2)), s(-4, ppow(F, a2, 3))),
            s(-27, pmul(F, a0, a0)),
        ),
    )


def depressed(F, a1, a2, a0):
    """(b1, b2) of the depressed cubic x^3 + b1 x + b2 (x -> x - a1/3)."""
    third = F.inv_t[3 % F.p]
    b1 = psub(F, a2, pscale(F, pmul(F, a1, a1), third))
    b2 = padd(
        F,
        psub(
            F,
            pscale(F, ppow(F, a1, 3), F.mul(2, F.mul(third, F.mul(third, third)))),
            pscale(F, pmul(F, a1, a2), third),
        ),
        a0,
    )
    return b1, b2


def repeated_degree(F, d):
    """deg gcd(d, d'): 0 when d is square-free, 1 when d has exactly one
    repeated factor and it is a linear square."""
    return len(pgcd(F, d, pderiv(F, d))) - 1


def has_root(F, f):
    """True when the polynomial f has a root in F."""
    for x in range(F.q):
        acc = 0
        for c in reversed(f):
            acc = F.add(F.mul(acc, x), c)
        if acc == 0:
            return True
    return False


def is_irreducible(F, f):
    """Rabin's test for a monic f over F."""
    n = len(f) - 1
    x = [0, 1]
    if ppowmod(F, x, F.q**n, f) != pmod(F, x, f):
        return False
    for ell in {d for d in range(2, n + 1) if n % d == 0 and all(d % k for k in range(2, d))}:
        h = psub(F, ppowmod(F, x, F.q ** (n // ell), f), x)
        if len(pgcd(F, h, f)) > 1:
            return False
    return True


def random_irreducible(F, n, rng: random.Random):
    while True:
        f = [rng.randrange(F.q) for _ in range(n)] + [1]
        if f[0] and is_irreducible(F, f):
            return f


def cubic_has_root_in_A(F, a1, a2, mu, pv, m):
    """True when x^3 + a1 x^2 + a2 x + mu*pv^m has a root in F_q[T].

    Any root divides the constant term, and pv is irreducible, so every
    root is u*pv^j for a unit u and 0 <= j <= m.
    """
    for j in range(m + 1):
        pj = ppow(F, pv, j)
        for u in range(1, F.q):
            r = pscale(F, pj, u)
            val = padd(F, pmul(F, padd(F, pmul(F, padd(F, r, a1), r), a2), r),
                       pscale(F, ppow(F, pv, m), mu))
            if not val:
                return True
    return False


# -- the A-field L = F_p[z]/(f) and twisted polynomials over it -------------


class PrimeExtension:
    """L = F_p[z]/(f), elements as tuples of n ints; tau acts as x -> x^p."""

    def __init__(self, p: int, f):
        self.p = p
        self.f = tuple(f)
        self.n = len(f) - 1
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)
        # frob[k] is the matrix of x -> x^(p^k) on the power basis
        z = (0, 1) + (0,) * (self.n - 2)  # n >= 2
        zp = self.pow(z, p)
        images = [self.one]
        for _ in range(1, self.n):
            images.append(self.mul(images[-1], zp))
        self.frob = [None] * self.n
        cols = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
        for k in range(self.n):
            self.frob[k] = cols
            cols = [self._apply(images, c) for c in cols]

    def _apply(self, cols, x):
        out = [0] * self.n
        for xi, col in zip(x, cols):
            if xi:
                for j, c in enumerate(col):
                    out[j] += xi * c
        return tuple(v % self.p for v in out)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, n, f = self.p, self.n, self.f
        acc = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += x * y
        for i in range(len(acc) - 1, n - 1, -1):
            c = acc[i] % p
            if c:
                for j in range(n):
                    acc[i - n + j] -= c * f[j]
        return tuple(v % p for v in acc[:n])

    def pow(self, a, k):
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def twist(self, a, k):
        """a^(p^k)."""
        return self._apply(self.frob[k % self.n], a)

    def embed(self, c):
        return (c % self.p,) + (0,) * (self.n - 1)

    def random(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.n))


def snorm(L, a):
    a = list(a)
    while a and a[-1] == L.zero:
        a.pop()
    return a


def sadd(L, a, b):
    n = max(len(a), len(b))
    z = L.zero
    return snorm(L, (L.add(a[i] if i < len(a) else z, b[i] if i < len(b) else z) for i in range(n)))


def smul(L, a, b):
    """a*b in L{tau} with tau*x = x^p*tau."""
    if not a or not b:
        return []
    out = [L.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != L.zero:
            for j, y in enumerate(b):
                if y != L.zero:
                    out[i + j] = L.add(out[i + j], L.mul(x, L.twist(y, i)))
    return snorm(L, out)


def phi_powers(L, phi_t, k):
    """[phi_{T^0}, ..., phi_{T^k}]."""
    out = [[L.one]]
    for _ in range(k):
        out.append(smul(L, phi_t, out[-1]))
    return out


def phi_of(L, powers, a):
    """phi_a for a in F_p[T] (ascending ints) from precomputed phi_{T^k}."""
    acc = []
    for k, c in enumerate(a):
        if c:
            acc = sadd(L, acc, [L.mul(L.embed(c), x) for x in powers[k]])
    return acc


def weil_residual(L, phi_t, a1, a2, mu, pv, m):
    """pi^3 + phi_a1 pi^2 + phi_a2 pi + mu*phi_{pv^m} in L{tau}; zero exactly
    when the module phi_T lies in the class."""
    n, p = L.n, L.p
    Fp = SmallField(p)
    a0 = pscale(Fp, ppow(Fp, pv, m), mu)
    powers = phi_powers(L, phi_t, max(len(a1), len(a2), len(a0)))
    pi = [L.zero] * n + [L.one]
    acc = [L.zero] * (3 * n) + [L.one]
    acc = sadd(L, acc, smul(L, phi_of(L, powers, a1), smul(L, pi, pi)))
    acc = sadd(L, acc, smul(L, phi_of(L, powers, a2), pi))
    return sadd(L, acc, phi_of(L, powers, a0))


def solve_mod_p(rows, rhs, p):
    """Gaussian elimination over F_p.  Returns (rank, solution or None);
    the solution is None when the system is inconsistent or not unique."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col] % p), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = pow(aug[rank][col], p - 2, p)
        aug[rank] = [v * inv % p for v in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] % p:
                c = aug[i][col]
                aug[i] = [(v - c * w) % p for v, w in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if any(all(v % p == 0 for v in row[:-1]) and row[-1] % p for row in aug):
        return rank, None
    if rank < ncols:
        return rank, None
    sol = [0] * ncols
    for i, col in enumerate(pivots):
        sol[col] = aug[i][-1]
    return rank, sol


def frobenius_relation(L, phi_t, pv, m):
    """Solve pi^3 + phi_a1 pi^2 + phi_a2 pi + mu*phi_{pv^m} = 0 for
    (a1, a2, mu) over F_p, with deg a1 <= n/3 and deg a2 <= 2n/3.

    The map a -> phi_a is F_p-linear, so comparing the F_p-coordinates of
    every tau-coefficient gives a linear system.  Returns (rank, number of
    unknowns, (a1, a2, mu) or None).
    """
    n, p = L.n, L.p
    Fp = SmallField(p)
    d1, d2 = n // 3, 2 * n // 3
    pvm = ppow(Fp, pv, m)
    powers = phi_powers(L, phi_t, max(d2, len(pvm) - 1))
    columns = []  # each unknown's contribution, as a tau-indexed coefficient list
    for k in range(d1 + 1):
        columns.append([L.zero] * (2 * n) + powers[k])
    for k in range(d2 + 1):
        columns.append([L.zero] * n + powers[k])
    columns.append(phi_of(L, powers, pvm))
    top = 3 * n
    rows, rhs = [], []
    for d in range(top + 1):
        target = L.one if d == top else L.zero
        for coord in range(n):
            rows.append(
                [col[d][coord] if d < len(col) else 0 for col in columns]
            )
            rhs.append(-target[coord] % p)
    rank, sol = solve_mod_p(rows, rhs, p)
    if sol is None or sol[-1] == 0:
        return rank, len(columns), None
    a1 = norm(sol[: d1 + 1])
    a2 = norm(sol[d1 + 1 : d1 + d2 + 2])
    return rank, len(columns), (a1, a2, sol[-1])
