"""Seeded workload generators.

Each generator returns a list of cases.  A case is the JSON config the
program receives plus what the benchmark expects of its report:

    {"id": str, "config": dict, "expect": dict}

``expect`` may hold:
    exit            the expected exit code of ``analyze``
    candidate_count the size of the sandwich A[pi] <= O <= O_max
    accepted        the number of accepted orders
    pv_divides_a2   the local flag the report must carry
    modules         {name: True for in class, False for out of class}

The expectations come from construction and from the bench-local
arithmetic in ``algebra``, never from ``drinfeld_orders``.  Why each
workload exists, and which layer it stresses or bypasses, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import random

from algebra import (
    PrimeExtension,
    SmallField,
    cubic_disc,
    cubic_has_root_in_A,
    depressed,
    frobenius_relation,
    has_root,
    norm,
    pgcd,
    pmod,
    pmul,
    ppow,
    pscale,
    psub,
    random_irreducible,
    repeated_degree,
    weil_residual,
)

# One field object per (p, modulus); tables are built once per process.
_FIELDS = {}


def field(p, modulus=(0, 1)):
    key = (p, tuple(modulus))
    if key not in _FIELDS:
        _FIELDS[key] = SmallField(p, modulus)
    return _FIELDS[key]


def _config(F, pv, m, a1, a2, mu, **extra):
    cfg = {
        "field": F.field_config(),
        "pv": [F.to_config(c) for c in pv],
        "m": m,
        "weil": {
            "a1": [F.to_config(c) for c in a1],
            "a2": [F.to_config(c) for c in a2],
            "mu": F.to_config(mu),
        },
    }
    cfg.update(extra)
    return cfg


def _divides(F, d, f):
    return not pmod(F, f, d)


# -- class-sandwich -----------------------------------------------------------

# One pass runs the content family x^3 + u*T^(2m/3)*x + mu*T^m.  At m = 6
# the cost of a config varies by up to 1.7x with (u, mu), so a pass draws
# most of the valid pairs of each field without replacement: then the
# pass time and the median config (an F_13 one) hardly move with the seed.
# The two m = 9 instances, which take two thirds of a pass, are the same
# for every seed for the same reason.
SANDWICH_DRAWS = [(11, 10), (13, 30)]  # (p, configs) at m = 6
SANDWICH_FIXED = [(11, 3, 2), (13, 10, 1)]  # (p, u, mu) at m = 9


def sandwich_size(q, k):
    """Candidates for g = T^k and I = 1: c = T^i | g, a = T^j | g^2, and b
    free in degree min(j, k - i)."""
    return sum(q ** min(j, k - i) for i in range(k + 1) for j in range(2 * k + 1))


def _sandwich_pairs(F):
    """(u, mu) for which x^3 + u x + mu has no root in F_p: then the class
    passes every check at v and at infinity, and (with a1 = 0) has no root
    in A.  Its discriminant is then a nonzero constant, so g = T^(m/3) and
    I = 1."""
    p = F.q
    return [(u, mu) for u in range(1, p) for mu in range(1, p) if not has_root(F, [mu, u, 0, 1])]


def _sandwich_case(idx, p, m, u, mu):
    F = field(p)
    k = m // 3
    assert (u, mu) in _sandwich_pairs(F)
    return {
        "id": f"sandwich-{idx:02d}-q{p}-m{m}",
        "config": _config(F, [0, 1], m, [], [0] * (2 * k) + [u], mu),
        "expect": {
            "exit": 0,
            "candidate_count": sandwich_size(p, k),
            # pv = T divides a*c for every proper candidate, so only
            # O_max is maximal at v.
            "accepted": 1,
            "pv_divides_a2": True,
        },
    }


def class_sandwich(seed):
    rng = random.Random(f"class-sandwich/{seed}")
    drawn = [(p, u, mu) for p, n in SANDWICH_DRAWS for u, mu in rng.sample(_sandwich_pairs(field(p)), n)]
    rng.shuffle(drawn)
    cases = [_sandwich_case(i, p, 6, u, mu) for i, (p, u, mu) in enumerate(drawn)]
    for p, u, mu in SANDWICH_FIXED:
        cases.append(_sandwich_case(len(cases), p, 9, u, mu))
    return cases


# -- class-batch --------------------------------------------------------------

BATCH_FIELDS = [(5, (0, 1)), (7, (0, 1)), (5, (2, 0, 1)), (7, (1, 0, 1))]
F9 = (3, (1, 0, 1))
# (deg pv, m) with n = m*deg pv <= 6; every pass draws the same number of
# classes from each (field, shape) stratum, so passes of different seeds
# cost about the same.
BATCH_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 6), (2, 1), (2, 2), (2, 3)]
# Per stratum: draws whose discriminant is square-free (so g = I = 1 and
# the integral basis is trivial), and draws whose discriminant has exactly
# one repeated factor, a linear square l^2, with l not dividing both
# depressed coefficients: then l is not in the field discriminant, so
# I = l and the integral-basis search runs.
BATCH_PLAIN_PER_STRATUM = 4
BATCH_INDEXED_PER_STRATUM = 2
# one rejected descriptor per three accepted ones: F_9, reducible and
# non-Weil at v, in turn
BATCH_REJECT_EVERY = 3


def _random_poly(F, deg, rng):
    return [rng.randrange(F.q) for _ in range(deg + 1)]


def _random_pv(F, deg, rng):
    while True:
        pv = _random_poly(F, deg - 1, rng) + [1]
        if deg == 1 or not has_root(F, pv):
            return pv


def _accept_case(F, dpv, m, repeated, rng):
    """An ordinary (pv does not divide a2) class within the bounds at
    infinity, irreducible over k: a genuine rank-3 Weil polynomial.  Its
    discriminant has deg gcd(disc, disc') = repeated."""
    n = m * dpv
    while True:
        pv = _random_pv(F, dpv, rng)
        a1 = norm(_random_poly(F, n // 3, rng))
        a2 = norm(_random_poly(F, 2 * n // 3, rng))
        mu = rng.randrange(1, F.q)
        if not a2 or _divides(F, pv, a2):
            continue
        if n % 3 == 0:
            # one place above infinity: the residual cubic at infinity must
            # not have a root in F_q
            r1 = a1[n // 3] if len(a1) > n // 3 else 0
            r2 = a2[2 * n // 3] if len(a2) > 2 * n // 3 else 0
            if has_root(F, [mu, r2, r1, 1]):
                continue
        a0 = pscale(F, ppow(F, pv, m), mu)
        disc = cubic_disc(F, a1, a2, a0)
        if not disc or repeated_degree(F, disc) != repeated:
            continue
        if repeated and len(pgcd(F, *depressed(F, a1, a2, a0))) > 1:
            continue
        if cubic_has_root_in_A(F, a1, a2, mu, pv, m):
            continue
        return _config(F, pv, m, a1, a2, mu), {"exit": 0, "pv_divides_a2": False}


def _reject_case(kind, rng):
    if kind == 0:  # characteristic 3
        F = field(*F9)
        pv = _random_pv(F, 1, rng)
        a1, a2 = _random_poly(F, 1, rng), _random_poly(F, 2, rng)
        return _config(F, pv, 3, norm(a1), norm(a2), rng.randrange(1, F.q))
    p, mod = BATCH_FIELDS[rng.randrange(len(BATCH_FIELDS))]
    F = field(p, mod)
    pv = _random_pv(F, rng.choice((1, 2)), rng)
    mu = rng.randrange(1, F.q)
    if kind == 1:
        # (x - r)(x^2 + s x + t) with r*t = -mu*pv^m, r = u*pv^j
        m = rng.choice((1, 2, 3))
        j = rng.randrange(m + 1)
        u = rng.randrange(1, F.q)
        r = [F.mul(u, c) for c in ppow(F, pv, j)]
        t = [F.mul(F.mul(F.neg_t[mu], F.inv_t[u]), c) for c in ppow(F, pv, m - j)]
        s = norm(_random_poly(F, 1, rng))
        a1 = psub(F, s, r)
        a2 = psub(F, t, pmul(F, r, s))
        return _config(F, pv, m, a1, a2, mu)
    # two slopes in the Newton polygon at v: v(a2) = 1, v(a1) >= 1, m >= 2
    m = rng.choice((2, 3))
    while True:
        w = norm(_random_poly(F, 1, rng))
        if w and not _divides(F, pv, w):
            break
    a2 = pmul(F, pv, w)
    a1 = pmul(F, pv, norm(_random_poly(F, 0, rng)))
    return _config(F, pv, m, a1, a2, mu)


def class_batch(seed):
    rng = random.Random(f"class-batch/{seed}")
    cases = []
    strata = [
        (fld, shape, repeated)
        for fld in BATCH_FIELDS
        for shape in BATCH_SHAPES
        for repeated in [0] * BATCH_PLAIN_PER_STRATUM + [1] * BATCH_INDEXED_PER_STRATUM
        # with n = 1 the index is always trivial
        if not (repeated and shape == (1, 1))
    ]
    for i, (fld, (dpv, m), repeated) in enumerate(strata):
        F = field(*fld)
        cfg, expect = _accept_case(F, dpv, m, repeated, rng)
        cases.append({"id": f"batch-ok-{i:03d}-q{F.q}", "config": cfg, "expect": expect})
    for i in range(len(cases) // BATCH_REJECT_EVERY):
        kind = i % 3
        cfg = _reject_case(kind, rng)
        name = ("char3", "reducible", "non-weil")[kind]
        cases.append({"id": f"batch-rej-{i:03d}-{name}", "config": cfg, "expect": {"exit": 3}})
    rng.shuffle(cases)
    return cases


# -- module-ident -------------------------------------------------------------

# The three configs shipped with the program, copied so that the benchmark's
# inputs do not move when the repository's examples do.
SHIPPED = [
    (
        "shipped-example_f5",
        {
            "field": {"p": 5, "e": 1},
            "pv": [0, 1],
            "m": 3,
            "weil": {"a1": [1, 1], "a2": [4, 3, 1], "mu": 4},
            "L": [3, 3, 0, 1],
            "modules": [
                {"name": "phi", "phi_T": [[0], [0, 0, 1], [0, 0, 2], [0, 0, 4]]},
                {"name": "psi", "phi_T": [0, 1, 1, 1]},
                {"name": "psi_star", "phi_T": [[0], [0, 0, 1], [2], [0, 0, 4]]},
            ],
            "options": {"candidate_bound": 1000000, "output_format": "text"},
        },
        {"phi": True, "psi": False, "psi_star": True},
    ),
    (
        "shipped-example_f5_second_class",
        {
            "field": {"p": 5, "e": 1},
            "pv": [0, 1],
            "m": 3,
            "weil": {"a1": [3, 2], "a2": [1, 3, 3], "mu": 4},
            "L": [3, 3, 0, 1],
            "modules": [{"name": "psi", "phi_T": [0, 1, 1, 1]}],
            "options": {"candidate_bound": 1000000, "output_format": "text"},
        },
        {"psi": True},
    ),
    (
        "shipped-example_f5_supersingular",
        {
            "field": {"p": 5, "e": 1},
            "pv": [0, 1],
            "m": 3,
            "weil": {"a1": [], "a2": [0, 0, 1], "mu": 1},
            "L": [3, 3, 0, 1],
            "modules": [{"name": "pure", "phi_T": [0, 0, 0, [3, 4]]}],
            "options": {"candidate_bound": 1000000, "output_format": "text"},
        },
        {"pure": True},
    ),
]

# (p, n) of the generated draws in one pass: |L| = 7^6 and 5^9.  A 5^9
# config takes 0.5-1.2 s depending on the draw, and the four of them half a
# pass, so they are drawn from a fixed seed, the same for every seed of the
# workload: then the pass time does not hinge on four draws.
MODULE_DRAWS = [(7, 6)] * 16
MODULE_FIXED = [(5, 9)] * 4


def draw_module_class(p, n, rng, log):
    """Draw phi_T over L = F_p[z]/(f), deg f = n, with gamma(T) = c in F_p,
    and solve its Frobenius relation.  Every draw is logged.  One is kept
    when its relation has a unique solution, its cubic has no root in A,
    and the repeated part of its discriminant has degree at most 1, so
    deg I <= 1: a larger index (deg I = 3 was seen at |L| = 7^6) makes the
    class side cost seconds and the draw would measure `cubic`, not `skew`.
    The others are redrawn."""
    Fp = field(p)
    while True:
        f = random_irreducible(Fp, n, rng)
        L = PrimeExtension(p, f)
        c = rng.randrange(p)
        delta = L.random(rng)
        if delta == L.zero:
            continue
        phi_t = [L.embed(c), L.random(rng), L.random(rng), delta]
        pv = [(-c) % p, 1]
        rank, unknowns, sol = frobenius_relation(L, phi_t, pv, n)
        entry = {"p": p, "n": n, "rank": rank, "unknowns": unknowns, "solved": sol is not None}
        log.append(entry)
        if sol is None:
            continue
        a1, a2, mu = sol
        disc = cubic_disc(Fp, a1, a2, pscale(Fp, ppow(Fp, pv, n), mu))
        entry["reducible"] = cubic_has_root_in_A(Fp, a1, a2, mu, pv, n)
        entry["repeated_degree"] = repeated_degree(Fp, disc) if disc else None
        entry["kept"] = not entry["reducible"] and entry["repeated_degree"] in (0, 1)
        if entry["kept"]:
            return L, f, phi_t, pv, sol


def perturb(L, phi_t, cls, pv, n, rng):
    """phi_T with tau^1 coefficient moved off the class."""
    a1, a2, mu = cls
    while True:
        shift = L.random(rng)
        if shift == L.zero:
            continue
        off = [phi_t[0], L.add(phi_t[1], shift), phi_t[2], phi_t[3]]
        if weil_residual(L, off, a1, a2, mu, pv, n):
            return off


def module_ident(seed, log=None):
    rng = random.Random(f"module-ident/{seed}")
    fixed_rng = random.Random("module-ident/fixed")
    slots = [(p, n, rng) for p, n in MODULE_DRAWS] + [(p, n, fixed_rng) for p, n in MODULE_FIXED]
    log = [] if log is None else log
    cases = [
        {"id": cid, "config": cfg, "expect": {"exit": 0, "modules": mods}}
        for cid, cfg, mods in SHIPPED
    ]
    for idx, (p, n, rng) in enumerate(slots):
        L, f, phi_t, pv, (a1, a2, mu) = draw_module_class(p, n, rng, log)
        off = perturb(L, phi_t, (a1, a2, mu), pv, n, rng)
        modules = [
            {"name": "phi", "phi_T": [list(x) for x in phi_t]},
            {"name": "phi_off", "phi_T": [list(x) for x in off]},
        ]
        expect = {"phi": True, "phi_off": False}
        cfg = _config(field(p), pv, n, a1, a2, mu, L=list(f), modules=modules)
        cases.append(
            {
                "id": f"module-{idx:02d}-{p}^{n}",
                "config": cfg,
                "expect": {
                    "exit": 0,
                    "modules": expect,
                    "pv_divides_a2": _divides(field(p), pv, a2),
                },
            }
        )
    return cases


WORKLOADS = {
    "class-sandwich": class_sandwich,
    "class-batch": class_batch,
    "module-ident": module_ident,
}
