from __future__ import annotations

import random
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from drinfeld_orders import (
    InternalInconsistencyError,
    NotWeilAtVError,
    Poly,
    PrimeField,
    ReducibleError,
    WeilCubic,
    WeilValidationError,
    analyze_weil_class,
    divisors,
    height,
    integral_basis,
    is_irreducible,
    maximal_order_data,
    poly_gcd,
    squarefree_decompose,
    standard_form,
    validate_weil_necessary,
)
import drinfeld_orders.cubic as cubic_module
import drinfeld_orders.factor as factor_module
from drinfeld_orders.cubic import _check_at_infinity, _is_square_mod, _local_at_v
from drinfeld_orders.cli import load_config
from drinfeld_orders.factor import factor, make_extension_field
from drinfeld_orders.gf import ExtensionField
from drinfeld_orders.poly import polys_below_degree, valuation

from oracles import (
    RatFunc,
    const_poly,
    content_oracle,
    field_discriminant_oracle,
    int_poly,
    integral_basis_oracle,
    newton_vertices,
    residue_factor,
    residue_pattern_oracle,
    root_in_a_oracle,
    trace_form_discriminant,
)


def test_validate_worked_example(example_weil):
    local = validate_weil_necessary(example_weil)
    assert local.height == 1
    assert local.etale_degree == 2
    assert local.residue_pattern == ((1, 1), (1, 2))
    assert not local.supersingular
    assert not local.pv_divides_a2


def test_validate_supersingular_shape(f5):
    # x^3 + T^2 x + T^3, the class of configs/example_f5_supersingular.json
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T * T, mu=f5.one, pv=T, m=3)
    local = validate_weil_necessary(W)
    assert local.height == 3
    assert local.supersingular
    assert local.residue_pattern == ((1, 3),)


def test_validate_height_two_shape(f5):
    # x^3 + T^2 x^2 + (3T^4 + 2T^2 + 2) x + pv^3 with pv = T^2 + 2
    T = Poly.x(f5)
    pv = T * T + const_poly(f5, f5.element(2))
    W = WeilCubic(
        field=f5, a1=T * T, a2=int_poly(f5, [2, 0, 2, 0, 3]), mu=f5.one, pv=pv, m=3
    )
    local = validate_weil_necessary(W)
    assert local.height == 2
    assert local.pv_divides_a2 and not local.supersingular
    assert (1, 1) in local.residue_pattern


def test_validate_rejects_reducible(f5):
    T = Poly.x(f5)
    # (x - T)^3 = x^3 + 2T x^2 + 3T^2 x + 4T^3, the README's example
    W = WeilCubic(
        field=f5,
        a1=T.scale(f5.element(2)),
        a2=(T * T).scale(f5.element(3)),
        mu=f5.element(4),
        pv=T,
        m=3,
    )
    assert W.a0 == (T**3).scale(f5.element(4))
    with pytest.raises(ReducibleError, match="has the root T in A"):
        validate_weil_necessary(W)
    # (x - 1)(x^2 + x + (T+1)) = x^3 + T x + (4T + 4) has the unit root 1,
    # whose degree 0 is not n/3 = 1/3: deg a2 = 1 breaks the bound 2n/3
    W = WeilCubic(
        field=f5,
        a1=Poly.zero(f5),
        a2=T,
        mu=f5.element(4),
        pv=int_poly(f5, [1, 1]),
        m=1,
    )
    assert W.a0 == int_poly(f5, [4, 4])
    with pytest.raises(WeilValidationError, match="degree bound at infinity"):
        validate_weil_necessary(W)


def sieve_verdict(W):
    """The verdict of validation on a cubic: None when it passes, the
    ReducibleError message, or "rejected" for any other rejection."""
    try:
        validate_weil_necessary(W)
    except ReducibleError as exc:
        return str(exc)
    except WeilValidationError:
        return "rejected"
    return None


def oracle_verdict(W):
    r = root_in_a_oracle(W)
    return None if r is None else f"M(x) has the root {r.to_str()} in A"


def assert_root_verdict(W):
    """Validation rejects every cubic with a root in A, and a ReducibleError
    names the root that the oracle finds; returns validation's verdict."""
    verdict, want = sieve_verdict(W), oracle_verdict(W)
    assert verdict in ((want, "rejected") if want else (None, "rejected"))
    return verdict


def sieve_fields():
    F7 = PrimeField(7)
    F5 = PrimeField(5)
    return {
        "F13": PrimeField(13),
        "F25": make_extension_field(F5, int_poly(F5, [2, 0, 1])),
        "F49": make_extension_field(F7, int_poly(F7, [1, 0, 1])),
    }


def test_root_sieve_matches_exhaustive_scan_on_pool(instance_pool):
    for analysis in instance_pool:
        assert sieve_verdict(analysis.weil) == oracle_verdict(analysis.weil) is None


def planted_root_cubic(F, pv, m, j, rng):
    """(x - u pv^j)(x^2 + s x + c pv^(m-j)) with random u, c and s: the root
    u pv^j divides a0 = -u c pv^m; the quadratic may add roots of its own."""
    u, c = (F.element(rng.randrange(1, F.q)) for _ in range(2))
    s = Poly(F, (F.element(rng.randrange(F.q)) for _ in range(3)))
    r = (pv**j).scale(u)
    t = (pv ** (m - j)).scale(c)
    W = WeilCubic(
        field=F, a1=s - r, a2=t - r * s, mu=F.neg(F.mul(u, c)), pv=pv, m=m
    )
    assert W.a0 == -(r * t)
    return W


def cube_cubic(F, pv, k, a):
    """(x + a pv^k)^3, with a in F_q*: in bounds, of height 3 and m = 3k."""
    r = (pv**k).scale(a)
    three = F.from_int(3)
    return WeilCubic(
        field=F, a1=r.scale(three), a2=(r * r).scale(three), mu=F.pow(a, 3), pv=pv, m=3 * k
    )


@pytest.mark.parametrize("name", ["F13", "F25", "F49"])
def test_root_sieve_finds_constructed_roots(name):
    # planted roots u pv^j are rejected, at infinity unless j = m/3 and the
    # quadratic keeps the bounds; a cube (x + a pv^k)^3 is rejected as
    # reducible, naming the oracle's root
    F = sieve_fields()[name]
    rng = random.Random(f"sieve/{name}")
    T = Poly.x(F)
    m = 3
    quadratics = [T * T + const_poly(F, F.element(i)) for i in range(1, F.q)]
    quadratic = next(f for f in quadratics if is_irreducible(f))
    for pv in (T + const_poly(F, F.element(3)), quadratic):
        for j in (0, m // 3, m):
            W = planted_root_cubic(F, pv, m, j, rng)
            assert oracle_verdict(W) is not None
            assert assert_root_verdict(W) is not None
        for k in (1, 2):
            W = cube_cubic(F, pv, k, F.element(rng.randrange(1, F.q)))
            assert sieve_verdict(W) == oracle_verdict(W) is not None


def test_root_sieve_by_gcd_matches_oracle(instance_pool, monkeypatch):
    # the two tests above with every irreducibility test by Ben-Or, as for
    # q above the scan bound
    monkeypatch.setattr(factor_module, "ROOT_SCAN_MAX", 1)
    test_root_sieve_matches_exhaustive_scan_on_pool(instance_pool)
    for name in sieve_fields():
        test_root_sieve_finds_constructed_roots(name)


def test_root_sieve_candidate_rejected_by_full_check():
    # over F_13, x^3 + x^2 - T^3 with pv = T: u = 1 is a root of the residual
    # x^3 - 1 at infinity, which splits there, but M(T) = T^2 is not zero;
    # the class is rejected at infinity, not as reducible
    F = PrimeField(13)
    T = Poly.x(F)
    W = WeilCubic(field=F, a1=Poly.one(F), a2=Poly.zero(F), mu=F.element(12), pv=T, m=3)
    a0, a2, a1, _ = W.coefficients()
    assert ((T + a1) * T + a2) * T + a0 == T * T
    assert oracle_verdict(W) is None
    with pytest.raises(WeilValidationError, match="residual polynomial at infinity splits"):
        _check_at_infinity(W)


@pytest.mark.parametrize("name", ["F13", "F25", "F49"])
def test_root_sieve_matches_exhaustive_scan_on_random_cubics(name):
    # random cubics inside the bounds at infinity, every other one with a
    # planted root at a random j, and every third a cube
    F = sieve_fields()[name]
    rng = random.Random(f"sieve-random/{name}")
    T = Poly.x(F)
    reducible = 0
    for k in range(60):
        pv = T + const_poly(F, F.element(rng.randrange(F.q)))
        m = rng.randrange(1, 7)
        if k % 3 == 0:
            W = cube_cubic(F, pv, rng.randrange(1, 3), F.element(rng.randrange(1, F.q)))
        elif k % 2:
            W = planted_root_cubic(F, pv, m, rng.randrange(m + 1), rng)
        else:
            a1, a2 = (
                Poly(F, [F.element(rng.randrange(F.q)) for _ in range(d + 1)])
                for d in (m // 3, 2 * m // 3)
            )
            mu = F.element(rng.randrange(1, F.q))
            W = WeilCubic(field=F, a1=a1, a2=a2, mu=mu, pv=pv, m=m)
        verdict = assert_root_verdict(W)
        assert k % 2 == 0 or verdict is not None
        reducible += verdict is not None and verdict.startswith("M(x) has the root")
    assert reducible >= 20  # every cube


def test_validate_rejects_char3():
    F3 = PrimeField(3)
    T = Poly.x(F3)
    W = WeilCubic(field=F3, a1=T, a2=T, mu=F3.element(1), pv=T, m=1)
    with pytest.raises(WeilValidationError, match="^characteristic 3 is not supported$"):
        validate_weil_necessary(W)


def test_validate_rejects_bad_constant_data(f5):
    T = Poly.x(f5)
    with pytest.raises(WeilValidationError, match="^mu must be a nonzero field element$"):
        validate_weil_necessary(
            WeilCubic(field=f5, a1=T, a2=T, mu=f5.zero, pv=T, m=1)
        )
    with pytest.raises(WeilValidationError, match="^m must be a positive integer$"):
        validate_weil_necessary(
            WeilCubic(field=f5, a1=T, a2=T, mu=f5.one, pv=T, m=0)
        )
    with pytest.raises(
        WeilValidationError, match="^pv must be monic irreducible of degree >= 1$"
    ):
        validate_weil_necessary(
            WeilCubic(field=f5, a1=T, a2=T, mu=f5.one, pv=T * T, m=1)
        )


def test_validate_rejects_split_local_factor(f5):
    # x^3 + x^2 + (T^2 + 2T) x + T^3 is irreducible over k and passes at
    # infinity (residual x^3 + x + 1), but has v-adic zeros of valuations 1
    # and 2 (Newton slopes -1 and -2 above the unit root), so two v-adic
    # factors carry pv in their constant terms.
    F = f5
    T = Poly.x(F)
    W = WeilCubic(
        field=F, a1=Poly.one(F), a2=int_poly(F, [0, 2, 1]), mu=F.element(1), pv=T, m=3
    )
    assert root_in_a_oracle(W) is None
    _check_at_infinity(W)
    with pytest.raises(NotWeilAtVError):
        validate_weil_necessary(W)


def test_height_characterisation(instance_pool):
    for analysis in instance_pool:
        W, local = analysis.weil, analysis.local
        h = height(W)
        assert h == local.height and 1 <= h <= 3
        div_a2 = W.a2.is_zero or (W.a2 % W.pv).is_zero
        div_a1 = W.a1.is_zero or (W.a1 % W.pv).is_zero
        assert (h == 1) == (not div_a2)
        assert (h == 3) == (div_a2 and div_a1)


def test_newton_polygon_closed_form_matches_hull(f5):
    # h = 3 with pv = T: "distinct valuations" is raised exactly when the
    # lower hull of (0, m), (1, v(a2)), (2, v(a1)), (3, 0) has a break.
    # _local_at_v relies on the degree bounds at infinity
    # (deg a1 <= m/3, deg a2 <= 2m/3), so only the cubics inside them go to
    # it; validation rejects the others at infinity, before any check at v
    T = Poly.x(f5)
    verdicts, outside = set(), 0
    for m in range(1, 13):
        for v_a1 in [None, *range(1, m + 3)]:
            for v_a2 in [None, *range(1, m + 3)]:
                a1 = Poly.zero(f5) if v_a1 is None else T**v_a1
                a2 = Poly.zero(f5) if v_a2 is None else T**v_a2
                W = WeilCubic(field=f5, a1=a1, a2=a2, mu=f5.element(2), pv=T, m=m)
                if 3 * a1.degree > m or 3 * a2.degree > 2 * m:
                    outside += 1
                    with pytest.raises(WeilValidationError, match="degree bound at infinity"):
                        validate_weil_necessary(W)
                    continue
                points = [(0, m), (3, 0)]
                points += [(1, v_a2)] if v_a2 is not None else []
                points += [(2, v_a1)] if v_a1 is not None else []
                try:
                    _local_at_v(W)
                    raised = False
                except NotWeilAtVError as exc:
                    raised = "distinct valuations" in str(exc)
                assert raised == (len(newton_vertices(points)) > 2), (m, v_a1, v_a2)
                verdicts.add(raised)
    assert verdicts == {True, False} and outside


def residual_class(F, pv, k, r2, r1, mu):
    """x^3 + r2 pv^k x^2 + r1 pv^2k x + mu pv^3k for r2, r1, mu in F_q: in
    bounds, of height 3, and pv^3k r(x / pv^k) for the residual at infinity
    r = x^3 + r2 x^2 + r1 x + mu."""
    return WeilCubic(
        field=F,
        a1=(pv**k).scale(F.element(r2)),
        a2=(pv ** (2 * k)).scale(F.element(r1)),
        mu=F.element(mu),
        pv=pv,
        m=3 * k,
    )


def count_field_builds(monkeypatch):
    """The argument tuples of every ExtensionField built from now on."""
    built = []
    init = ExtensionField.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ExtensionField, "__init__", counting)
    return built


def _residual_verdict(W, built):
    """(validation's verdict, the one it should give by the oracles) for a
    class from residual_class: the residual at infinity splits iff factor
    finds two or more distinct factors over F_q; an F_q-cube makes M a cube,
    reducible with the oracle's root; an irreducible one is tested at v by
    residue_factor over F_q[T]/(pv).  Validation builds no field."""
    F, pv, k = W.field, W.pv, W.m // 3
    n = k * pv.degree
    r = Poly(F, (W.mu, W.a2.coeff(2 * n), W.a1.coeff(n), F.one))
    at_infinity = factor(r)
    residual = [W.a0.exact_div(pv**W.m), W.a2.exact_div(pv ** (2 * k)), W.a1.exact_div(pv**k)]
    _, at_v = residue_factor(residual + [Poly.one(F)], pv)
    if len(at_infinity) > 1:
        want = "the residual polynomial at infinity splits"
    elif at_infinity[0][0].degree == 1:
        want = oracle_verdict(W)
    elif len(at_v) > 1:
        want = "the supersingular residual polynomial splits"
    else:
        want = None
    before = len(built)
    try:
        validate_weil_necessary(W)
        verdict = None
    except WeilValidationError as exc:
        verdict = str(exc)
    assert len(built) == before
    return verdict, want


@pytest.mark.parametrize("p", [5, 7])
def test_residual_split_matches_factorisation_exhaustive(p, monkeypatch):
    # every x^3 + r2 pv^k x^2 + r1 pv^2k x + mu pv^3k over F_p for pv = T
    # and T - 2 and k = 1, 2: the class is rejected at infinity iff the
    # residual x^3 + r2 x^2 + r1 x + mu has two or more distinct factors,
    # as reducible iff it is a cube, and otherwise passes, as deg pv = 1
    built = count_field_builds(monkeypatch)
    F = PrimeField(p)
    T = Poly.x(F)
    for pv, k in product((T, T - const_poly(F, F.element(2))), (1, 2)):
        cubes = 0
        for r2, r1, mu in product(range(p), range(p), range(1, p)):
            W = residual_class(F, pv, k, r2, r1, mu)
            verdict, want = _residual_verdict(W, built)
            assert verdict == want, (pv.to_str(), k, r2, r1, mu)
            cubes += verdict is not None and verdict.startswith("M(x) has the root")
        assert cubes == p - 1  # (x + a)^3 for each a in F_p*


def test_residual_split_matches_factorisation_over_f25(monkeypatch):
    # deg pv = 2 over F_5, so the residual at v lives over R = F_25: every
    # residual over F_5, of which an irreducible one stays irreducible over
    # F_25, and the 4 cubes (x + a)^3 with a in F_5*
    built = count_field_builds(monkeypatch)
    F = PrimeField(5)
    T = Poly.x(F)
    pv = T * T + const_poly(F, F.element(2))
    verdicts = []
    for r2, r1, mu in product(range(5), range(5), range(1, 5)):
        verdict, want = _residual_verdict(residual_class(F, pv, 1, r2, r1, mu), built)
        assert verdict == want, (r2, r1, mu)
        verdicts.append(verdict)
    cubes = sum(v is not None and v.startswith("M(x) has the root") for v in verdicts)
    assert cubes == 4 and None in verdicts
    assert "the residual polynomial at infinity splits" in verdicts
    assert len(built) == len(verdicts)  # one F_25 per class, all by the oracle


def test_residual_splits_at_v_iff_three_divides_deg_pv(monkeypatch):
    # deg pv = 3 over F_5: an irreducible residual over F_5 splits over
    # F_q[T]/(pv) = F_125, so no class of height 3 with 3 | m passes
    built = count_field_builds(monkeypatch)
    F = PrimeField(5)
    T = Poly.x(F)
    cubics = (T**3 + T + const_poly(F, F.element(c)) for c in range(1, 5))
    pv = next(f for f in cubics if is_irreducible(f))
    split_at_v = 0
    for r2, r1, mu in product(range(5), range(5), range(1, 5)):
        verdict, want = _residual_verdict(residual_class(F, pv, 1, r2, r1, mu), built)
        assert verdict == want is not None, (r2, r1, mu)
        split_at_v += verdict == "the supersingular residual polynomial splits"
    assert split_at_v


def test_residual_root_search_by_gcd_matches_factorisation(monkeypatch):
    # the tests above with every irreducibility test by Ben-Or, as for q
    # above the scan bound
    monkeypatch.setattr(factor_module, "ROOT_SCAN_MAX", 1)
    for p in (5, 7):
        test_residual_split_matches_factorisation_exhaustive(p, monkeypatch)
    test_residual_split_matches_factorisation_over_f25(monkeypatch)
    test_residual_splits_at_v_iff_three_divides_deg_pv(monkeypatch)


def test_standard_form_depressed_input(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T, mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    assert sf.b1 == W.a2
    assert sf.b2 == W.a0
    assert sf.g.is_one


def test_standard_form_worked_example(example_analysis):
    sf = example_analysis.sf
    F = sf.c1.field
    assert sf.b1 == int_poly(F, [2, 4, 4])
    assert sf.b2 == int_poly(F, [3, 4, 0, 3])
    assert sf.g.is_one
    assert sf.c1 == sf.b1 and sf.c2 == sf.b2
    # disc(M0) = T^2 (T+4)^2 (T^2+4T+2)
    T = Poly.x(F)
    t4 = int_poly(F, [4, 1])
    quad = int_poly(F, [2, 4, 1])
    assert sf.disc_m0 == T * T * t4 * t4 * quad


def test_standard_form_strips_content(f5):
    # synthetic: b1 = s^2 u, b2 = s^3 w with s = T+1 (instance found by search)
    F = f5
    T = Poly.x(F)
    W = WeilCubic(
        field=F,
        a1=T,
        a2=int_poly(F, [3, 2, 2, 1]),
        mu=F.element(2),
        pv=int_poly(F, [2, 1]),
        m=2,
    )
    sf = standard_form(W)
    s = int_poly(F, [1, 1])
    assert sf.g == s
    assert sf.c1 * s * s == sf.b1
    assert sf.c2 * s**3 == sf.b2
    # standardness: no prime divides c1 twice and c2 three times
    common = poly_gcd(sf.c1, sf.c2)
    for prime in [p for p, _ in factor(common)]:
        assert valuation(sf.c1, prime) < 2 or valuation(sf.c2, prime) < 3


def test_field_discriminant_worked_example(example_analysis):
    mo = example_analysis.mo
    F = mo.delta.field
    t4 = int_poly(F, [4, 1])
    quad = int_poly(F, [2, 4, 1])
    assert mo.delta == t4 * t4 * quad


def test_field_discriminant_squarefree_disc(f5):
    # any instance whose disc(M0) is square-free has delta = disc(M0)
    T = Poly.x(f5)
    # x^3 + x + T: disc(M0) = -4 - 27 T^2 = 3(T^2 + 2), square-free
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=Poly.one(f5), mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    decomp = squarefree_decompose(sf.disc_m0)
    assert all(m == 1 for _, m in decomp)
    delta = maximal_order_data(sf).delta
    assert delta == sf.disc_m0.monic()


def test_field_discriminant_valuation_two_case(instance_pool):
    # wherever v_p(c1) >= v_p(c2) >= 1, the discriminant valuation is 2
    hit = 0
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        for prime, _ in factor(sf.disc_m0):
            v1 = None if sf.c1.is_zero else valuation(sf.c1, prime)
            v2 = valuation(sf.c2, prime)
            if (v1 is None or v1 >= v2) and v2 >= 1:
                assert valuation(mo.delta, prime) == 2
                hit += 1
    assert hit >= 1


def test_index_worked_example(example_analysis):
    assert example_analysis.mo.index == Poly.x(example_analysis.weil.field)


def test_index_trivial_when_delta_is_disc(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T, mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    mo = maximal_order_data(sf)
    delta = mo.delta
    assert delta == sf.disc_m0.monic()
    assert mo.index.is_one


def test_index_against_divisor_search(instance_pool):
    # I is the unique monic divisor d of disc(M0) with d^2 * delta = disc(M0)
    for analysis in instance_pool[:12]:
        sf, mo = analysis.sf, analysis.mo
        target = sf.disc_m0.monic()
        hits = [
            d for d in divisors(target.field, factor(target))
            if d * d * mo.delta == target
        ]
        assert hits == [mo.index]


def test_integral_basis_worked_example(example_analysis):
    mo = example_analysis.mo
    F = mo.delta.field
    assert mo.beta2 == int_poly(F, [4])
    assert mo.alpha2 == int_poly(F, [3])


def test_integral_basis_trivial_when_index_one(f5):
    T = Poly.x(f5)
    W = WeilCubic(field=f5, a1=Poly.zero(f5), a2=T, mu=f5.element(1), pv=T, m=1)
    sf = standard_form(W)
    alpha2, beta2 = integral_basis(sf, Poly.one(f5), ())
    assert alpha2.is_zero and beta2.is_zero
    # T divides disc(M0) = -4T^3 - 27T^2 but not the index: no residue of
    # beta2 mod T meets both congruences
    message = (
        "^no integral-basis residue mod T; the index is inconsistent with the standard form$"
    )
    with pytest.raises(InternalInconsistencyError, match=message):
        integral_basis(sf, T, ((T, 1),))


def test_integral_basis_congruences_hold(instance_pool):
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        I, a2, b2 = mo.index, mo.alpha2, mo.beta2
        if I.is_one:
            continue
        I2 = I * I
        assert (((b2 * b2).scale_int(3) + sf.c1) % I).is_zero
        assert ((b2**3 + sf.c1 * b2 + sf.c2) % I2).is_zero
        assert ((a2 + (b2 * b2).scale_int(2)) % I).is_zero
        assert b2.degree < I2.degree and a2.degree < I.degree


def test_integral_basis_exhaustive_oracle(instance_pool):
    # degree-1 index: the pipeline's beta2 is the canonically smallest of
    # all solutions found by a full scan of the q^2 residues mod I^2
    checked = 0
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        I = mo.index
        if I.degree != 1:
            continue
        F = I.field
        I2 = I * I
        sols = [
            beta
            for beta in polys_below_degree(F, 2)
            if (((beta * beta).scale_int(3) + sf.c1) % I).is_zero
            and ((beta**3 + sf.c1 * beta + sf.c2) % I2).is_zero
        ]
        assert mo.beta2 in sols
        assert mo.beta2 == min(sols, key=lambda b: b.sort_key())
        checked += 1
    assert checked >= 2


def test_integral_basis_lifting_path_matches_exhaustive(instance_pool):
    # the closed form beta2 = -3 c2 / (2 c1) agrees with the exhaustive scan
    # of the residues mod I^2 on every instance with a nontrivial index
    checked = 0
    multi_prime = 0
    prime_divides_c1 = 0
    for analysis in instance_pool:
        sf, I = analysis.sf, analysis.mo.index
        if I.degree < 1:
            continue
        assert integral_basis(sf, I, factor(I)) == integral_basis_oracle(sf, I)
        checked += 1
        if len(factor(I)) > 1:
            multi_prime += 1
        if any(not sf.c1 % prime for prime, _ in factor(I)):
            prime_divides_c1 += 1
    assert checked >= 5
    assert multi_prime >= 1
    assert prime_divides_c1 >= 1  # the branch beta2 = 0 mod P ran at least once


def test_integral_basis_mixed_branches_match_oracle(f5):
    # x^3 + 4x^2 + (T^4+2T^2+4T)x + 3T^2 over F_5: I = T(T+3), where T + 3
    # divides c1 (beta2 = 0 mod T+3) and T does not (beta2 = -3c2/(2c1) mod T).
    # deg a2 = 4 breaks the bound 2n/3 = 4/3 at infinity, so the layers
    # below validation are called directly
    T = Poly.x(f5)
    W = WeilCubic(
        field=f5, a1=int_poly(f5, [4]), a2=int_poly(f5, [0, 4, 2, 0, 1]),
        mu=f5.element(3), pv=T, m=2,
    )
    with pytest.raises(WeilValidationError, match="degree bound at infinity"):
        validate_weil_necessary(W)
    assert height(W) == 2
    sf = standard_form(W)
    mo = maximal_order_data(sf)
    three = int_poly(f5, [3])
    assert mo.index_factors == ((T, 1), (T + three, 1))
    assert sf.c1 % T and not sf.c1 % (T + three)
    assert integral_basis(sf, mo.index, mo.index_factors) == integral_basis_oracle(sf, mo.index)


def test_integral_basis_inverts_2c1_modulo_its_part_of_the_index(instance_pool, monkeypatch):
    # u = 1/(2 c1) mod I1, I1 the product of the P^k of I with P not dividing
    # c1, is inverse_mod's answer of degree < deg I1, and beta2 = -3 c2 u mod
    # I; with I1 = 1 no inverse is taken
    real = cubic_module.inverse_mod
    calls = []

    def recording(B, a, f):
        calls.append((a, f, real(B, a, f)))
        return calls[-1][2]

    monkeypatch.setattr(cubic_module, "inverse_mod", recording)
    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    shipped = [analyze_weil_class(load_config(str(path)).weil) for path in configs]
    inverted = 0
    for analysis in [*instance_pool, *shipped]:
        sf, mo = analysis.sf, analysis.mo
        F, two_c1 = sf.c1.field, sf.c1.scale_int(2)
        I1 = Poly.one(F)
        for prime, k in mo.index_factors:
            if sf.c1 % prime:
                I1 = I1 * prime**k
        calls.clear()
        assert integral_basis(sf, mo.index, mo.index_factors) == (mo.alpha2, mo.beta2)
        if I1.is_one:
            assert calls == []
            continue
        [(a, f, s)] = calls
        assert a == (two_c1 % I1).coeffs and f == I1.coeffs and len(s) == I1.degree
        u = Poly(F, s)
        assert (two_c1 * u % I1).is_one
        assert mo.beta2 == (sf.c2 * u).scale_int(-3) % mo.index
        inverted += 1
    assert inverted >= 5


def test_conductor_generator_product_worked_example(example_analysis):
    # in the worked instance, (pi - 3T + 3) * omega2 = (T+1) pi + 4T^2+4T+3,
    # an element of A[pi]; checked in the companion-matrix representation

    W, sf, mo = example_analysis.weil, example_analysis.sf, example_analysis.mo
    F = W.field
    zero = RatFunc.from_poly(Poly.zero(F))
    one = RatFunc.from_poly(Poly.one(F))

    def rmat(rows):
        return [[RatFunc.from_poly(p) for p in row] for row in rows]

    def rmul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(3)), start=zero) for j in range(3)]
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
    t = RatFunc.from_poly(W.a1.scale(F.inv(F.from_int(3))))  # g = 1 here
    pt = radd(c_m, rscale(eye, t))
    w2 = rscale(
        radd(
            radd(
                rscale(eye, RatFunc.from_poly(mo.alpha2)),
                rscale(pt, RatFunc.from_poly(mo.beta2)),
            ),
            rmul(pt, pt),
        ),
        one / RatFunc.from_poly(mo.index),
    )
    shift = RatFunc.from_poly(int_poly(F, [3, 2]))  # -3T + 3 over F5
    left = rmul(radd(c_m, rscale(eye, shift)), w2)
    want = radd(
        rscale(c_m, RatFunc.from_poly(int_poly(F, [1, 1]))),
        rscale(eye, RatFunc.from_poly(int_poly(F, [3, 4, 4]))),
    )
    assert all(left[i][j] == want[i][j] for i in range(3) for j in range(3))


def test_disc_identity_and_trace_form(instance_pool):
    for analysis in instance_pool:
        mo = analysis.mo
        # disc(M0) = I^2 * delta up to the leading unit
        assert analysis.sf.disc_m0.monic() == (mo.index * mo.index * mo.delta).monic()
    for analysis in instance_pool[:8]:
        got = trace_form_discriminant(analysis.sf, analysis.mo)
        assert got.monic() == analysis.mo.delta


def test_delta_matches_squarefree_shape_and_trace_form(instance_pool):
    # Delta read off the valuation criterion agrees with the square-free
    # shape of disc(M0) and with the discriminant of the trace form
    for analysis in instance_pool:
        sf, mo = analysis.sf, analysis.mo
        assert mo.delta == field_discriminant_oracle(sf)
        assert trace_form_discriminant(sf, mo).monic() == mo.delta


def test_index_factors_are_the_factorisation_of_i(instance_pool):
    for analysis in instance_pool:
        mo = analysis.mo
        assert mo.index_factors == factor(mo.index)


@pytest.mark.parametrize("v", [1, 3])
def test_odd_index_exponent_raises(f5, v):
    # c1 = 0 and v_T(c2) = 1 give v_T(Delta) = 2 by the criterion, so a
    # disc(M0) with v_T = 1 or 3 leaves a negative or odd exponent for I^2
    T = Poly.x(f5)
    sf = SimpleNamespace(
        c1=Poly.zero(f5), c2=T, disc_m0=T**v, disc_m0_factors=((T, v),)
    )
    with pytest.raises(InternalInconsistencyError, match="perfect square"):
        maximal_order_data(sf)


@pytest.mark.parametrize("c1_exp", [2, None])
def test_square_cube_content_in_standard_form_raises(f5, c1_exp):
    # T^2 | c1 (or c1 = 0) and T^3 | c2: T divides disc(M0), and the loop
    # over its primes rejects the stand-in before reading Delta off it
    T = Poly.x(f5)
    c1 = Poly.zero(f5) if c1_exp is None else T**c1_exp
    c2 = T**3
    disc_m0 = (c1**3).scale_int(-4) + (c2 * c2).scale_int(-27)
    sf = SimpleNamespace(
        c1=c1, c2=c2, disc_m0=disc_m0, disc_m0_factors=factor(disc_m0)
    )
    with pytest.raises(InternalInconsistencyError, match="square/cube content"):
        maximal_order_data(sf)


def content_classes():
    """Standard-form inputs the instance pool does not pin down: b1 = 0, a
    content prime of degree 2, and a disc(M) whose exponent p divides."""
    F = PrimeField(5)
    T = Poly.x(F)
    P = T * T + const_poly(F, F.element(2))  # irreducible over F_5
    zero = Poly.zero(F)
    return [
        # x^3 + T: b1 = 0, g = 1
        WeilCubic(field=F, a1=zero, a2=zero, mu=F.one, pv=T, m=1),
        # x^3 + T P^2 x + P^4: g = P, c1 = T, c2 = P
        WeilCubic(field=F, a1=zero, a2=T * P * P, mu=F.one, pv=P, m=4),
        # x^3 + T^10 x + T^15: disc(M) = 4 T^30, g = T^5, c1 = c2 = 1
        WeilCubic(field=F, a1=zero, a2=T**10, mu=F.one, pv=T, m=15),
    ]


def test_content_and_disc_m0_primes_match_oracle(instance_pool):
    # g and the entries of disc(M0), read off the repeated part of disc(M),
    # against square-free content, a factorisation of disc(M0) itself and
    # the field discriminant from its square-free shape
    sfs = [a.sf for a in instance_pool] + [standard_form(W) for W in content_classes()]
    assert any(sf.b1.is_zero for sf in sfs)
    assert any(prime.degree == 2 for sf in sfs for prime, _ in sf.g_factors)
    simple_prime_of_g = delta_square = no_repeated_part = 0
    for sf in sfs:
        assert sf.g == content_oracle(sf.b1, sf.b2)
        assert sf.g_factors == factor(sf.g)
        entries = [entry for entry, _ in sf.disc_m0_factors]
        d0 = Poly.one(sf.g.field)
        for entry, k in sf.disc_m0_factors:
            d0 = d0 * entry**k
        assert d0 == sf.disc_m0.monic()
        for i, a in enumerate(entries):
            assert all(poly_gcd(a, b).is_one for b in entries[i + 1:])
        assert all(is_irreducible(entry) for entry, k in sf.disc_m0_factors if k >= 2)
        split = [
            (prime, k * e)
            for entry, k in sf.disc_m0_factors
            for prime, e in factor(entry)
        ]
        assert sorted(split, key=lambda t: t[0].sort_key()) == list(
            factor(sf.disc_m0)
        )
        delta = maximal_order_data(sf).delta
        assert delta == field_discriminant_oracle(sf)
        simple_prime_of_g += any(
            k == 1 and not poly_gcd(entry, sf.g).is_one
            for entry, k in sf.disc_m0_factors
        )
        delta_square += any(m == 2 for _, m in squarefree_decompose(delta))
        d = sf.g**6 * sf.disc_m0
        no_repeated_part += all(m == 1 for _, m in squarefree_decompose(d))
    assert simple_prime_of_g and delta_square and no_repeated_part
    T = Poly.x(PrimeField(5))
    assert sfs[-1].g == T**5 and sfs[-1].disc_m0_factors == ()


def test_residue_pattern_matches_factorisation_on_pool(instance_pool):
    for analysis in instance_pool:
        assert analysis.local.residue_pattern == residue_pattern_oracle(analysis.weil)


def residue_shape_fields():
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    out = []
    for F in (F5, F25):
        T = Poly.x(F)
        quadratics = (T * T + const_poly(F, F.element(i)) for i in range(1, F.q))
        quadratic = next(f for f in quadratics if is_irreducible(f))
        out += [(F, T + const_poly(F, F.element(2))), (F, quadratic)]
    return out


def planted_residue_cubic(F, pv, shape, rng):
    """A cubic M = x^3 + a1 x^2 + a2 x + mu pv^m with M mod pv of the given
    shape: x^3, x^2 (x - s), or x (x - s)(x - t) with t = s ("double"),
    t != s ("split"), or x (x^2 + b x + c) irreducible ("irreducible").
    Residues are lifted as polynomials of degree < deg pv, and random
    multiples of pv are added on top."""
    R = make_extension_field(F, pv)  # residue field, for building only

    def lift(r):
        return Poly(F, r) + pv * Poly(F, [F.element(rng.randrange(F.q)) for _ in range(3)])

    def unit():
        return R.element(rng.randrange(1, R.q))

    if shape == "h3":
        a1, a2 = lift(R.zero), lift(R.zero)
    elif shape == "h2":
        a1, a2 = lift(R.neg(unit())), lift(R.zero)
    elif shape == "irreducible":
        while True:
            b, c = R.element(rng.randrange(R.q)), unit()
            if is_irreducible(Poly(R, (c, b, R.one))):
                break
        a1, a2 = lift(b), lift(c)
    else:
        s = unit()
        t = s if shape == "double" else next(
            u for u in (unit() for _ in range(100)) if u != s
        )
        a1, a2 = lift(R.neg(R.add(s, t))), lift(R.mul(s, t))
    mu = F.element(rng.randrange(1, F.q))
    return WeilCubic(field=F, a1=a1, a2=a2, mu=mu, pv=pv, m=rng.randrange(1, 4))


RESIDUE_SHAPES = {
    "h3": ((1, 3),),
    "h2": ((1, 1), (1, 2)),
    "split": ((1, 1), (1, 1), (1, 1)),
    "double": ((1, 1), (1, 2)),
    "irreducible": ((1, 1), (2, 1)),
}


@pytest.mark.parametrize("shape", sorted(RESIDUE_SHAPES))
def test_residue_pattern_closed_form_on_planted_cubics(shape):
    # the closed form against factoring M mod pv, over F_5 and F_25 with
    # deg pv = 1 and 2; the cubics need not define an isogeny class, and
    # the checks of height 2 and 3 reject some of them
    rng = random.Random(f"residue/{shape}")
    returned = 0
    for F, pv in residue_shape_fields():
        for _ in range(4):
            W = planted_residue_cubic(F, pv, shape, rng)
            assert residue_pattern_oracle(W) == RESIDUE_SHAPES[shape]
            try:
                got = _local_at_v(W).residue_pattern
            except NotWeilAtVError:
                assert shape in ("h2", "h3")
                continue
            assert got == RESIDUE_SHAPES[shape]
            returned += 1
    assert returned


@pytest.mark.parametrize("q", [5, 7, 25])
def test_is_square_mod_brute_force(q):
    # Euler's criterion mod pv against the squares of F_q[T]/(pv), over every
    # residue (0 included) and one unreduced representative of each
    F5 = PrimeField(5)
    F = make_extension_field(F5, int_poly(F5, [2, 0, 1])) if q == 25 else PrimeField(q)
    T = Poly.x(F)
    quadratics = (T * T + const_poly(F, F.element(i)) for i in range(1, F.q))
    for pv in (T + Poly.one(F), next(f for f in quadratics if is_irreducible(f))):
        residues = list(polys_below_degree(F, pv.degree))
        squares = {(r * r) % pv for r in residues}
        for r in residues:
            assert _is_square_mod(r, pv) == (r in squares)
            assert _is_square_mod(r + pv * T, pv) == (r in squares)


def height_two_quadratic_pv(F):
    """x^3 + T^2 x^2 + (3T^4 + 2T^2 + 2) x + pv^3 over F_5, pv = T^2 + 2:
    h = 2, inside the bounds at infinity, with residual x^3 + x^2 + 3x + 1."""
    T = Poly.x(F)
    pv = T * T + const_poly(F, F.element(2))
    return WeilCubic(
        field=F, a1=T * T, a2=int_poly(F, [2, 0, 2, 0, 3]), mu=F.one, pv=pv, m=3
    )


def test_degree_three_index_one_crt_no_residue_field(monkeypatch):
    # over F_7: pv = T, m = 6, a1 = 4T^2 + 3, a2 = 3T^4+6T^3+T^2+6T+2, mu = 1
    # has h = 1 and the irreducible index I = T^3+5T^2+4T+2, whose
    # q^(deg I) = 343 residues mod I must not be enumerated
    F = PrimeField(7)
    T = Poly.x(F)
    a1 = int_poly(F, [3, 0, 4])
    a2 = int_poly(F, [2, 6, 1, 6, 3])
    W = WeilCubic(field=F, a1=a1, a2=a2, mu=F.one, pv=T, m=6)
    residue_fields = count_field_builds(monkeypatch)
    assert validate_weil_necessary(W).height == 1
    sf = standard_form(W)
    mo = maximal_order_data(sf)
    I = mo.index
    assert I == int_poly(F, [2, 4, 5, 1]) and is_irreducible(I)
    assert mo.alpha2 == int_poly(F, [3, 2, 1])
    assert mo.beta2 == int_poly(F, [4, 1, 6])
    b2 = mo.beta2
    assert not ((b2 * b2).scale_int(3) + sf.c1) % I
    assert not (b2**3 + sf.c1 * b2 + sf.c2) % (I * I)
    assert not (mo.alpha2 + (b2 * b2).scale_int(2)) % I
    # h = 2 with deg pv = 2 needs no residue field either
    assert validate_weil_necessary(height_two_quadratic_pv(PrimeField(5))).height == 2
    assert residue_fields == []


def test_height_two_classes_depress_to_their_standard_form(f5, instance_pool):
    # for h = 2 the square test at v and standard_form both read the
    # depressed form; the class above with pv = T^2 + 2 and the pool's h = 2
    # classes run the whole analysis, and the stored t, b1, b2 satisfy
    # M(x - t) = x^3 + b1 x + b2, expanded here term by term
    classes = [height_two_quadratic_pv(f5)]
    classes += [a.weil for a in instance_pool if a.local.height == 2]
    assert len(classes) > 1
    for W in classes:
        analysis = analyze_weil_class(W)
        assert analysis.local.height == 2
        sf = analysis.sf
        t, b1, b2 = sf.t, sf.b1, sf.b2
        assert W.a1 == t.scale_int(3)
        assert b1 == (t * t).scale_int(3) - (W.a1 * t).scale_int(2) + W.a2
        assert b2 == W.a1 * t * t - t**3 - W.a2 * t + W.a0
        assert (b1**3).scale_int(-4) + (b2 * b2).scale_int(-27) == sf.disc_m0 * sf.g**6


def test_standard_form_takes_disc_m0_once(monkeypatch, instance_pool):
    # disc(M0) = disc(M) / g^6: for g = 1 standard_form takes no
    # discriminant beyond that of (b1, b2), otherwise one of (c1, c2), and
    # reading disc_m0 computes nothing; it is -4 c1^3 - 27 c2^2 exactly
    real = cubic_module._depressed_disc
    calls = []

    def counting(e1, e2):
        calls.append((e1, e2))
        return real(e1, e2)

    monkeypatch.setattr(cubic_module, "_depressed_disc", counting)
    contents = set()
    for analysis in instance_pool:
        calls.clear()
        sf = standard_form(analysis.weil)
        d0 = sf.disc_m0
        assert calls[1:] == ([] if sf.g.is_one else [(sf.c1, sf.c2)])
        assert d0 == (sf.c1**3).scale_int(-4) + (sf.c2 * sf.c2).scale_int(-27)
        contents.add(sf.g.is_one)
    assert contents == {True, False}


def test_pv_tested_for_irreducibility_once_per_class(f5, monkeypatch):
    # h = 2 and deg pv = 2
    W = height_two_quadratic_pv(f5)
    calls = []
    original = factor_module.is_irreducible

    def counting(f):
        calls.append(f)
        return original(f)

    # every binding through which the pipeline may reach the irreducibility
    # test: pv once, then the residual x^3 + x^2 + 3x + 1 at infinity
    monkeypatch.setattr(factor_module, "is_irreducible", counting)
    monkeypatch.setattr(cubic_module, "is_irreducible", counting)
    analysis = analyze_weil_class(W)
    assert analysis.local.height == 2 and analysis.local.pv_divides_a2
    assert calls == [W.pv, int_poly(f5, [1, 3, 1, 1])]


def test_box_f5_cube_against_independent_oracles():
    # every cubic of the 5^3 box over F_5 (pv = T, m = 3, deg a1 <= 1,
    # deg a2 <= 2): 4,616 pass, the 4,552 classes of its modules and 64 of
    # the 416 passing cubics whose residual at infinity is a perfect cube
    # (h <= 2), which have none.  No cubic that passes has a root in A, each
    # of the 20 ReducibleErrors (the 4 cubes (x + aT)^3 and the 16
    # (x - uT)(x^2 + bx + u^2 T^2) of height 2) names the root the oracle
    # finds, and the rejections at infinity are exactly the cubics that
    # break the bounds or whose residual there has two or more distinct
    # factors.  At v, 864 are rejected (688 of height 2 whose quadratic
    # factor splits, 176 of height 3 whose zeros have distinct valuations),
    # and each passing cubic's residue pattern is the factorisation's
    F = PrimeField(5)
    T = Poly.x(F)
    n = 3
    distinct = {}
    accepted = reducible = at_infinity = 0
    at_v, local_shapes = Counter(), Counter()
    for a1c, a2c, mu in product(
        product(range(5), repeat=2), product(range(5), repeat=3), range(1, 5)
    ):
        a1, a2 = int_poly(F, list(a1c)), int_poly(F, list(a2c))
        W = WeilCubic(field=F, a1=a1, a2=a2, mu=F.element(mu), pv=T, m=3)
        key = (a1.coeff(n // 3), a2.coeff(2 * n // 3), mu)
        if key not in distinct:
            r = Poly(F, (F.element(mu), key[1], key[0], F.one))
            distinct[key] = len(factor(r))
        in_bounds = 3 * a1.degree <= n and 3 * a2.degree <= 2 * n
        try:
            local = validate_weil_necessary(W)
        except ReducibleError as exc:
            reducible += 1
            assert str(exc) == oracle_verdict(W)
        except NotWeilAtVError as exc:
            at_v[height(W), str(exc)] += 1
            assert in_bounds and distinct[key] == 1, W
        except WeilValidationError as exc:
            at_infinity += 1
            assert type(exc) is WeilValidationError
            assert not in_bounds or distinct[key] > 1, W
        else:
            accepted += 1
            assert in_bounds and distinct[key] == 1
            assert root_in_a_oracle(W) is None
            assert local.residue_pattern == residue_pattern_oracle(W), W
            local_shapes[local] += 1
    assert accepted == 4616 and reducible == 20 and at_infinity == 7000
    assert at_v == {
        (2, "the quadratic v-adic factor above the zero of the Frobenius splits"): 688,
        (3, "v-adic zeros with distinct valuations"): 176,
    }
    assert local_shapes == {
        (1, ((1, 1), (2, 1))): 2200,
        (1, ((1, 1), (1, 1), (1, 1))): 1320,
        (1, ((1, 1), (1, 2))): 880,
        (2, ((1, 1), (1, 2))): 176,
        (3, ((1, 3),)): 40,
    }
