from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import int_poly, paper_weil, random_instance_pool  # noqa: E402

from drinfeld_orders import PrimeField, analyze_weil_class, make_extension_field  # noqa: E402
from drinfeld_orders.cli import ENV_CANDIDATE_BOUND  # noqa: E402
from drinfeld_orders.skew import DrinfeldModule, SkewRing  # noqa: E402


@pytest.fixture(autouse=True)
def _no_candidate_bound_from_environment(monkeypatch):
    """Every test, and every CLI subprocess a test starts, sees the candidate
    bound only where the test sets it."""
    monkeypatch.delenv(ENV_CANDIDATE_BOUND, raising=False)


@pytest.fixture(scope="session")
def f5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def example_weil(f5):
    return paper_weil(f5)


@pytest.fixture(scope="session")
def example_analysis(example_weil):
    return analyze_weil_class(example_weil)


@pytest.fixture(scope="session")
def f125(f5):
    return make_extension_field(f5, int_poly(f5, [3, 3, 0, 1]))


@pytest.fixture(scope="session")
def skew_ring(f125):
    return SkewRing(f125)


@pytest.fixture(scope="session")
def module_phi(skew_ring):
    """-alpha^2 tau^3 + 2 alpha^2 tau^2 + alpha^2 tau; endomorphism ring is
    the maximal order."""
    L = skew_ring.L
    alpha = L.generator()
    asq = L.mul(alpha, alpha)
    return DrinfeldModule(
        skew_ring,
        skew_ring.poly([L.zero, asq, L.mul(L.from_int(2), asq), L.neg(asq)]),
    )


@pytest.fixture(scope="session")
def module_psi_literal(skew_ring):
    """tau^3 + tau^2 + tau: lies in a different isogeny class (its Frobenius
    has a different minimal polynomial); kept for the documented-defect
    tests."""
    L = skew_ring.L
    return DrinfeldModule(skew_ring, skew_ring.poly([L.zero, L.one, L.one, L.one]))


@pytest.fixture(scope="session")
def module_psi_star(skew_ring):
    """-alpha^2 tau^3 + 2 tau^2 + alpha^2 tau: lies in the example class and
    its endomorphism ring is A[pi]."""
    L = skew_ring.L
    alpha = L.generator()
    asq = L.mul(alpha, alpha)
    return DrinfeldModule(
        skew_ring, skew_ring.poly([L.zero, asq, L.from_int(2), L.neg(asq)])
    )


@pytest.fixture(scope="session")
def instance_pool():
    return random_instance_pool(count=25, seed=20240)
