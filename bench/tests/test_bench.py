"""Tests of the benchmark itself.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from algebra import PrimeExtension, weil_residual  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_configs(name):
    first = json.dumps(WORKLOADS[name](7), sort_keys=True)
    again = json.dumps(WORKLOADS[name](7), sort_keys=True)
    other = json.dumps(WORKLOADS[name](8), sort_keys=True)
    assert first == again
    assert first != other


def _module_cases(seed):
    for case in WORKLOADS["module-ident"](seed):
        if case["id"].startswith("module-"):
            yield case


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_modules_satisfy_their_class_relation(seed):
    for case in _module_cases(seed):
        cfg = case["config"]
        p, n = cfg["field"]["p"], cfg["m"]
        L = PrimeExtension(p, cfg["L"])
        weil = cfg["weil"]
        for module in cfg["modules"]:
            phi_t = [tuple(c) for c in module["phi_T"]]
            residual = weil_residual(
                L, phi_t, weil["a1"], weil["a2"], weil["mu"], cfg["pv"], n
            )
            in_class = case["expect"]["modules"][module["name"]]
            assert (residual == []) is in_class, (case["id"], module["name"])


def test_bench_relation_check_rejects_a_wrong_class():
    case = next(_module_cases(1))
    cfg = case["config"]
    L = PrimeExtension(cfg["field"]["p"], cfg["L"])
    weil = cfg["weil"]
    phi_t = [tuple(c) for c in cfg["modules"][0]["phi_T"]]
    mu = weil["mu"] % cfg["field"]["p"] + 1
    assert weil_residual(L, phi_t, weil["a1"], weil["a2"], mu, cfg["pv"], cfg["m"])


def test_rescale_takes_out_the_speed_of_the_machine():
    from speed import NOMINAL_S, rescale

    times = [1.0, 2.0, 3.0]
    assert rescale(times, [NOMINAL_S] * 3) == pytest.approx(times)
    # a machine twice as slow reads twice the time and twice the kernel time
    assert rescale([2 * t for t in times], [2 * NOMINAL_S] * 3) == pytest.approx(times)
    # one flickering kernel sample is outvoted by its neighbours
    assert rescale(times, [NOMINAL_S, 5 * NOMINAL_S, NOMINAL_S]) == pytest.approx(times)


def test_speed_kernel_is_fixed_work():
    from speed import Kernel

    kernel = Kernel()
    assert kernel.sample() > 0
    assert Kernel().expected == kernel.expected


@pytest.fixture
def work():
    path = run.ROOT / ".bench_work" / f"tests-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_traced_and_untraced_reports_have_identical_digests(work):
    # a few configs of each kind keep this fast; run.py checks every
    # config of every traced run the same way
    cases = WORKLOADS["module-ident"](run.DEFAULT_SEED)[:5]
    cases += WORKLOADS["class-batch"](run.DEFAULT_SEED)[:8]
    manifest = {"mode": "trace", "paths": run.write_cases(cases, work), "seconds": 0}
    _, result = run.spawn(manifest, work, "trace")
    assert result["mismatches"] == []
    # one distinct output per config: untraced, spans and counters agree
    assert all(len(seen) == 1 and seen[0]["count"] == 3 for seen in result["outputs"])
    digests = json.loads(run.DIGESTS.read_text())
    for case, seen in zip(cases, result["outputs"]):
        workload = "module-ident" if case["id"].startswith(("module-", "shipped-")) else "class-batch"
        assert seen[0]["digest"] == digests[workload][case["id"]], case["id"]
    attempted, failed, problems = run.judge(cases, result, None)
    assert attempted == 3 * len(cases) and failed == 0 and problems == []
    layers = result["layer_passes"][0][0]
    assert layers["skew.membership"]["calls"] > 0
    assert layers["cubic.validate"]["calls"] == len(cases)


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(run.ROOT / "src"))
    # the package exports a function named factor, so import modules by path
    cubic, factor, orders, _ = (
        importlib.import_module(f"drinfeld_orders.{name}")
        for name in ("cubic", "factor", "orders", "cli")
    )
    from tracer import Tracer

    original = factor.divisors
    assert orders.divisors is original and cubic.divisors is original
    tracer = Tracer()
    tracer.install("span")
    try:
        assert orders.divisors is not original
        assert cubic.divisors is orders.divisors
        assert factor.divisors is orders.divisors
    finally:
        tracer.uninstall("span")
    assert orders.divisors is original and cubic.divisors is original
    assert factor.divisors is original
    assert tracer.missing == []


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    units = run.units()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == {k: units[k] for k in run.END_TO_END}
    assert per_layer == {k: units[k] for k in list(run.PER_LAYER) + list(run.RUN_LEVEL)}
