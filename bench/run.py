"""Benchmark of the drinfeld-orders CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's configs are generated
from the seed (``workloads.py``), written under ``.bench_work/`` and run
through ``drinfeld_orders.cli.main`` by one fresh single-threaded child
process (``child.py``): a closed loop with one client, each config sent
after the previous one finished.  Every report is checked (``checks``)
and the last line printed is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from ``tracer.py``.  ``BENCHMARK.json`` at the root
lists both; ``README.md`` next to this file explains the workloads.

    python3 bench/run.py --write-digests

records the report digests of the default seed in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_output, multi_order_share  # noqa: E402
from speed import NOMINAL_S, rescale  # noqa: E402
from workloads import WORKLOADS, module_ident  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = BENCH / "digests.json"
SETUP_CHILDREN = 16  # setup_s is the median over this many fresh processes
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "configs_per_s": "1/s",
    "config_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _self_s(layer):
    return lambda t, c: t.get(layer, {}).get("self_s", 0.0), "s"


def _calls(layer):
    return lambda t, c: t.get(layer, {}).get("calls", 0), "count"


def _counter(key):
    return lambda t, c: c.get(key, 0), "count"


def _incl_s(module):
    return lambda t, c: c.get(f"{module}.incl_s", 0.0), "s"


def _ratio(num, den):
    def f(t, c):
        d = den(t, c)
        return num(t, c) / d if d else 0.0

    return f, "ratio"


def _us_per_call(layer):
    def f(t, c):
        row = t.get(layer, {})
        return row["self_s"] / row["calls"] * 1e6 if row.get("calls") else 0.0

    return f, "us"


# Per-layer metrics, each computed per complete traced pass.
PER_LAYER = {
    "orders.enumerate.s": _self_s("orders.enumerate"),
    "orders.candidates": _counter("orders.candidates"),
    "orders.closure.calls": _calls("orders.closure"),
    "orders.closure.s": _self_s("orders.closure"),
    "orders.closed": _counter("orders.closed"),
    "orders.accepted": _counter("orders.accepted"),
    "orders.accept_ratio": _ratio(
        lambda t, c: c.get("orders.accepted", 0), lambda t, c: c.get("orders.candidates", 0)
    ),
    "orders.assess.s": _self_s("orders.assess"),
    "cubic.validate.s": _self_s("cubic.validate"),
    "cubic.validate.rejected": _counter("cubic.validate.rejected"),
    "cubic.standard_form.s": _self_s("cubic.standard_form"),
    "cubic.maximal_order.s": _self_s("cubic.maximal_order"),
    "cubic.integral_basis.s": _self_s("cubic.integral_basis"),
    "factor.factor.calls": _calls("factor.factor"),
    "factor.factor.s": _self_s("factor.factor"),
    "factor.squarefree.s": _self_s("factor.squarefree"),
    "factor.divisors.s": _self_s("factor.divisors"),
    "factor.is_irreducible.s": _self_s("factor.is_irreducible"),
    "skew.verify.s": _self_s("skew.verify"),
    "skew.identify.s": _self_s("skew.identify"),
    "skew.survey.s": _self_s("skew.survey"),
    "skew.membership.calls": _calls("skew.membership"),
    "skew.membership.s": _self_s("skew.membership"),
    "skew.member_ratio": _ratio(
        lambda t, c: c.get("skew.members", 0),
        lambda t, c: t.get("skew.membership", {}).get("calls", 0),
    ),
    "skew.phi.calls": _calls("skew.phi"),
    "skew.mul.calls": _calls("skew.mul"),
    "skew.right_divmod.s": _self_s("skew.right_divmod"),
    "skew.twist.calls": _calls("skew.twist"),
    "poly.mul.calls": _calls("poly.mul"),
    "poly.mul.s": _self_s("poly.mul"),
    "poly.mul.us_per_call": _us_per_call("poly.mul"),
    "poly.divmod.calls": _calls("poly.divmod"),
    "poly.divmod.s": _self_s("poly.divmod"),
    "poly.divmod.us_per_call": _us_per_call("poly.divmod"),
    "poly.pow_mod.s": _self_s("poly.pow_mod"),
    "gf.ext.mul.calls": _calls("gf.ext.mul"),
    "gf.ext.mul.s": _self_s("gf.ext.mul"),
    "gf.ext.mul.us_per_call": _us_per_call("gf.ext.mul"),
    "gf.ext.pow.calls": _calls("gf.ext.pow"),
    "gf.ext.pow.s": _self_s("gf.ext.pow"),
    "gf.ext.pow.us_per_call": _us_per_call("gf.ext.pow"),
    "gf.prime.mul.calls": _counter("gf.prime.mul.calls"),
    "cli.load_config.s": _self_s("cli.load_config"),
    "cli.report.s": _self_s("cli.report"),
    **{f"{m}.incl_s": _incl_s(m) for m in ("orders", "cubic", "factor", "skew", "poly", "gf.ext", "cli")},
}
# Computed over the whole traced run rather than per pass.
RUN_LEVEL = {"trace_overhead": "ratio", "trace.wrapper_us_per_call": "us"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_digests and args.workload is None:
        ap.error("--workload is required")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without running git; None in a
    checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def spawn(manifest, work, tag):
    """Run one child to completion; returns (spawn clock, its result)."""
    mpath, rpath = work / f"{tag}.manifest.json", work / f"{tag}.result.json"
    mpath.write_text(json.dumps(manifest))
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(mpath), str(rpath)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child {tag} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"child {tag} failed ({proc.returncode}): {err.decode()[-2000:]}")
    return t_spawn, json.loads(rpath.read_text())


def write_cases(cases, work):
    paths = []
    for i, case in enumerate(cases):
        path = work / f"case_{i:03d}.json"
        path.write_text(json.dumps(case["config"]))
        paths.append(str(path))
    return paths


def judge(cases, result, expected_digests):
    """(attempted, failed, problems) over every execution in the run."""
    attempted = failed = 0
    problems = []
    for case, seen in zip(cases, result["outputs"]):
        for k, out in enumerate(seen):
            attempted += out["count"]
            issues = check_output(case["expect"], out["rc"], out["stdout"])
            if k > 0:
                issues.append("output differs from the first run of this config")
            if expected_digests is not None and out["digest"] != expected_digests.get(case["id"]):
                issues.append("digest differs from digests.json")
            if issues:
                failed += out["count"]
                problems.append({"case": case["id"], "issues": issues})
    for idx, why in result["mismatches"]:
        problems.append({"case": cases[idx]["id"], "issues": [why]})
    return attempted, failed, problems


def timings(n_cases, samples, complete, setups):
    """configs_per_s, config_s.p50 and setup_s of one run; ``samples`` are
    the child's [pass, config, seconds] rows, ``setups`` the seconds of
    each fresh child's setup."""
    pass_s = [0.0] * complete
    for (p, _, seconds) in samples:
        if p < complete:
            pass_s[p] += seconds
    seconds = [s for _, _, s in samples]
    out = {
        "configs_per_s": n_cases * complete / sum(pass_s),
        "config_s.p50": statistics.median(seconds),
        "setup_s": statistics.median(setups),
    }
    if len(seconds) >= 100:
        out["config_s.p90"] = statistics.quantiles(seconds, n=10)[-1]
    return out


def end_to_end(n_cases, result, setups, setup_kernel):
    """The metrics at the nominal speed of ``speed.py``, and the summary's
    extras with the same timings as measured."""
    rows = result["samples"]
    kernel = [k for *_, k in rows]
    scaled = [[p, i, s] for (p, i, _, _), s in zip(rows, rescale([r[2] for r in rows], kernel))]
    complete = len(result["passes"])
    # setups all run within a few seconds: one kernel median covers them
    setup_scale = NOMINAL_S / statistics.median(setup_kernel)
    metrics = timings(n_cases, scaled, complete, [s * setup_scale for s in setups])
    p90 = metrics.pop("config_s.p90", None)
    metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024
    extra = {
        "samples": len(rows),
        "pass_s": result["passes"],
        "kernel_s.p50": statistics.median(kernel),
        "setup_kernel_s.p50": statistics.median(setup_kernel),
        "as_measured": timings(n_cases, [r[:3] for r in rows], complete, setups),
    }
    if p90 is not None:
        extra["config_s.p90"] = p90
    return metrics, extra


def per_layer(result):
    per_pass = {name: [] for name in PER_LAYER}
    for table, counters in result["layer_passes"]:
        for name, (fn, _) in PER_LAYER.items():
            per_pass[name].append(fn(table, counters))
    metrics = {name: statistics.median(v) for name, v in per_pass.items()}
    metrics["trace_overhead"] = sum(result["traced_passes"]) / sum(result["passes"])
    metrics["trace.wrapper_us_per_call"] = result["wrapper_us"]
    return metrics


def units():
    out = dict(END_TO_END)
    out.update({name: unit for name, (_, unit) in PER_LAYER.items()})
    out.update(RUN_LEVEL)
    return out


def run(args):
    if not (ROOT / "src" / "drinfeld_orders" / "cli.py").is_file():
        print(f"no program under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    draws = []
    t0 = time.perf_counter()
    if args.workload == "module-ident":
        cases = module_ident(args.seed, draws)
    else:
        cases = WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - t0

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = write_cases(cases, work)
        setups, setup_kernel = [], []

        def timed_spawn(manifest, tag):
            t_spawn, res = spawn(manifest, work, tag)
            setups.append(res["t_ready"] - t_spawn)
            setup_kernel.extend(res["setup_kernel_s"])
            return res

        if not args.trace:
            for i in range(SETUP_CHILDREN - 1):
                timed_spawn({"mode": "setup", "paths": paths}, f"setup{i}")
        mode = "trace" if args.trace else "plain"
        result = timed_spawn({"mode": mode, "paths": paths, "seconds": args.seconds}, "main")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = None
    if args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text()).get(args.workload, {})
    attempted, failed, problems = judge(cases, result, digests)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "configs": len(cases),
        "generate_s": gen_s,
        "failed_frac": failed / attempted,
        **machine(),
    }
    if args.trace:
        metrics = per_layer(result)
        summary["missing_functions"] = result["missing"]
        summary["traced_passes"] = len(result["traced_passes"])
    else:
        metrics, extra = end_to_end(len(cases), result, setups, setup_kernel)
        summary.update(extra)
    if args.workload == "module-ident":
        summary["draws"] = draws
        summary["draws_without_unique_class"] = sum(not d["solved"] for d in draws)
        summary["draws_redrawn"] = sum(not d.get("kept") for d in draws)
        summary["share_with_2_orders"] = multi_order_share(cases, result["outputs"])
    summary["problems"] = problems[:20]

    record_dir = ROOT / ".bench_work" / "runs"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"summary": summary, "metrics": metrics}, indent=1))

    unit = units()
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def write_digests():
    """Run every workload's default-seed configs once and record the
    digest of each report that passes its checks."""
    out = {}
    for name, make in sorted(WORKLOADS.items()):
        cases = make(DEFAULT_SEED)
        work = ROOT / ".bench_work" / f"digests-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            paths = write_cases(cases, work)
            _, result = spawn({"mode": "plain", "paths": paths, "seconds": 0}, work, "main")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _, failed, problems = judge(cases, result, None)
        if failed or problems:
            raise SystemExit(f"{name}: reports fail their checks: {problems}")
        out[name] = {c["id"]: seen[0]["digest"] for c, seen in zip(cases, result["outputs"])}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    a = parse_args(sys.argv[1:])
    sys.exit(write_digests() if a.write_digests else run(a))
