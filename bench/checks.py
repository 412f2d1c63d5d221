"""Checks of one report against what its generator expects.

They hold for every seed; the digest comparison in ``run.py`` adds
byte-for-byte checking for the default seed.
"""

from __future__ import annotations

import json


def _triple(order):
    return json.dumps([order["a"], order["b"], order["c"]])


def check_output(expect, rc, stdout):
    """The list of ways (rc, stdout) misses ``expect``; empty when it passes."""
    if rc != expect["exit"]:
        return [f"exit code {rc!r}, expected {expect['exit']}"]
    if rc != 0:
        return []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not a JSON report"]
    try:
        return _check_report(expect, report)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


def _check_report(expect, report):
    issues = []
    orders = report["orders"]
    labels = [o["label"].split("=") for o in orders]
    if not orders or "O_max" not in labels[0]:
        issues.append("O_max is not listed first")
    # A[pi] is always a ring containing pi; it is an endomorphism ring unless
    # maximality at v rules it out, which needs pv | a2.
    if not report["local"]["pv_divides_a2"] and not any("A[pi]" in tags for tags in labels):
        issues.append("A[pi] is not accepted")
    for key, got in (
        ("pv_divides_a2", report["local"]["pv_divides_a2"]),
        ("candidate_count", report["candidate_count"]),
        ("accepted", len(orders)),
    ):
        if key in expect and expect[key] != got:
            issues.append(f"{key} = {got!r}, expected {expect[key]!r}")
    accepted = {_triple(o) for o in orders}
    idents = {i["module"]: i for i in report["identifications"]}
    modules = expect.get("modules", {})
    if set(idents) != set(modules):
        issues.append(f"identified modules {sorted(idents)}, expected {sorted(modules)}")
    for name, in_class in modules.items():
        ident = idents.get(name)
        if ident is None:
            continue
        if ident["in_class"] != in_class:
            issues.append(f"module {name}: in_class = {ident['in_class']}, expected {in_class}")
        elif in_class and _triple(ident["order"]) not in accepted:
            issues.append(f"module {name}: End is not among the accepted orders")
        elif in_class and "survey" in ident:
            # End is the first accepted order, in report order, all of whose
            # generators act as endomorphisms
            full = [row["order"] for row in ident["survey"] if all(row["generators"])]
            if not full or _triple(full[0]) != _triple(ident["order"]):
                issues.append(f"module {name}: End disagrees with the membership survey")
    return issues


def multi_order_share(cases, outputs):
    """Share of generated module-ident classes with at least two accepted
    orders, over the classes whose report parsed."""
    counts = []
    for case, seen in zip(cases, outputs):
        if not case["id"].startswith("module-") or not seen or seen[0]["rc"] != 0:
            continue
        counts.append(len(json.loads(seen[0]["stdout"])["orders"]) >= 2)
    return sum(counts) / len(counts) if counts else 0.0
