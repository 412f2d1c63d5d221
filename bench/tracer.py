"""Span tracer that wraps the program's public functions from outside.

Each traced function is replaced, at every name it is bound to in any
``drinfeld_orders`` module, by a wrapper that records a span: its layer
name, start, end and the span that was open when it was called.  Methods
are wrapped on their class.  Spans stay in memory as flat arrays until
``reduce`` turns them into per-layer calls, total and self seconds (self
= a span's duration minus the spans directly below it), and into each
module's inclusive seconds: the time inside its outermost spans, those not
called from the same module, including everything they call.  A function the
program no longer has is skipped and listed in ``missing``.

``PrimeField.mul`` runs a few hundred nanoseconds per call, less than a
span costs, so it is only counted, and in a run of its own (``install(
"count")``): counting it inside a traced run would add its wrapper's cost
to the self time of every span above it, ``gf.ext.mul`` first.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (layer name, module, attribute path); methods as Class.method
SPANS = [
    ("cli.load_config", "cli", "load_config"),
    ("cli.report", "cli", "build_report"),
    ("cli.report", "cli", "render_text"),
    ("cubic.validate", "cubic", "validate_weil_necessary"),
    ("cubic.standard_form", "cubic", "standard_form"),
    ("cubic.maximal_order", "cubic", "maximal_order_data"),
    ("cubic.integral_basis", "cubic", "integral_basis"),
    ("factor.factor", "factor", "factor"),
    ("factor.squarefree", "factor", "squarefree_decompose"),
    ("factor.divisors", "factor", "divisors"),
    ("factor.is_irreducible", "factor", "is_irreducible"),
    ("orders.assess", "orders", "assess_order"),
    ("orders.enumerate", "orders", "enumerate_candidates"),
    ("orders.closure", "orders", "closure_check"),
    ("skew.verify", "skew", "verify_weil_action"),
    ("skew.identify", "skew", "identify_endo_ring"),
    ("skew.survey", "skew", "survey_candidates"),
    ("skew.membership", "skew", "element_membership"),
    ("skew.phi", "skew", "DrinfeldModule.phi"),
    ("skew.mul", "skew", "SkewPoly.__mul__"),
    ("skew.right_divmod", "skew", "SkewPoly.right_divmod"),
    ("skew.twist", "skew", "SkewRing.twist"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.divmod", "poly", "Poly.__divmod__"),
    ("poly.pow_mod", "poly", "Poly.pow_mod"),
    ("gf.ext.mul", "gf", "ExtensionField.mul"),
    ("gf.ext.pow", "gf", "ExtensionField.pow"),
]
COUNTED = [("gf.prime.mul", "gf", "PrimeField.mul")]


def module_of(layer):
    """The module a layer belongs to; gf.ext is kept apart from gf.prime."""
    return "gf.ext" if layer.startswith("gf.ext") else layer.split(".")[0]


def _sized(result):
    return len(result) if isinstance(result, (list, tuple)) else 0


# Counters read off a span's result or its exception.
OUTCOMES = {
    "orders.enumerate": lambda r, c: c.update({"orders.candidates": _sized(r)}),
    "orders.closure": lambda r, c: c.update({"orders.closed": int(r is True)}),
    "orders.assess": lambda r, c: c.update({"orders.accepted": int(getattr(r, "is_endo_ring", 0))}),
    "skew.membership": lambda r, c: c.update({"skew.members": int(r is not None)}),
}
ON_ERROR = {"cubic.validate": "cubic.validate.rejected"}


class Tracer:
    """Wraps the functions of ``package``; with None it wraps nothing and
    only lends its span wrapper."""

    def __init__(self, package="drinfeld_orders"):
        self.layers = []
        self._ids = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.missing = []
        # kind -> [(owner, name, original, wrapper, owned)]
        self._patches = {"span": [], "count": []}
        if package is None:
            return
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for layer, module, path in SPANS:
            self._plan(modules, package, layer, module, path, "span")
        for layer, module, path in COUNTED:
            self._plan(modules, package, layer, module, path, "count")

    def _layer_id(self, layer):
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def _plan(self, modules, package, layer, module, path, kind):
        home = sys.modules.get(f"{package}.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        make = self._span_wrapper if kind == "span" else self._count_wrapper
        wrapper = make(layer, original)
        patches = self._patches[kind]
        if owner_name:
            # a method: one binding, on its class
            patches.append((owner, attr, original, wrapper, attr in vars(owner)))
            return
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, name, original, wrapper, True))

    def install(self, kind):
        """Wrap the "span" functions or the "count" ones."""
        for owner, name, _, wrapper, _ in self._patches[kind]:
            setattr(owner, name, wrapper)

    def uninstall(self, kind):
        for owner, name, original, _, owned in self._patches[kind]:
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _span_wrapper(self, layer, fn):
        lid = self._layer_id(layer)
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        outcome = OUTCOMES.get(layer)
        on_error = ON_ERROR.get(layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                if on_error:
                    counts[on_error] += 1
                raise
            ends[i] = clock()
            stack.pop()
            if outcome is not None:
                outcome(result, counts)
            return result

        return wrapper

    def _count_wrapper(self, layer, fn):
        counts = self.counts
        key = layer + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reduce(self):
        """Per-layer {"calls", "total_s", "self_s"} and the counters, for
        every span recorded since the last call; the spans are dropped.
        The counters include "<module>.incl_s" per module."""
        k = len(self.layers)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        module = [module_of(name) for name in self.layers]
        incl = dict.fromkeys(module, 0.0)
        layers, parents = self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            lid = layers[i]
            calls[lid] += 1
            total[lid] += d
            own[lid] += d
            p = parents[i]
            if p >= 0:
                own[layers[p]] -= d
            if p < 0 or module[layers[p]] != module[lid]:
                incl[module[lid]] += d
        table = {
            name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
            for i, name in enumerate(self.layers)
        }
        counters = dict(self.counts)
        counters.update({f"{m}.incl_s": v for m, v in incl.items()})
        for arr in (layers, parents, starts, ends):
            del arr[:]
        self.counts.clear()
        return table, counters


def wrapper_cost_us(calls: int = 200_000) -> float:
    """The span wrapper's own cost per call, in microseconds: a traced call
    of a trivial function minus an untraced one, medians of five rounds."""

    def trivial(a, b):
        return a

    tracer = Tracer(package=None)
    wrapped = tracer._span_wrapper("calibration", trivial)

    def per_call(fn):
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(1, 2)
            rounds.append((time.perf_counter() - t0) / calls)
            tracer.reduce()
        return sorted(rounds)[2]

    return (per_call(wrapped) - per_call(trivial)) * 1e6
