"""Command-line entry point.

Two commands over a JSON problem description:

    analyze CONFIG [--format json|text] [--candidate-bound N]
    check-module CONFIG --name NAME

Both take one path, ``run``: load -> bound -> analysis -> identification
-> render.  ``load_config`` is the only parser: it checks the size limits,
builds F_q and, when the config lists modules, the one ring L{tau} that
every module then uses, tests L's modulus on that ring's Frobenius (Rabin's
criterion, ``SkewRing.is_field``) and parses every phi_T in L, so a config
error exits 2 before any class arithmetic.
``check-module`` is ``analyze`` restricted to the named module; it prints
that module's ``analyze`` line without the name prefix.

``build_report`` encodes each polynomial once, as its ascending
coefficient tuple ``name`` and its text ``name_str`` (the input and
depressed coefficients a1, a2, b1, b2 as tuples only), and each accepted
order once: the orders list, every identified ring and every survey row
share that entry.  ``_json_text`` writes it in one pass, byte for byte
as ``json.dumps(report, sort_keys=True, indent=2)`` would.

``main`` turns an error into an exit code and a stderr prefix through one
table, ``EXITS``: 0 success, 2 config error, 3 validation of the
isogeny-class data failed, 4 internal inconsistency, 5 candidate bound
exceeded.

Config format: polynomials are ascending coefficient arrays; coefficients
are integers (reduced into F_p) or, for extension fields, arrays of
base-field coefficients.  See the README for the full schema.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

from .cubic import WeilCubic
from .errors import (
    CandidateBoundExceededError,
    ConfigError,
    DomainError,
    DrinfeldOrdersError,
    InternalInconsistencyError,
    WeilValidationError,
)
from .factor import make_extension_field
from .gf import ExtensionField, FiniteField, PrimeField, elem_str
from .orders import (
    DEFAULT_CANDIDATE_BOUND,
    ClassAnalysis,
    analyze_weil_class,
    frobenius_order_hnf,
)
from .poly import Poly
from .skew import (
    DrinfeldModule,
    SkewRing,
    identify_endo_ring,
    survey_candidates,
    verify_weil_action,
)

ENV_CANDIDATE_BOUND = "DRINFELD_ORDERS_CANDIDATE_BOUND"

VERDICT_TEXT = "necessary conditions passed"

# Size limits, checked before any arithmetic (exit 2 beyond them).  Every
# config in configs/, in the tests and in the benchmark lies inside them.
MAX_FIELD_DEGREE = 16  # e = [F_q : F_p]
MAX_L_DEGREE = 24  # n = m * deg pv = [L : F_q]
MAX_POLY_DEGREE = 2 * MAX_L_DEGREE  # pv, a1, a2; L has degree n

# (error type, exit code, stderr prefix); the first row the error is an
# instance of decides
EXITS = (
    (ConfigError, 2, "config"),
    (WeilValidationError, 3, "weil-validation"),
    (CandidateBoundExceededError, 5, "enumeration"),
    (InternalInconsistencyError, 4, "internal-inconsistency"),
    (DrinfeldOrdersError, 4, "error"),
)


class ProblemConfig(NamedTuple):
    weil: WeilCubic  # M(x) over F_q[T], with pv and m
    ring: Optional[SkewRing]  # L{tau}, L = F_q[z]/(f) a field; None without modules
    modules: list  # (name, phi_T coefficients in L), in config order
    candidate_bound: Optional[int]  # options.candidate_bound, None when unset
    output_format: Optional[str]  # options.output_format, None when unset


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(obj) -> bool:
    """An integer that is not a boolean (JSON true/false load as bool)."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _positive_int(value, where: str) -> Optional[int]:
    """A candidate bound from one source: None when the source is unset,
    else the value (a string is read as an integer) if it is positive."""
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = int(value)
    _require(
        value is None or (_is_int(value) and value >= 1),
        f"{where} must be a positive integer",
    )
    return value


def _parse_elem(F: FiniteField, obj, where: str):
    if isinstance(obj, bool):
        raise ConfigError(f"{where}: booleans are not field elements")
    if isinstance(obj, int):
        return F.from_int(obj)
    if isinstance(obj, list):
        _require(
            isinstance(F, ExtensionField),
            f"{where}: expected an integer entry for a prime-field element",
        )
        _require(len(obj) <= F.e, f"{where}: element array longer than the degree")
        coeffs = [_parse_elem(F.base, o, where) for o in obj]
        coeffs += [F.base.zero] * (F.e - len(coeffs))
        return tuple(coeffs)
    raise ConfigError(f"{where}: expected an integer or an array")


def _parse_poly(F: FiniteField, obj, where: str) -> Poly:
    _require(isinstance(obj, list), f"{where}: expected a coefficient array")
    _require(
        len(obj) <= MAX_POLY_DEGREE + 1,
        f"{where}: degree above the limit {MAX_POLY_DEGREE}",
    )
    return Poly(F, (_parse_elem(F, o, where) for o in obj))


def load_config(path: str) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    # ValueError covers JSONDecodeError, a file that is not UTF-8 and an
    # integer literal over the digit limit; deep nesting raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    _require(isinstance(raw, dict), "top level must be an object")

    fld = raw.get("field")
    _require(isinstance(fld, dict), "'field' object is required")
    p = fld.get("p")
    _require(_is_int(p) and p >= 2, "'field.p' must be a prime integer")
    e = fld.get("e", 1)
    _require(_is_int(e) and e >= 1, "'field.e' must be a positive integer")
    _require(e <= MAX_FIELD_DEGREE, f"'field.e' is above the limit {MAX_FIELD_DEGREE}")
    try:
        base = PrimeField(p)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    if e == 1:
        F: FiniteField = base
    else:
        mod = fld.get("modulus")
        _require(
            isinstance(mod, list) and len(mod) == e + 1,
            "'field.modulus' must list e+1 coefficients when e > 1",
        )
        try:
            F = make_extension_field(base, _parse_poly(base, mod, "field.modulus"))
        except DomainError as exc:
            raise ConfigError(f"field.modulus: {exc}") from exc

    pv = _parse_poly(F, raw.get("pv"), "pv")
    m = raw.get("m")
    _require(_is_int(m) and m >= 1, "'m' must be a positive integer")
    _require(
        m * max(pv.degree, 1) <= MAX_L_DEGREE,
        f"m * deg(pv) is above the limit {MAX_L_DEGREE}",
    )

    weil = raw.get("weil")
    _require(isinstance(weil, dict), "'weil' object is required")
    a1 = _parse_poly(F, weil.get("a1"), "weil.a1")
    a2 = _parse_poly(F, weil.get("a2"), "weil.a2")
    _require("mu" in weil, "'weil.mu' is required")
    mu = _parse_elem(F, weil["mu"], "weil.mu")

    l_modulus = None
    if raw.get("L") is not None:
        l_modulus = _parse_poly(F, raw["L"], "L")

    options = raw.get("options", {})
    _require(isinstance(options, dict), "'options' must be an object")
    bound = _positive_int(options.get("candidate_bound"), "'options.candidate_bound'")
    fmt = options.get("output_format")
    _require(
        fmt in (None, "json", "text"),
        "'options.output_format' must be 'json' or 'text'",
    )

    # L is tested only when modules need it, after every cheaper check, on
    # the Frobenius of the one ring L{tau} that the modules then use
    ring, modules = None, []
    if raw.get("modules") is not None:
        _require(isinstance(raw["modules"], list), "'modules' must be an array")
        _require(l_modulus is not None, "'modules' requires 'L'")
        _require(
            l_modulus.degree == m * pv.degree,
            "the degree of L must equal m * deg(pv)",
        )
        try:
            ring = SkewRing(ExtensionField(F, l_modulus.coeffs))
        except DomainError as exc:
            raise ConfigError(f"L: {exc}") from exc
        _require(ring.is_field(), "L: extension modulus is reducible")
        seen = set()
        for entry in raw["modules"]:
            _require(isinstance(entry, dict), "module entries must be objects")
            name = entry.get("name")
            _require(isinstance(name, str) and name, "module entries need a 'name'")
            _require(name not in seen, f"duplicate module name '{name}'")
            seen.add(name)
            phi_t = _parse_poly(ring.L, entry.get("phi_T"), f"module '{name}' phi_T")
            modules.append((name, phi_t.coeffs))

    return ProblemConfig(
        weil=WeilCubic(field=F, a1=a1, a2=a2, mu=mu, pv=pv, m=m),
        ring=ring,
        modules=modules,
        candidate_bound=bound,
        output_format=fmt,
    )


def resolve_candidate_bound(cfg: ProblemConfig, flag: Optional[int]) -> int:
    """The first bound set among the flag, the environment variable and the
    config's options (checked when loaded), each checked to be positive by
    ``_positive_int``; else the default."""
    return (
        _positive_int(flag, "--candidate-bound")
        or _positive_int(os.environ.get(ENV_CANDIDATE_BOUND), ENV_CANDIDATE_BOUND)
        or cfg.candidate_bound
        or DEFAULT_CANDIDATE_BOUND
    )


def identify_module(ring: SkewRing, name: str, phi_t, analysis: ClassAnalysis) -> dict:
    """Build one module from its phi_T coefficients (parsed by
    ``load_config``), check it lies in the class, survey the accepted
    orders and read End(phi) off the survey."""
    try:
        module = DrinfeldModule(ring, ring.poly(phi_t))
    except DomainError:  # phi_T is not of tau-degree 3
        return {"module": name, "in_class": False, "rank_mismatch": True}
    if not verify_weil_action(module, analysis.weil):
        return {"module": name, "in_class": False}
    survey = survey_candidates(
        module,
        [rep.order for rep in analysis.orders],
        analysis.sf,
        analysis.mo,
    )
    return {
        "module": name,
        "in_class": True,
        "order": identify_endo_ring(survey),
        "survey": survey,
    }


# -- report assembly ---------------------------------------------------------


def _polys_json(**polys: Poly) -> dict:
    """Each named polynomial as ``name``, its ascending coefficient tuple,
    and ``name_str``, its text."""
    out = {}
    for name, f in polys.items():
        out[name] = f.coeffs
        out[f"{name}_str"] = f.to_str()
    return out


def build_report(analysis: ClassAnalysis, identifications) -> dict:
    W, sf, mo = analysis.weil, analysis.sf, analysis.mo
    # analyze_weil_class accepts O_max first; O_max also carries A[pi]'s
    # label when the two are equal
    maximal = analysis.orders[0].order
    frob = frobenius_order_hnf(sf, mo)
    labels = {maximal: "O_max=A[pi]"} if frob == maximal else {maximal: "O_max", frob: "A[pi]"}
    # one entry per accepted order, shared by the orders list, the
    # identified rings and the survey rows
    entries = {}
    for rep in analysis.orders:
        o = rep.order
        entries[o] = {**_polys_json(a=o.a, b=o.b, c=o.c), "label": labels.get(o, "")}
    orders = [
        {
            **entries[rep.order],
            # the enumeration builds only triples that contain pi and are
            # maximal above v; closure accepted them
            "is_closed": True,
            "contains_pi": True,
            "v_maximal": True,
            **_polys_json(conductor_norm=rep.conductor_norm, disc=rep.disc),
        }
        for rep in analysis.orders
    ]
    idents = []
    for ident in identifications:
        entry = {"module": ident["module"], "in_class": ident["in_class"]}
        if ident["in_class"]:
            entry["order"] = entries[ident["order"]]
            entry["survey"] = [
                {"order": entries[row.order], "generators": row.generator_verdicts}
                for row in ident["survey"]
            ]
        idents.append(entry)
    return {
        "inputs": {
            "p": W.field.p,
            "e": W.field.degree,
            "q": W.field.q,
            **_polys_json(pv=W.pv),
            "m": W.m,
            "a1": W.a1.coeffs,
            "a2": W.a2.coeffs,
            "mu": W.mu,
        },
        "verdict": VERDICT_TEXT,
        "local": {
            "height": analysis.local.height,
            "etale_degree": analysis.local.etale_degree,
            "supersingular": analysis.local.supersingular,
            "pv_divides_a2": analysis.local.pv_divides_a2,
            "residue_pattern": analysis.local.residue_pattern,
        },
        "standard_form": {
            "b1": sf.b1.coeffs,
            "b2": sf.b2.coeffs,
            **_polys_json(g=sf.g, c1=sf.c1, c2=sf.c2),
        },
        **_polys_json(
            disc_m0=sf.disc_m0, delta=mo.delta, index=mo.index,
            alpha2=mo.alpha2, beta2=mo.beta2,
        ),
        "candidate_count": analysis.candidate_count,
        "orders": orders,
        "identifications": idents,
    }


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the types a report
    holds, byte for byte: dicts with string keys, lists, tuples, strings,
    ints, booleans and None.  Any other value, or a key that is not a
    string, raises TypeError.  Before Python 3.13, ``indent`` turns off
    json's C encoder; on 3.11 this one pass is about 1.7 times as fast as
    the pure-Python one."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if kind is list or kind is tuple:
        items = [int.__repr__(x) if type(x) is int else _json_text(x, inner) for x in obj]
        brackets = "[]"
    elif kind is dict:
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
            for key in sorted(obj)
        ]
        brackets = "{}"
    elif obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    else:
        raise TypeError(f"a report holds no value of type {kind.__name__}")
    if not items:
        return brackets
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def _ident_line(entry: dict) -> str:
    """The verdict of one report identification entry, as ``analyze`` prints
    it after the module name."""
    if not entry["in_class"]:
        return "in class: no"
    order = entry["order"]
    brief = f"{order['label']}({order['a_str']},{order['b_str']},{order['c_str']})"
    return f"in class: yes; End = {brief}"


def render_text(report: dict, analysis: ClassAnalysis) -> str:
    inp, loc, sf, W = report["inputs"], report["local"], report["standard_form"], analysis.weil
    pattern = " * ".join(
        f"(deg {d})^{m}" if m > 1 else f"(deg {d})" for d, m in loc["residue_pattern"]
    )
    lines = [
        "== isogeny class ==",
        f"q = {inp['q']}, pv = {inp['pv_str']}, m = {inp['m']}",
        f"M(x) = x^3 + ({W.a1.to_str()})*x^2 + ({W.a2.to_str()})*x + "
        f"({elem_str(W.mu)})*({inp['pv_str']})^{inp['m']}",
        f"verdict: {report['verdict']}",
        f"height h = {loc['height']} (etale degree {loc['etale_degree']}), "
        f"supersingular: {'yes' if loc['supersingular'] else 'no'}",
        f"M mod pv factor degrees: {pattern}",
        "",
        "== maximal order ==",
        f"standard form: c1 = {sf['c1_str']}, c2 = {sf['c2_str']}, g = {sf['g_str']}",
        f"disc(M0) = {report['disc_m0_str']}",
        f"Delta    = {report['delta_str']}",
        f"index I  = {report['index_str']}",
        f"alpha2 = {report['alpha2_str']}, beta2 = {report['beta2_str']}",
        "",
        f"== endomorphism rings ({len(report['orders'])}) ==",
    ]
    for i, entry in enumerate(report["orders"], 1):
        tag = f"  [{entry['label']}]" if entry["label"] else ""
        lines.append(
            f"#{i} (a={entry['a_str']}, b={entry['b_str']}, c={entry['c_str']})"
            f"{tag}  conductor norm = {entry['conductor_norm_str']}, "
            f"disc = {entry['disc_str']}"
        )
    if report["identifications"]:
        lines += ["", "== module identifications =="]
        for ident in report["identifications"]:
            lines.append(f"{ident['module']}: {_ident_line(ident)}")
    return "\n".join(lines) + "\n"


def run(args) -> str:
    """The stdout of one command."""
    cfg = load_config(args.config)
    modules = cfg.modules
    if args.name is not None:
        modules = [(name, phi_t) for name, phi_t in modules if name == args.name]
        _require(modules, f"module '{args.name}' not found in config")
    bound = resolve_candidate_bound(cfg, args.candidate_bound)
    analysis = analyze_weil_class(cfg.weil, candidate_bound=bound)
    identifications = [
        identify_module(cfg.ring, name, phi_t, analysis) for name, phi_t in modules
    ]
    report = build_report(analysis, identifications)
    if args.name is not None:
        mismatch = " (rank mismatch)" if identifications[0].get("rank_mismatch") else ""
        return _ident_line(report["identifications"][0]) + mismatch + "\n"
    if (args.format or cfg.output_format) == "json":
        return _json_text(report) + "\n"
    return render_text(report, analysis)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drinfeld-orders",
        description=(
            "Decide which orders of the cubic Frobenius field occur as "
            "endomorphism rings in an isogeny class of rank-3 Drinfeld "
            "modules, and identify the endomorphism ring of given modules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_analyze = sub.add_parser("analyze", help="run the full pipeline on a config")
    p_analyze.add_argument("config", help="path to a JSON problem description")
    p_analyze.add_argument("--format", choices=("json", "text"), default=None)
    p_analyze.add_argument("--candidate-bound", type=int, default=None)
    p_analyze.set_defaults(name=None)
    p_check = sub.add_parser(
        "check-module", help="verify one module and identify its endomorphism ring"
    )
    p_check.add_argument("config", help="path to a JSON problem description")
    p_check.add_argument("--name", required=True, help="module name from the config")
    p_check.set_defaults(format=None, candidate_bound=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sys.stdout.write(run(args))
    except BrokenPipeError:
        # reader went away (e.g. piped into head); suppress the shutdown noise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    except DrinfeldOrdersError as exc:
        code, prefix = next((c, p) for kind, c, p in EXITS if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
