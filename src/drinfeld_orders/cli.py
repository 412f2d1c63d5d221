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

``build_report`` writes the JSON report in one pass over the analysis and
identification records, byte for byte what ``json.dumps(report,
sort_keys=True, indent=2)`` gives for the report object; ``render_text``
and ``check-module``'s line read the same records.

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
from typing import NamedTuple, Optional, Sequence

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
from .orders import DEFAULT_CANDIDATE_BOUND, ClassAnalysis, analyze_weil_class
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
    else the value if it is a positive integer."""
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
        # a top coefficient that is 0 mod p leaves a field of smaller degree
        _require(
            F.e == e, f"field.modulus: extension modulus has degree {F.e} mod {p}, not e = {e}"
        )

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
    ``_positive_int``; else the default.  Only the environment is text, so
    only its value is read as an integer first."""
    env = os.environ.get(ENV_CANDIDATE_BOUND)
    with contextlib.suppress(TypeError, ValueError):
        env = int(env)
    return (
        _positive_int(flag, "--candidate-bound")
        or _positive_int(env, ENV_CANDIDATE_BOUND)
        or cfg.candidate_bound
        or DEFAULT_CANDIDATE_BOUND
    )


class Identification(NamedTuple):
    """One module's verdict; in the class, End(phi) as a position in the
    class's accepted orders and the survey it was read off, both aligned
    with ``ClassAnalysis.orders``.  The module is in the class exactly when
    ``end`` is set."""

    module: str
    end: Optional[int] = None  # End(phi) is analysis.orders[end]
    survey: Sequence = ()  # a generator verdict pair per accepted order
    rank_mismatch: bool = False  # phi_T is not of tau-degree 3


def identify_module(ring: SkewRing, name: str, phi_t, analysis: ClassAnalysis) -> Identification:
    """Build one module from its phi_T coefficients (parsed by
    ``load_config``), check it lies in the class, survey the accepted
    orders and read End(phi) off the survey."""
    try:
        module = DrinfeldModule(ring, ring.poly(phi_t))
    except DomainError:  # phi_T is not of tau-degree 3
        return Identification(name, rank_mismatch=True)
    if not verify_weil_action(module, analysis.weil):
        return Identification(name)
    orders = [rep.order for rep in analysis.orders]
    survey = survey_candidates(module, orders, analysis.sf, analysis.mo)
    return Identification(name, identify_endo_ring(survey), survey)


# -- reports -----------------------------------------------------------------

JSON_BOOL = ("false", "true")  # indexed by a bool


def _labels(analysis: ClassAnalysis) -> list:
    """The label of each accepted order.  O_max is accepted first.  A
    sandwich triple has c | g and a | g^2*I, so A[pi] = (g^2*I, 0, g) is the
    one with deg a + deg c = 3 deg g + deg I, and it sorts last."""
    labels = ["O_max"] + [""] * (len(analysis.orders) - 1)
    last = analysis.orders[-1].order
    if last.a.degree + last.c.degree == 3 * analysis.sf.g.degree + analysis.mo.index.degree:
        labels[-1] = "A[pi]" if len(labels) > 1 else "O_max=A[pi]"
    return labels


def _block(brackets: str, items: list, indent: str) -> str:
    """A JSON array ("[]") or object ("{}") of written items or members, as
    ``json.dumps(..., indent=2)`` lays it out at ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + (",\n" + inner).join(items) + f"\n{indent}{brackets[1]}"


def _array(x, indent: str) -> str:
    """An int, or a tuple of ints or of int tuples, written at ``indent``:
    a field element, the residue pattern, or coefficients over F_p or over
    its extension F_q (elements as int tuples, ``gf``'s two-level towers)."""
    if type(x) is int:
        return str(x)
    if not x:
        return "[]"
    inner = indent + "  "
    if type(x[0]) is int:
        items = map(str, x)
    else:
        deeper = inner + "  "
        head, sep, tail = "[\n" + deeper, ",\n" + deeper, "\n" + inner + "]"
        items = [head + sep.join(map(str, c)) + tail for c in x]
    return f"[\n{inner}" + (",\n" + inner).join(items) + f"\n{indent}]"


def _polys(indent: str, **polys: Poly) -> str:
    """The members ``name`` (ascending coefficients) and ``name_str`` (text)
    of each named polynomial, in an object whose members sit at ``indent``."""
    return f",\n{indent}".join(
        f'"{name}": {_array(f.coeffs, indent)},\n'
        f'{indent}"{name}_str": {encode_basestring_ascii(f.to_str())}'
        for name, f in polys.items()
    )


def build_report(analysis: ClassAnalysis, identifications) -> str:
    """The JSON report in one pass over the records: byte for byte what
    ``json.dumps(report, sort_keys=True, indent=2)`` writes for the report
    object the README describes.  This is the one place its schema is
    written; each object lists its members in sorted key order."""
    W, local, sf, mo = analysis.weil, analysis.local, analysis.sf, analysis.mo
    I1, I2, I3, I4, I5 = "  ", "    ", "      ", "        ", "          "
    # each accepted order's entry is written once, at depth 0, and re-indented
    # where it repeats: its row of the orders list, identified rings, survey rows
    entries, orders = [], []
    for rep, label in zip(analysis.orders, _labels(analysis)):
        o, label = rep.order, encode_basestring_ascii(label)
        abc = _polys(I1, a=o.a, b=o.b, c=o.c)
        entries.append(f'{{\n  {abc},\n  "label": {label}\n}}')
        # the enumeration builds only triples that contain pi and are
        # maximal above v; closure accepted them
        orders.append(_block("{}", [
            abc.replace("\n", "\n" + I2),
            _polys(I3, conductor_norm=rep.conductor_norm), '"contains_pi": true',
            _polys(I3, disc=rep.disc), '"is_closed": true',
            f'"label": {label}', '"v_maximal": true',
        ], I2))
    idents = []
    for ident in identifications:
        members = [
            f'"in_class": {JSON_BOOL[ident.end is not None]}',
            f'"module": {encode_basestring_ascii(ident.module)}',
        ]
        if ident.end is not None:
            rows = [
                _block("{}", [
                    '"generators": ' + _block("[]", [JSON_BOOL[v] for v in verdicts], I5),
                    '"order": ' + entry.replace("\n", "\n" + I5),
                ], I4)
                for verdicts, entry in zip(ident.survey, entries)
            ]
            members.append('"order": ' + entries[ident.end].replace("\n", "\n" + I3))
            members.append('"survey": ' + _block("[]", rows, I3))
        idents.append(_block("{}", members, I2))
    return _block("{}", [
        _polys(I1, alpha2=mo.alpha2, beta2=mo.beta2),
        f'"candidate_count": {analysis.candidate_count}',
        _polys(I1, delta=mo.delta, disc_m0=sf.disc_m0),
        '"identifications": ' + _block("[]", idents, I1),
        _polys(I1, index=mo.index),
        '"inputs": ' + _block("{}", [
            f'"a1": {_array(W.a1.coeffs, I2)}', f'"a2": {_array(W.a2.coeffs, I2)}',
            f'"e": {W.field.degree}', f'"m": {W.m}', f'"mu": {_array(W.mu, I2)}',
            f'"p": {W.field.p}', _polys(I2, pv=W.pv), f'"q": {W.field.q}',
        ], I1),
        '"local": ' + _block("{}", [
            f'"etale_degree": {local.etale_degree}', f'"height": {local.height}',
            f'"pv_divides_a2": {JSON_BOOL[local.pv_divides_a2]}',
            f'"residue_pattern": {_array(local.residue_pattern, I2)}',
            f'"supersingular": {JSON_BOOL[local.supersingular]}',
        ], I1),
        '"orders": ' + _block("[]", orders, I1),
        '"standard_form": ' + _block("{}", [
            f'"b1": {_array(sf.b1.coeffs, I2)}', f'"b2": {_array(sf.b2.coeffs, I2)}',
            _polys(I2, c1=sf.c1, c2=sf.c2, g=sf.g),
        ], I1),
        f'"verdict": {encode_basestring_ascii(VERDICT_TEXT)}',
    ], "")


def _ident_line(ident: Identification, analysis: ClassAnalysis, labels: list) -> str:
    """One module's verdict, as ``analyze`` prints it after the module name."""
    if ident.end is None:
        return "in class: no"
    a, b, c = (f.to_str() for f in analysis.orders[ident.end].order)
    return f"in class: yes; End = {labels[ident.end]}({a},{b},{c})"


def render_text(analysis: ClassAnalysis, identifications) -> str:
    W, local, sf, mo = analysis.weil, analysis.local, analysis.sf, analysis.mo
    labels = _labels(analysis)
    pv = W.pv.to_str()
    pattern = " * ".join(
        f"(deg {d})^{m}" if m > 1 else f"(deg {d})" for d, m in local.residue_pattern
    )
    lines = [
        "== isogeny class ==",
        f"q = {W.field.q}, pv = {pv}, m = {W.m}",
        f"M(x) = x^3 + ({W.a1.to_str()})*x^2 + ({W.a2.to_str()})*x + "
        f"({elem_str(W.mu)})*({pv})^{W.m}",
        f"verdict: {VERDICT_TEXT}",
        f"height h = {local.height} (etale degree {local.etale_degree}), "
        f"supersingular: {'yes' if local.supersingular else 'no'}",
        f"M mod pv factor degrees: {pattern}",
        "",
        "== maximal order ==",
        f"standard form: c1 = {sf.c1.to_str()}, c2 = {sf.c2.to_str()}, g = {sf.g.to_str()}",
        f"disc(M0) = {sf.disc_m0.to_str()}",
        f"Delta    = {mo.delta.to_str()}",
        f"index I  = {mo.index.to_str()}",
        f"alpha2 = {mo.alpha2.to_str()}, beta2 = {mo.beta2.to_str()}",
        "",
        f"== endomorphism rings ({len(analysis.orders)}) ==",
    ]
    for i, (rep, label) in enumerate(zip(analysis.orders, labels), 1):
        a, b, c = (f.to_str() for f in rep.order)
        tag = f"  [{label}]" if label else ""
        lines.append(
            f"#{i} (a={a}, b={b}, c={c}){tag}  conductor norm = "
            f"{rep.conductor_norm.to_str()}, disc = {rep.disc.to_str()}"
        )
    if identifications:
        lines += ["", "== module identifications =="]
        lines += [
            f"{ident.module}: {_ident_line(ident, analysis, labels)}" for ident in identifications
        ]
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
    if args.name is not None:
        (ident,) = identifications
        mismatch = " (rank mismatch)" if ident.rank_mismatch else ""
        return _ident_line(ident, analysis, _labels(analysis)) + mismatch + "\n"
    if (args.format or cfg.output_format) == "json":
        return build_report(analysis, identifications) + "\n"
    return render_text(analysis, identifications)


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
