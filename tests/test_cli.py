from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import drinfeld_orders.cli as cli
import drinfeld_orders.errors as errors
import drinfeld_orders.skew as skew
from drinfeld_orders import (
    OrderHNF,
    Poly,
    WeilCubic,
    analyze_weil_class,
    make_extension_field,
    maximal_order_data,
    standard_form,
)
from drinfeld_orders.cli import main
from drinfeld_orders.gf import ExtensionField, Packing, PrimeField

from oracles import descended_module, int_poly, report_oracle
from test_skew import RABIN_REDUCIBLE

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "configs" / "example_f5.json"


def run_cli(args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "drinfeld_orders.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def test_analyze_text_golden():
    proc = run_cli(["analyze", str(GOLDEN)])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "verdict: necessary conditions passed" in out
    assert "disc(M0) = T^6+2*T^5+2*T^2" in out
    assert "Delta    = T^4+2*T^3+2" in out
    assert "index I  = T" in out
    assert "alpha2 = 3, beta2 = 4" in out
    assert "endomorphism rings (2)" in out
    assert "phi: in class: yes; End = O_max(1,0,1)" in out
    assert "psi: in class: no" in out
    assert "psi_star: in class: yes; End = A[pi](T,0,1)" in out


def test_analyze_deterministic_bytes():
    a = run_cli(["analyze", str(GOLDEN), "--format", "json"])
    b = run_cli(["analyze", str(GOLDEN), "--format", "json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli(["analyze", str(GOLDEN), "--format", "text"])
    d = run_cli(["analyze", str(GOLDEN), "--format", "text"])
    assert c.stdout == d.stdout


def test_json_report_round_trips():
    proc = run_cli(["analyze", str(GOLDEN), "--format", "json"])
    report = json.loads(proc.stdout)
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    assert report["index"] == [0, 1]
    assert report["delta"] == [2, 0, 0, 2, 1]
    assert report["alpha2"] == [3] and report["beta2"] == [4]
    assert report["local"]["height"] == 1
    assert report["local"]["residue_pattern"] == [[1, 1], [1, 2]]
    orders = report["orders"]
    assert [o["label"] for o in orders] == ["O_max", "A[pi]"]
    assert orders[1]["conductor_norm"] == [0, 0, 1]
    idents = {i["module"]: i for i in report["identifications"]}
    assert idents["phi"]["in_class"] is True
    assert idents["phi"]["order"]["label"] == "O_max"
    assert idents["psi"]["in_class"] is False
    assert idents["psi_star"]["order"]["label"] == "A[pi]"
    # omega1 = pi + 2T + 2 has trivial denominator and is always realised;
    # omega2 fails for psi_star, so the maximal order is rejected
    survey = idents["psi_star"]["survey"]
    assert [row["generators"] for row in survey] == [[True, False], [True, True]]
    survey_phi = idents["phi"]["survey"]
    assert [row["generators"] for row in survey_phi] == [[True, True], [True, True]]


def test_check_module_verdicts():
    assert "End = O_max(1,0,1)" in run_cli(
        ["check-module", str(GOLDEN), "--name", "phi"]
    ).stdout
    assert "End = A[pi](T,0,1)" in run_cli(
        ["check-module", str(GOLDEN), "--name", "psi_star"]
    ).stdout
    proc = run_cli(["check-module", str(GOLDEN), "--name", "psi"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "in class: no"


def test_second_class_config():
    # the class where tau^3 + tau^2 + tau genuinely lives; there its
    # endomorphism ring is the maximal order
    proc = run_cli(["analyze", str(REPO / "configs" / "example_f5_second_class.json")])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "index I  = T" in out
    assert "endomorphism rings (2)" in out
    assert "psi: in class: yes; End = O_max(1,0,1)" in out


def test_supersingular_config():
    proc = run_cli(["analyze", str(REPO / "configs" / "example_f5_supersingular.json")])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "supersingular: yes" in out
    assert "Delta    = 1" in out
    assert "endomorphism rings (1)" in out
    assert "pure: in class: yes; End = O_max(1,0,1)" in out


def test_check_module_rank_mismatch(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    cfg["modules"] = [{"name": "short", "phi_T": [0, 1, 1]}]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["check-module", str(path), "--name", "short"])
    assert proc.returncode == 0
    assert "in class: no (rank mismatch)" in proc.stdout


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli(["analyze", str(bad)])
    assert proc.returncode == 2
    assert "config:" in proc.stderr
    proc = run_cli(["check-module", str(GOLDEN), "--name", "nope"])
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "content",
    [b'{"m": "\xff"}', b"[" * 200_000 + b"]" * 200_000, b'{"m": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "nested-200000-deep", "int-5000-digits"],
)
def test_hostile_json_exits_2(tmp_path, capsys, content):
    # the decoder raises UnicodeDecodeError, RecursionError and ValueError
    # (the int digit limit) here, not JSONDecodeError
    bad = tmp_path / "hostile.json"
    bad.write_bytes(content)
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config: invalid JSON in ")


@pytest.mark.parametrize(
    "path",
    [("field", "p"), ("field", "e"), ("m",), ("options", "candidate_bound")],
    ids=lambda path: ".".join(path),
)
def test_boolean_integers_rejected(tmp_path, capsys, path):
    # JSON true loads as a Python bool, which is an int; it must not pass as 1
    cfg = json.loads(GOLDEN.read_text())
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(cfg))
    assert main(["analyze", str(bad)]) == 2
    assert f"'{'.'.join(path)}'" in capsys.readouterr().err


def test_candidate_bound_given_as_a_json_string_rejected(tmp_path, capsys):
    # only the environment variable is text; in a config "1" is not 1
    cfg = json.loads(GOLDEN.read_text())
    cfg["options"]["candidate_bound"] = "1"
    bad = tmp_path / "text_bound.json"
    bad.write_text(json.dumps(cfg))
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr() == (
        "",
        "config: 'options.candidate_bound' must be a positive integer\n",
    )


# x^3 - T^3 over F_5 has the root T in A: analysing it exits 3
ROOT_IN_A = {"a1": [], "a2": [], "mu": 4}


@pytest.mark.parametrize("entry", ["a", [1], True, 3], ids=["str", "nested", "bool", "int"])
@pytest.mark.parametrize(
    "where, fault",
    [("weil.mu", None), ("phi_T", None), ("phi_T", "root"), ("phi_T", "bound")],
    ids=["weil.mu", "phi_T", "phi_T-root-in-A", "phi_T-bound-1"],
)
def test_prime_field_array_entries_checked(tmp_path, monkeypatch, capsys, where, fault, entry):
    # a prime-field element is a bare integer: an array [x] is rejected
    # whatever x is.  Entries are checked when the config loads, before a
    # class that fails (a root in A, exit 3; a candidate bound it exceeds,
    # exit 5) is analysed
    cfg = json.loads(GOLDEN.read_text())
    if fault == "root":
        cfg["weil"] = ROOT_IN_A
    elif fault == "bound":
        monkeypatch.setenv(cli.ENV_CANDIDATE_BOUND, "1")
    if where == "weil.mu":
        cfg["weil"]["mu"] = [entry]
    else:  # an element of L over F_5, its first coordinate given as [x]
        cfg["modules"][1]["phi_T"][1] = [[entry]]
    bad = tmp_path / "entry.json"
    bad.write_text(json.dumps(cfg))
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config:") and where in err


def test_analyze_runs_each_membership_once(monkeypatch, capsys):
    # End is read off the survey: of the 2 in-class modules x 2 orders x 2
    # generators, only the generator of O_max over d = T is tested; the
    # others lie in A[pi] and are members without a division
    calls = []
    real = skew.element_membership

    def counted(D, e):
        calls.append(e)
        return real(D, e)

    monkeypatch.setattr(skew, "element_membership", counted)
    assert main(["analyze", str(GOLDEN)]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    assert not any(e.d.is_one for e in calls)
    assert all(e.d == Poly.x(e.d.field) for e in calls)


def test_analyze_builds_l_once(monkeypatch, capsys):
    # three modules share one L: load_config builds one ring and tests L on
    # its Frobenius, the ring makes the one packing of L, and L, whose
    # products and inverse all go through the ring, builds no log tables
    counts = {"rings": 0, "packings": 0, "tables": 0}

    def counted(name, cls, key):
        real = getattr(cls, key)

        def wrapper(self, *args):
            counts[name] += 1
            return real(self, *args)

        return wrapper

    for name, cls, key in (
        ("rings", skew.SkewRing, "__init__"),
        ("packings", Packing, "__init__"),
        ("tables", ExtensionField, "_primitive_powers"),
    ):
        monkeypatch.setattr(cls, key, counted(name, cls, key))
    assert main(["analyze", str(GOLDEN)]) == 0
    golden = REPO / "tests" / "golden" / "example_f5.analyze.text.out"
    assert capsys.readouterr().out == golden.read_text()
    assert counts == {"rings": 1, "packings": 1, "tables": 0}


F49_CLASS = {
    "field": {"p": 7, "e": 2, "modulus": [1, 0, 1]},
    "pv": [[3, 2], [1, 0]],
    "m": 6,
    "weil": {
        "a1": [[0, 4], [4, 3], [6, 1]],
        "a2": [[4, 5], [2, 0], [4, 2], [2, 6], [6, 6]],
        "mu": [1, 4],
    },
}


def test_f49_class_multiplies_in_f7_only_to_build_tables(tmp_path, monkeypatch, capsys):
    # with F_49 and its residue fields on log tables, F_7 products happen
    # only while the F_49 tables are built, and those are packed (no
    # PrimeField.mul call; about 350 with F_7 loops, ~190,000 schoolbook)
    path = tmp_path / "f49.json"
    path.write_text(json.dumps(F49_CLASS))
    cfg = cli.load_config(str(path))
    assert isinstance(cfg.weil.field, ExtensionField) and cfg.weil.field.q == 49
    assert "_log" not in vars(cfg.weil.field)  # loading builds no table
    calls = [0]
    real = PrimeField.mul

    def counted(field, a, b):
        calls[0] += 1
        return real(field, a, b)

    monkeypatch.setattr(PrimeField, "mul", counted)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "endomorphism rings (1)" in out and "[O_max=A[pi]]" in out
    assert calls[0] <= 1000


def test_twist_raises_each_element_at_most_n_minus_1_times(monkeypatch, capsys):
    # the Frobenius orbit of an element of L is built once per ring, by
    # n - 1 Frobenius steps; the test of L adds one step past the orbit of z
    built, steps = {}, [0]
    real_orbit, real_step = skew.SkewRing._packed_orbit, skew.SkewRing._frobenius

    def orbit(ring, lam):
        if lam not in ring._packed_orbits:
            key = (id(ring), lam)
            built[key] = built.get(key, 0) + 1
        return real_orbit(ring, lam)

    def step(ring, x):
        steps[0] += 1
        return real_step(ring, x)

    monkeypatch.setattr(skew.SkewRing, "_packed_orbit", orbit)
    monkeypatch.setattr(skew.SkewRing, "_frobenius", step)
    assert main(["check-module", str(GOLDEN), "--name", "phi"]) == 0
    assert capsys.readouterr().out == "in class: yes; End = O_max(1,0,1)\n"
    assert built and max(built.values()) == 1
    assert steps[0] == (3 - 1) * len(built) + 1


def test_reducible_l_checked_before_class(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    cfg["L"] = [0, 0, 0, 1]  # x^3, reducible
    path = tmp_path / "reducible_l.json"
    path.write_text(json.dumps(cfg))
    for args in (["analyze", str(path)], ["check-module", str(path), "--name", "phi"]):
        proc = run_cli(args)
        assert proc.returncode == 2 and "config: L:" in proc.stderr
    # L is tested when the config loads, so a bad class is never analysed
    cfg["weil"] = ROOT_IN_A
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 2 and "config: L:" in proc.stderr


# L of each reducible kind, whose degree m follows, and L of the wrong shape
INVALID_L = {
    **{
        name: ({"L": list(f.coeffs), "m": f.degree}, "is reducible")
        for name, (f, _) in RABIN_REDUCIBLE.items()
    },
    "x^3": ({"L": [0, 0, 0, 1]}, "is reducible"),
    "non-monic": ({"L": [3, 3, 0, 2]}, "must be monic of degree >= 1"),
    "constant": ({"L": [1], "pv": [1], "m": 1}, "must be monic of degree >= 1"),
}


@pytest.mark.parametrize(
    "args", [["analyze"], ["check-module", "--name", "phi"]], ids=["analyze", "check-module"]
)
@pytest.mark.parametrize("name", INVALID_L)
def test_invalid_l_exits_2_with_the_modulus_message(tmp_path, capsys, name, args):
    edit, message = INVALID_L[name]
    cfg = json.loads(GOLDEN.read_text())
    cfg.update(edit)
    path = tmp_path / "bad_l.json"
    path.write_text(json.dumps(cfg))
    assert main([args[0], str(path), *args[1:]]) == 2
    assert capsys.readouterr() == ("", f"config: L: extension modulus {message}\n")


@pytest.mark.parametrize(
    "modulus, message",
    [
        ([2, 0, 2], "must be monic of degree >= 1"),
        ([1, 0, 0], "must be monic of degree >= 1"),  # the constant 1
        ([4, 0, 1], "is reducible"),  # y^2 - 1
        # a top coefficient 0, or 0 mod p, leaves y + 2 and y + 1 of degree 1
        ([2, 1, 0], "has degree 1 mod 5, not e = 2"),
        ([1, 1, 5], "has degree 1 mod 5, not e = 2"),
    ],
    ids=["non-monic", "constant", "reducible", "top-zero", "top-zero-mod-p"],
)
def test_invalid_field_modulus_exits_2_with_the_modulus_message(
    tmp_path, capsys, modulus, message
):
    cfg = json.loads(GOLDEN.read_text())
    cfg["field"] = {"p": 5, "e": 2, "modulus": modulus}
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config: field.modulus: extension modulus {message}\n")


def _psi_coefficient(entry):
    """The golden modules with psi's tau-coefficient 1 replaced by entry."""
    modules = json.loads(GOLDEN.read_text())["modules"]
    assert modules[1]["name"] == "psi"
    modules[1]["phi_T"][1] = entry
    return {"modules": modules}


@pytest.mark.parametrize(
    "args", [["analyze"], ["check-module", "--name", "phi"]], ids=["analyze", "check-module"]
)
@pytest.mark.parametrize(
    "edit, message",
    [
        ({"L": [0, 0, 0, 1]}, "L: extension modulus is reducible"),
        ({"L": [1, 1, 1]}, "the degree of L must equal"),
        ({"L": None}, "'modules' requires 'L'"),
        (_psi_coefficient(True), "module 'psi' phi_T: booleans"),
        (_psi_coefficient("a"), "module 'psi' phi_T: expected an integer or an array"),
        (_psi_coefficient([[[1]]]), "module 'psi' phi_T: expected an integer entry"),
    ],
    ids=["reducible-L", "L-degree", "no-L", "phi_T-bool", "phi_T-str", "phi_T-nested"],
)
def test_config_errors_exit_2_before_class_arithmetic(
    tmp_path, monkeypatch, capsys, edit, message, args
):
    # every config error is raised by load_config; check-module --name phi
    # is refused too when another module (psi) is malformed
    def no_analysis(*_args, **_kwargs):
        raise AssertionError("the class was analysed")

    monkeypatch.setattr(cli, "analyze_weil_class", no_analysis)
    cfg = json.loads(GOLDEN.read_text())
    cfg.update(edit)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([args[0], str(path), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err


def test_no_all_member_order_exits_4(monkeypatch, capsys):
    # A[pi] is always a row with both verdicts True, so the inconsistency
    # is reached only through a survey with no all-member row
    def no_members(D, candidates, sf, mo):
        return [(False, False) for order in candidates]

    monkeypatch.setattr(cli, "survey_candidates", no_members)
    assert main(["check-module", str(GOLDEN), "--name", "phi"]) == 4
    assert "no accepted order realises" in capsys.readouterr().err


def test_exit_code_weil_validation(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    del cfg["modules"]
    del cfg["L"]
    path = tmp_path / "reducible.json"
    cases = [
        # x^3 + T x + 4(T+1) has the root 1, of degree 0, not n/3 = 1/3
        ({"a1": [], "a2": [0, 1], "mu": 4}, [1, 1], 1, "M(x) breaks the degree bound at infinity"),
        # (x + 2(T+1))^3 = x^3 + (T+1) x^2 + 2(T+1)^2 x + 3(T+1)^3
        ({"a1": [1, 1], "a2": [2, 4, 2], "mu": 3}, [1, 1], 3, "M(x) has the root 3*T+3 in A"),
        # x^3 + 2T x^2 + 3T^2 x + 4T^3 has the root T: End(phi) (x) k is not
        # a field, outside the paper's theorem (README)
        ({"a1": [0, 2], "a2": [0, 0, 3], "mu": 4}, [0, 1], 3, "M(x) has the root T in A"),
        # (x - T)(x^2 + (3T+1) x + T^2) has the root T and h = 2; the root
        # test at infinity finds it before the square test at v runs
        ({"a1": [1, 2], "a2": [0, 4, 3], "mu": 4}, [0, 1], 3, "M(x) has the root T in A"),
        # x^3 + T^5 x^2 + x + 4T^3: deg a1 = 5 > n/3 = 1
        (
            {"a1": [0, 0, 0, 0, 0, 1], "a2": [1], "mu": 4},
            [0, 1],
            3,
            "M(x) breaks the degree bound at infinity",
        ),
        # x^3 + x + T^3: the residual x^3 + 1 = (x + 1)(x^2 + 4x + 1) at
        # infinity splits over F_5
        ({"a1": [], "a2": [1], "mu": 1}, [0, 1], 3, "the residual polynomial at infinity splits"),
        # the constant-term data is checked before infinity
        ({"a1": [], "a2": [0, 1], "mu": 0}, [0, 1], 1, "mu must be a nonzero field element"),
        ({"a1": [], "a2": [0, 1], "mu": 1}, [0, 0, 1], 1, "pv must be monic irreducible of degree >= 1"),
    ]
    for weil, pv, m, message in cases:
        cfg.update(weil=weil, pv=pv, m=m)
        path.write_text(json.dumps(cfg))
        proc = run_cli(["analyze", str(path)])
        assert proc.returncode == 3
        assert proc.stderr == f"weil-validation: {message}\n"


def test_exit_code_char3(tmp_path):
    cfg = {
        "field": {"p": 3, "e": 1},
        "pv": [0, 1],
        "m": 1,
        "weil": {"a1": [0, 1], "a2": [0, 1], "mu": 1},
    }
    path = tmp_path / "char3.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 3
    assert proc.stderr == "weil-validation: characteristic 3 is not supported\n"


def test_exit_code_candidate_bound(tmp_path):
    proc = run_cli(["analyze", str(GOLDEN), "--candidate-bound", "1"])
    assert proc.returncode == 5
    assert "enumeration" in proc.stderr


def test_env_var_candidate_bound():
    proc = run_cli(
        ["analyze", str(GOLDEN)],
        env_extra={"DRINFELD_ORDERS_CANDIDATE_BOUND": "1"},
    )
    assert proc.returncode == 5
    # CLI flag wins over the environment
    proc = run_cli(
        ["analyze", str(GOLDEN), "--candidate-bound", "1000"],
        env_extra={"DRINFELD_ORDERS_CANDIDATE_BOUND": "1"},
    )
    assert proc.returncode == 0


def test_modules_without_l_rejected(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    del cfg["L"]
    path = tmp_path / "nol.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 2


def test_l_degree_consistency(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    cfg["L"] = [1, 1, 1]  # degree 2 != m * deg(pv) = 3
    path = tmp_path / "badl.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 2


def test_config_without_modules_gives_empty_identifications(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    del cfg["modules"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path), "--format", "json"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["identifications"] == []


def test_main_callable_in_process(capsys):
    rc = main(["analyze", str(GOLDEN), "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["index_str"] == "T"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_extension_base_field_config(tmp_path, fmt):
    # q = 25 base field exercises extension-field element parsing end to end
    cfg = {
        "field": {"p": 5, "e": 2, "modulus": [2, 0, 1]},
        "pv": [0, 1],
        "m": 1,
        "weil": {"a1": [], "a2": [[0, 1]], "mu": [1, 1]},
    }
    path = tmp_path / "f25.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path), "--format", fmt])
    assert proc.returncode == 0, proc.stderr


def tower_config():
    """A class over F_25 = F_5[y]/(y^2 + 2) with L of degree 3 over it,
    15,625 elements (above the table cap): an in-class module from
    descended_module and a perturbed one."""
    F5 = PrimeField(5)
    F25 = make_extension_field(F5, int_poly(F5, [2, 0, 1]))
    L = make_extension_field(F25, Poly(F25, ((0, 1), (0, 1), (0, 0), (1, 0))))
    g = ((4, 0), (3, 3), (4, 4))
    phi_t, W = descended_module(L, g, ((4, 1), (1, 3), (1, 0)))
    perturbed = list(phi_t)
    perturbed[2] = L.add(perturbed[2], L.one)

    def arrays(coeffs):
        return [[list(c) for c in x] if isinstance(x[0], tuple) else list(x) for x in coeffs]

    return {
        "field": {"p": 5, "e": 2, "modulus": [2, 0, 1]},
        "pv": arrays(W.pv.coeffs),
        "m": W.m,
        "weil": {"a1": arrays(W.a1.coeffs), "a2": arrays(W.a2.coeffs), "mu": list(W.mu)},
        "L": arrays(L.modulus),
        "modules": [
            {"name": "phi", "phi_T": arrays(phi_t)},
            {"name": "perturbed", "phi_T": arrays(perturbed)},
        ],
    }


def test_modules_over_an_extension_base(tmp_path, capsys):
    # the tower config through analyze and check-module
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower_config()))
    assert main(["analyze", str(path)]) == 0
    lines = dict(
        line.split(": ", 1)
        for line in capsys.readouterr().out.splitlines()
        if line.startswith(("phi: ", "perturbed: "))
    )
    assert lines["phi"].startswith("in class: yes; End = ")
    assert lines["perturbed"] == "in class: no"
    for name, line in lines.items():
        assert main(["check-module", str(path), "--name", name]) == 0
        assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_extension_base_report_golden(tmp_path, capsys, fmt):
    # the whole report over F_25, byte for byte: nested element arrays in
    # the JSON and (c0,c1) coefficients in the text; the configs/ goldens
    # are all over F_5
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower_config()))
    assert main(["analyze", str(path), "--format", fmt]) == 0
    golden = REPO / "tests" / "golden" / f"f25_tower.analyze.{fmt}.out"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def _stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


AWKWARD = ['"', "\\", "\n", "\x00", "φ", "\ud800", 'a "b" \\ c\n\x00φ\ud800', ""]


def _analysis_and_identifications(cfg: dict, tmp_path):
    """The records ``run`` writes a report from, in process."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg))
    loaded = cli.load_config(str(path))
    analysis = analyze_weil_class(loaded.weil)
    return analysis, [
        cli.identify_module(loaded.ring, name, phi_t, analysis) for name, phi_t in loaded.modules
    ]


def _report_cases(case, tmp_path, instance_pool):
    """(analysis, identifications) pairs of one writer case."""
    if case == "pool":
        # every pool class, with no module and with one in-class record
        # whose survey lists every accepted order
        cases = []
        for analysis in instance_pool:
            rows = [(True, i % 2 == 0) for i in range(len(analysis.orders))]
            ident = cli.Identification("m", len(rows) - 1, rows)
            cases += [(analysis, []), (analysis, [ident])]
        return cases
    if case == "f49":
        return [_analysis_and_identifications(F49_CLASS, tmp_path)]
    if case == "tower":
        # phi in the class, End = O_max off a two-order survey; perturbed out
        return [_analysis_and_identifications(tower_config(), tmp_path)]
    cfg = json.loads(GOLDEN.read_text())
    if case == "rank-mismatch":
        cfg["modules"].append({"name": "short", "phi_T": [0, 1, 1]})
        return [_analysis_and_identifications(cfg, tmp_path)]
    if case == "awkward-names":
        # each AWKWARD string names a module of each verdict of example_f5
        analysis, idents = _analysis_and_identifications(cfg, tmp_path)
        renamed = [ident._replace(module=name) for name in AWKWARD for ident in idents]
        return [(analysis, renamed)]
    shipped = json.loads((REPO / "configs" / case).read_text())
    return [_analysis_and_identifications(shipped, tmp_path)]


@pytest.mark.parametrize(
    "case",
    [
        *sorted(p.name for p in (REPO / "configs").glob("*.json")),
        "f49", "tower", "rank-mismatch", "awkward-names", "pool",
    ],
)
def test_report_writer_matches_stdlib_encoder(tmp_path, instance_pool, case):
    # prime-field ints, element tuples two deep, booleans, survey rows of
    # one and two orders, out-of-class and rank-mismatch records, and
    # module names that json escapes
    for analysis, idents in _report_cases(case, tmp_path, instance_pool):
        assert cli.build_report(analysis, idents) == _stdlib_json(report_oracle(analysis, idents))


def test_accepted_orders_come_in_canonical_order(tmp_path, instance_pool):
    # an identification holds End(phi) as the position of the first
    # all-member survey row, which is End(phi) only because the accepted
    # orders come largest first: O_max, then strictly increasing sort keys
    cfgs = [json.loads(p.read_text()) for p in sorted((REPO / "configs").glob("*.json"))]
    analyses = [
        _analysis_and_identifications(cfg, tmp_path)[0]
        for cfg in cfgs + [F49_CLASS, tower_config()]
    ]
    for analysis in analyses + list(instance_pool):
        F = analysis.weil.field
        orders = [rep.order for rep in analysis.orders]
        assert orders[0] == OrderHNF(Poly.one(F), Poly.zero(F), Poly.one(F))
        keys = [order.sort_key() for order in orders]
        assert all(k < k_next for k, k_next in zip(keys, keys[1:]))
    assert len(analyses) == len(cfgs) + 2


@pytest.mark.parametrize(
    "value",
    [
        # the array ids keep their numbers from an earlier, wider table
        pytest.param([], id="value1"), pytest.param((), id="value2"),
        True, False, 0, -1, -(10**100), 10**100,
        pytest.param([-7, 10**100], id="value20"),
        *AWKWARD,
    ],
)
def test_report_writer_matches_stdlib_encoder_on_edge_values(value):
    # each value where the report writes it: a bool by JSON_BOOL, an int or
    # an int array by _array (at the top and one level in), a string as a
    # module name
    if type(value) is bool:
        assert cli.JSON_BOOL[value] == _stdlib_json(value)
    elif type(value) is str:
        analysis = analyze_weil_class(cli.load_config(str(GOLDEN)).weil)
        idents = [cli.Identification(value)]
        assert cli.build_report(analysis, idents) == _stdlib_json(report_oracle(analysis, idents))
    else:
        assert cli._array(value, "") == _stdlib_json(value)
        assert cli._block("[]", [cli._array(value, "  ")], "") == _stdlib_json([value])


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_path_is_one_call(monkeypatch, capsys, fmt):
    # the benchmark's cli.report span wraps build_report and render_text:
    # the whole report path of a command is one call of one of them
    calls = {"build_report": 0, "render_text": 0}
    for name in calls:
        real = getattr(cli, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, counted)
    assert main(["analyze", str(GOLDEN), "--format", fmt]) == 0
    golden = REPO / "tests" / "golden" / f"example_f5.analyze.{fmt}.out"
    assert capsys.readouterr().out == golden.read_text()
    assert calls == {"build_report": int(fmt == "json"), "render_text": int(fmt == "text")}


def test_module_named_phi_letter_escaped_like_stdlib(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    cfg["modules"][0]["name"] = "φ"
    path = tmp_path / "phi_letter.json"
    path.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
    proc = run_cli(["analyze", str(path), "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert '"module": "\\u03c6"' in out
    assert out == _stdlib_json(json.loads(out)) + "\n"


@pytest.mark.parametrize(
    "p, modulus",
    [(7, [4, 0, 2, 0, 0, 0, 5, 4, 1]), (5, [1, 4, 0, 2, 0, 3, 3, 3, 3, 1, 0, 3, 0, 3, 3, 4, 1])],
    ids=["7^8", "5^16"],
)
def test_large_q_class_exits_fast(tmp_path, capsys, p, modulus):
    # the root-in-A sieve finds the roots of its top-degree polynomial in
    # F_q* by a gcd with u^(q-1) - 1; evaluating it at all q - 1 units ran
    # past 20 s for these fields
    cfg = {
        "field": {"p": p, "e": len(modulus) - 1, "modulus": modulus},
        "pv": [0, 1],
        "m": 1,
        "weil": {"a1": [1], "a2": [1], "mu": 1},
    }
    path = tmp_path / "large_q.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["analyze", str(path)]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert "verdict: necessary conditions passed" in capsys.readouterr().out


def test_high_degree_index_prime_exits_fast(tmp_path, capsys):
    # the index is irreducible of degree 10 over F_13; searching its
    # 13^10 residues for beta2 ran for over 30 s, the closed form gives beta2 = T.
    # deg a2 = 21 breaks the bound 2n/3 = 2 at infinity, so the CLI exits 3
    # and the layers below validation are called directly
    a2 = [1, 4, 3, 4, 5, 10, 6, 0, 1, 7, 8, 8, 12, 7, 9, 7, 8, 0, 5, 5, 11, 2]
    cfg = {
        "field": {"p": 13, "e": 1},
        "pv": [0, 1],
        "m": 3,
        "weil": {"a1": [], "a2": a2, "mu": 2},
    }
    path = tmp_path / "index_degree_10.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == 3
    assert "degree bound at infinity" in capsys.readouterr().err
    F = PrimeField(13)
    W = WeilCubic(
        field=F, a1=Poly.zero(F), a2=int_poly(F, a2), mu=F.element(2), pv=Poly.x(F), m=3
    )
    t0 = time.perf_counter()
    mo = maximal_order_data(standard_form(W))
    assert time.perf_counter() - t0 < 5.0
    assert mo.index.to_str() == "T^10+10*T^9+2*T^8+4*T^7+7*T^6+4*T^5+T^4+2*T^3+8*T^2+9*T+2"
    assert (mo.alpha2.to_str(), mo.beta2.to_str()) == ("11*T^2", "T")


def test_char2_rejected(tmp_path):
    cfg = {
        "field": {"p": 2, "e": 2, "modulus": [1, 1, 1]},
        "pv": [[1, 0], [1, 0]],
        "m": 1,
        "weil": {"a1": [], "a2": [[0, 1]], "mu": [1, 1]},
    }
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 3
    assert proc.stderr == "weil-validation: characteristic 2 is not supported\n"


def test_large_prime_config_loads_fast_and_oversized_p_exits_2(tmp_path, capsys):
    cfg = json.loads((REPO / "configs" / "example_f5.json").read_text())
    cfg.pop("L"), cfg.pop("modules")
    cfg["field"]["p"] = 2**61 - 1
    path = tmp_path / "p61.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    loaded = cli.load_config(str(path))
    assert time.perf_counter() - t0 < 1.0
    assert loaded.weil.field == PrimeField(2**61 - 1)
    # beyond the bound where Miller-Rabin with fixed bases decides primality
    cfg["field"]["p"] = 2**89 - 1
    path.write_text(json.dumps(cfg))
    assert main(["analyze", str(path)]) == 2
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"m": 300}, "m * deg(pv)"),
        ({"pv": [1, 1, 1], "m": 13}, "m * deg(pv)"),
        ({"weil": {"a1": [1] * 50, "a2": [1], "mu": 1}}, "weil.a1: degree"),
        ({"field": {"p": 5, "e": 17, "modulus": [1] * 18}}, "'field.e'"),
        ({"L": [1] * 50}, "L: degree"),
    ],
    ids=["m300", "n26", "a1-deg49", "e17", "L-deg49"],
)
def test_oversized_config_exits_2_fast(tmp_path, capsys, edit, message):
    # pv = T and m = 300 over F_5 used to run for over a minute; size limits
    # are checked before any arithmetic
    cfg = json.loads(GOLDEN.read_text())
    cfg.update(edit)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config:") and message in err and "limit" in err


def test_size_limits_admit_the_largest_known_configs(tmp_path):
    # the class tests reach m = 15 with deg a2 = 10
    cfg = json.loads(GOLDEN.read_text())
    cfg.pop("L"), cfg.pop("modules")
    cfg.update({"m": 15, "weil": {"a1": [0], "a2": [0] * 10 + [1], "mu": 1}})
    path = tmp_path / "m15.json"
    path.write_text(json.dumps(cfg))
    assert cli.load_config(str(path)).weil.m == 15


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (errors.ConfigError, 2, "config:"),
        (errors.ReducibleError, 3, "weil-validation:"),
        (errors.NotWeilAtVError, 3, "weil-validation:"),
        (errors.CandidateBoundExceededError, 5, "enumeration:"),
        (errors.InternalInconsistencyError, 4, "internal-inconsistency:"),
        (errors.DomainError, 4, "error:"),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else None,
)
def test_exit_code_and_prefix_per_error_type(monkeypatch, capsys, error, code, prefix):
    def failing(W, candidate_bound):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "analyze_weil_class", failing)
    assert main(["analyze", str(GOLDEN)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix} raised on purpose\n"


@pytest.mark.parametrize("value", [0, -5])
@pytest.mark.parametrize("source", ["flag", "env", "options"])
def test_non_positive_candidate_bound_exits_2(tmp_path, monkeypatch, capsys, source, value):
    # every source of the bound goes through the same positivity check
    cfg = json.loads(GOLDEN.read_text())
    argv = ["analyze", str(tmp_path / "bound.json")]
    if source == "flag":
        argv += ["--candidate-bound", str(value)]
    elif source == "env":
        monkeypatch.setenv("DRINFELD_ORDERS_CANDIDATE_BOUND", str(value))
    else:
        cfg["options"]["candidate_bound"] = value
    (tmp_path / "bound.json").write_text(json.dumps(cfg))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config:")
    assert "must be a positive integer" in captured.err


def test_parser_built_once(monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["analyze", str(GOLDEN), "--format", "json"]) == 0
    first = list(built)
    assert main(["check-module", str(GOLDEN), "--name", "phi"]) == 0
    capsys.readouterr()
    # one parser (its two subcommand parsers are ArgumentParsers too), built
    # by the first call; the second builds none
    assert first == [
        "drinfeld-orders",
        "drinfeld-orders analyze",
        "drinfeld-orders check-module",
    ]
    assert built == first
