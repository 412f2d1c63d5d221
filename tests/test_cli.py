from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeld_orders.cli as cli
import drinfeld_orders.skew as skew
from drinfeld_orders.cli import main
from drinfeld_orders.gf import ExtensionField, FiniteField, PrimeField

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "configs" / "example_f5.json"


def run_cli(args, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("DRINFELD_ORDERS_CANDIDATE_BOUND", None)
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


def test_analyze_runs_each_membership_once(monkeypatch, capsys):
    # End is read off the survey: 2 in-class modules x 2 orders x 2 generators
    calls = []
    real = skew.element_membership

    def counted(D, e):
        calls.append(e)
        return real(D, e)

    monkeypatch.setattr(skew, "element_membership", counted)
    monkeypatch.delenv("DRINFELD_ORDERS_CANDIDATE_BOUND", raising=False)
    assert main(["analyze", str(GOLDEN)]) == 0
    capsys.readouterr()
    assert len(calls) == 8


def test_analyze_builds_l_once(monkeypatch, capsys):
    # three modules share one L; its irreducibility test runs once
    calls = []
    real = cli.make_extension_field

    def counted(base, modulus):
        calls.append(modulus)
        return real(base, modulus)

    monkeypatch.setattr(cli, "make_extension_field", counted)
    monkeypatch.delenv("DRINFELD_ORDERS_CANDIDATE_BOUND", raising=False)
    assert main(["analyze", str(GOLDEN)]) == 0
    capsys.readouterr()
    assert [m.degree for m in calls] == [3]


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
    # only while the F_49 tables are built (about 350; schoolbook: ~190,000)
    path = tmp_path / "f49.json"
    path.write_text(json.dumps(F49_CLASS))
    cfg = cli.load_config(str(path))
    assert isinstance(cfg.field, ExtensionField) and cfg.field.q == 49
    assert "_log" not in vars(cfg.field)  # loading builds no table
    calls = [0]
    real = PrimeField.mul

    def counted(field, a, b):
        calls[0] += 1
        return real(field, a, b)

    monkeypatch.setattr(PrimeField, "mul", counted)
    monkeypatch.delenv("DRINFELD_ORDERS_CANDIDATE_BOUND", raising=False)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "endomorphism rings (1)" in out and "[O_max=A[pi]]" in out
    assert calls[0] <= 1000


def test_twist_raises_each_element_at_most_n_minus_1_times(monkeypatch, capsys):
    # the Frobenius orbit of an element of L is computed once per ring
    raised = {}

    def counted(field, a, n):
        if n == field.base.q:
            key = (id(field), a)
            raised[key] = raised.get(key, 0) + 1
        return FiniteField.pow(field, a, n)

    monkeypatch.setattr(ExtensionField, "pow", counted)
    monkeypatch.delenv("DRINFELD_ORDERS_CANDIDATE_BOUND", raising=False)
    assert main(["check-module", str(GOLDEN), "--name", "phi"]) == 0
    assert capsys.readouterr().out == "in class: yes; End = O_max(1,0,1)\n"
    assert raised and max(raised.values()) <= 3 - 1


def test_reducible_l_checked_after_class(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    cfg["L"] = [0, 0, 0, 1]  # x^3, reducible
    path = tmp_path / "reducible_l.json"
    path.write_text(json.dumps(cfg))
    for args in (["analyze", str(path)], ["check-module", str(path), "--name", "phi"]):
        proc = run_cli(args)
        assert proc.returncode == 2 and "config: L:" in proc.stderr
    # a bad class is reported first (exit 3), as before L is looked at
    cfg["weil"] = {"a1": [], "a2": [], "mu": 4}  # x^3 - T^3 has root T
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 3 and "weil-validation:" in proc.stderr


def test_no_all_member_order_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(skew, "element_membership", lambda D, e: None)
    monkeypatch.delenv("DRINFELD_ORDERS_CANDIDATE_BOUND", raising=False)
    assert main(["check-module", str(GOLDEN), "--name", "phi"]) == 4
    assert "no candidate order" in capsys.readouterr().err


def test_exit_code_weil_validation(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    # reducible: x^3 + T x + 4(T+1) has root 1
    cfg["weil"] = {"a1": [], "a2": [0, 1], "mu": 4}
    cfg["pv"] = [1, 1]
    cfg["m"] = 1
    del cfg["modules"]
    del cfg["L"]
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 3
    assert "weil-validation" in proc.stderr


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
    assert "weil-validation" in proc.stderr
