"""CLI commands, exit codes, and report schema."""
import json

import numpy as np
import pytest

from clarke_kkt import cli
from clarke_kkt.problem import parse_problem

P3_TEXT = "name P3\ndim 2\nobjective abs(x1) + x2\nineq -x2\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.prob"
    path.write_text(P3_TEXT, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_analyze_stationary_exit_zero(p3_file, capsys):
    code, out = run_cli(capsys, "analyze", p3_file, "--at", "0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "stationary"
    assert list(payload) == ["version", "problem", "point", "config", "feasibility",
                             "cq", "certificate", "verdict", "failed_stage", "message",
                             "timings"]


def test_analyze_not_stationary_exit_three(p3_file, capsys):
    code, out = run_cli(capsys, "analyze", p3_file, "--at", "0,1", "--json")
    assert code == 3
    assert json.loads(out)["verdict"] == "not_stationary"


def test_analyze_infeasible_exit_four(p3_file, capsys):
    code, _ = run_cli(capsys, "analyze", p3_file, "--at", "0,-1")
    assert code == 4


def test_analyze_cq_failed_exit_five(tmp_path, capsys):
    path = tmp_path / "dep.prob"
    path.write_text("dim 2\nobjective abs(x1)\neq x1\neq 2 * x1\n", encoding="utf-8")
    code, _ = run_cli(capsys, "analyze", str(path), "--at", "0,0")
    assert code == 5


def test_analyze_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.prob"
    path.write_text("dim 2\nobjective abs(x3)\n", encoding="utf-8")
    code, _ = run_cli(capsys, "analyze", str(path), "--at", "0,0")
    assert code == 2


def test_analyze_wrong_point_dimension_exit_two(p3_file, capsys):
    code, _ = run_cli(capsys, "analyze", p3_file, "--at", "0,0,0")
    assert code == 2


def test_seed_env_fallback(p3_file, capsys, monkeypatch):
    monkeypatch.setenv("CLARKE_KKT_SEED", "7")
    code, out = run_cli(capsys, "analyze", p3_file, "--at", "0,0", "--json")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 7


def test_suite_defaults_pass(capsys):
    code, out = run_cli(capsys, "suite", "--json", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert [entry["name"] for entry in payload["entries"]] == ["P1", "P2", "P3", "P4", "P5"]


def test_suite_tight_eps_stat_fails(capsys):
    # the residual floor from sampled gradients exceeds an overly tight bound
    code, out = run_cli(capsys, "suite", "--json", "--seed", "42", "--eps-stat", "1e-9")
    assert code == 1
    assert not json.loads(out)["ok"]


def test_suite_export_round_trips(tmp_path, capsys):
    code, _ = run_cli(capsys, "suite", "--export", str(tmp_path / "out"))
    assert code == 0
    files = sorted((tmp_path / "out").glob("*.prob"))
    assert len(files) == 5
    from clarke_kkt.suite import registry
    for entry, path in zip(registry(), files):
        assert parse_problem(path.read_text(encoding="utf-8")) == entry.problem


def test_suite_json_deterministic_excluding_timings(capsys):
    _, first = run_cli(capsys, "suite", "--json", "--seed", "42")
    _, second = run_cli(capsys, "suite", "--json", "--seed", "42")
    a = json.loads(first)
    b = json.loads(second)
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a) == json.dumps(b)


def test_check_properties_p1(tmp_path, capsys):
    path = tmp_path / "p1.prob"
    path.write_text("dim 1\nobjective abs(x1)\n", encoding="utf-8")
    code, out = run_cli(capsys, "check-properties", str(path), "--at", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    homogeneity = [r for r in payload["reports"] if r["name"] == "homogeneity"]
    identity_cases = [c for r in homogeneity for c in r["cases"] if c["lambda"] == 1.0]
    assert identity_cases and all(c["discrepancy"] == 0.0 for c in identity_cases)


def test_check_properties_smooth_p4(tmp_path, capsys):
    path = tmp_path / "p4.prob"
    path.write_text("dim 2\nobjective pow(x1 - 1, 2) + pow(x2, 2)\neq x1 + x2\n", encoding="utf-8")
    code, _ = run_cli(capsys, "check-properties", str(path), "--at", "0.5,-0.5")
    assert code == 0


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=reject)


VERDICT_CONFIG = ["seed", "eps_stat", "active_tol", "sd_radius", "sd_count"]


@pytest.mark.parametrize("argv, config", [
    (("analyze", "{p1}", "--at", "0"), VERDICT_CONFIG),
    (("suite",), VERDICT_CONFIG),
    (("check-properties", "{p1}", "--at", "0"), ["seed", "levels", "samples", "eps_sub"]),
])
def test_json_is_strict_and_config_echoes_own_options(argv, config, tmp_path, capsys):
    # without inequalities max_ineq_violation is -inf, which must come out as null
    path = tmp_path / "p1.prob"
    path.write_text("dim 1\nobjective abs(x1)\n", encoding="utf-8")
    code, out = run_cli(capsys, *(a.format(p1=path) for a in argv), "--json")
    assert code == 0
    payload = _strict_json(out)
    assert list(payload["config"]) == config


@pytest.mark.parametrize("argv", [
    # an option the command does not read
    ("analyze", "{p3}", "--at", "0,0", "--levels", "3"),
    ("suite", "--eps-mem", "0.1"),
    ("check-properties", "{p3}", "--at", "0,0", "--eps-stat", "1e-3"),
    # a non-finite float
    ("analyze", "{p3}", "--at", "0,0", "--eps-stat", "nan"),
    ("suite", "--active-tol=-inf"),
    ("check-properties", "{p3}", "--at", "0,0", "--eps-sub", "inf"),
])
def test_option_rejected_at_parse_time(argv, p3_file):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(p3=p3_file) for a in argv])
    assert exc.value.code == 2


def test_seed_env_unparsable_is_input_error(p3_file, capsys, monkeypatch):
    monkeypatch.setenv("CLARKE_KKT_SEED", "abc")
    code = cli.main(["analyze", p3_file, "--at", "0,0", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "CLARKE_KKT_SEED" in captured.err


def test_analyze_error_reports_failed_stage(tmp_path, capsys):
    path = tmp_path / "inv.prob"
    path.write_text("dim 1\nobjective 1 / x1\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), "--at", "0", "--json")
    assert code == 2
    payload = _strict_json(out)
    assert payload["verdict"] == "error"
    assert payload["failed_stage"] == "multiplier_recovery"
    assert "division by zero" in payload["message"]


@pytest.mark.parametrize("as_json", [True, False])
def test_analyze_non_finite_constraint_is_feasibility_error(as_json, tmp_path, capsys):
    path = tmp_path / "overflow.prob"
    path.write_text("dim 1\nobjective abs(x1)\neq pow(x1, 400) - 1\n", encoding="utf-8")
    argv = ["analyze", str(path), "--at", "10"] + (["--json"] if as_json else [])
    with np.errstate(over="ignore"):
        code, out = run_cli(capsys, *argv)
    assert code == 2
    if as_json:
        payload = _strict_json(out)
        assert payload["verdict"] == "error"
        assert payload["failed_stage"] == "feasibility"
        assert "non-finite equality constraint value" in payload["message"]
        assert payload["feasibility"] == {"eq_norm": None, "max_ineq_violation": None}
    else:
        assert "failed at : feasibility: non-finite equality constraint value" in out
        assert out.endswith("verdict   : error\n")


def test_analyze_human_point_is_plain_floats(p3_file, capsys):
    _, out = run_cli(capsys, "analyze", p3_file, "--at", "0,1")
    assert "point     : [0.0, 1.0]\n" in out


def test_analyze_human_multipliers_are_plain_floats(tmp_path, capsys):
    path = tmp_path / "eq_ineq.prob"
    path.write_text("dim 2\nobjective abs(x1) + x2\neq x1\nineq -x2\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), "--at", "0,0")
    assert code == 0
    lines = {key.strip(): value for key, value in (line.split(":", 1) for line in out.splitlines())}
    for key in ("z1", "z2"):
        values = json.loads(lines[key])
        assert len(values) == 1
        assert all(type(v) is float for v in values)


@pytest.mark.parametrize("option", [
    ("--sd-count", "0"), ("--sd-count", "-3"), ("--sd-count", "2.5"),
    ("--sd-radius", "0"), ("--sd-radius=-1e-3",),
])
@pytest.mark.parametrize("command", ["analyze", "suite"])
def test_non_positive_sampling_option_exit_two(command, option, p3_file, capsys):
    argv = ["analyze", p3_file, "--at", "0,0"] if command == "analyze" else ["suite"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + list(option))
    assert exc.value.code == 2
    assert "positive" in capsys.readouterr().err


def test_check_properties_invalid_estimator_config_exit_two(p3_file, capsys):
    code, out = run_cli(capsys, "check-properties", p3_file, "--at", "0,0", "--levels", "1")
    assert code == 2
    assert out == ""


def test_analyze_non_finite_report_is_input_error(tmp_path, capsys):
    # pow overflows to inf: a feasibility-stage error, its norm written as null
    path = tmp_path / "overflow.prob"
    path.write_text("dim 1\nobjective abs(x1)\neq pow(x1, 400)\n", encoding="utf-8")
    with np.errstate(over="ignore"):
        code, out = run_cli(capsys, "analyze", str(path), "--at", "10", "--json")
    assert code == 2
    assert _strict_json(out)["failed_stage"] == "feasibility"
