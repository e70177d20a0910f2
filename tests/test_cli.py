"""CLI commands, exit codes, and report schema."""
import hashlib
import json

import pytest

from clarke_kkt import cli
from clarke_kkt.problem import parse_problem
from clarke_kkt.suite import registry

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


def test_analyze_writes_the_slater_direction_without_negative_zero(p3_file, capsys):
    code, out = run_cli(capsys, "analyze", p3_file, "--at", "0,0", "--json")
    assert code == 0
    assert '"slater_direction": [0.0, 1.0]' in out


def test_analyze_finds_the_slater_direction_at_the_box_edge(tmp_path, capsys):
    path = tmp_path / "edge.prob"
    path.write_text("dim 2\nobjective -0.0008 * x1 - 0.000331 * x2\n"
                    "ineq 0.0008 * x1 + 0.000331 * x2\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), "--at", "0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "stationary"
    assert payload["cq"]["slater_ok"]


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


@pytest.mark.parametrize("text,point,verdict,stages", [
    (P3_TEXT, "0,0", "stationary", ["feasibility", "constraint_qualification", "multiplier_recovery"]),
    (P3_TEXT, "0,-1", "infeasible", ["feasibility"]),
    ("dim 2\nobjective abs(x1)\neq x1\neq 2 * x1\n", "0,0", "cq_failed",
     ["feasibility", "constraint_qualification"]),
    ("dim 1\nobjective 1 / x1\n", "0", "error", ["feasibility"]),
])
def test_analyze_json_times_each_stage_that_ran(text, point, verdict, stages, tmp_path, capsys):
    path = tmp_path / "timed.prob"
    path.write_text(text, encoding="utf-8")
    _, out = run_cli(capsys, "analyze", str(path), "--at=" + point, "--json")
    payload = json.loads(out)
    assert payload["verdict"] == verdict
    assert list(payload["timings"]) == ["analyze_s", "stages"]
    assert list(payload["timings"]["stages"]) == stages
    seconds = payload["timings"]["stages"].values()
    assert all(s >= 0.0 for s in seconds) and sum(seconds) <= payload["timings"]["analyze_s"]


def test_analyze_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.prob"
    path.write_text("dim 2\nobjective abs(x3)\n", encoding="utf-8")
    code, _ = run_cli(capsys, "analyze", str(path), "--at", "0,0")
    assert code == 2


@pytest.mark.parametrize("objective", ["(" * 300 + "x1" + ")" * 300])
def test_analyze_deep_expression_exit_two(objective, tmp_path, capsys):
    # the parser rejects the 101st nested parenthesis (column 10 + 101) before
    # it recurses; no traceback reaches the user
    path = tmp_path / "deep.prob"
    path.write_text(f"dim 1\nobjective {objective}\n", encoding="utf-8")
    code = cli.main(["analyze", str(path), "--at", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: line 2, col 111: parentheses nest more than 100 deep\n"


@pytest.mark.parametrize("depth, code, err", [
    (100, 3, ""),
    (101, 2, "error: line 2, col 111: parentheses nest more than 100 deep\n"),
])
def test_analyze_nesting_bound(depth, code, err, tmp_path, capsys):
    path = tmp_path / "nested.prob"
    path.write_text("dim 1\nobjective " + "(" * depth + "x1" + ")" * depth + "\n", encoding="utf-8")
    assert cli.main(["analyze", str(path), "--at", "0"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("terms", [900, 990, 20000])
def test_analyze_long_sum(terms, tmp_path, capsys):
    # every tree walk is a loop over the tape, so a sum of any length analyzes
    path = tmp_path / "sum.prob"
    path.write_text("dim 1\nobjective " + " + ".join(["abs(x1)"] * terms) + "\n", encoding="utf-8")
    code = cli.main(["analyze", str(path), "--at", "0", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verdict"] == "stationary"
    assert captured.err == ""


def test_analyze_wrong_point_dimension_exit_two(p3_file, capsys):
    code, _ = run_cli(capsys, "analyze", p3_file, "--at", "0,0,0")
    assert code == 2


def test_analyze_negative_point_after_a_space(tmp_path, capsys):
    # argparse alone reads -1,1 as an unknown option and stops at --at
    path = tmp_path / "p2.prob"
    path.write_text("name P2\ndim 2\nobjective max(x1, x2)\neq x1 + x2\n", encoding="utf-8")
    spaced = run_cli(capsys, "analyze", str(path), "--at", "-1,1", "--json")
    joined = run_cli(capsys, "analyze", str(path), "--at=-1,1", "--json")
    assert spaced[0] == joined[0] == 3
    assert json.loads(spaced[1])["point"] == [-1.0, 1.0]
    assert _without_timings(spaced[1]) == _without_timings(joined[1])


@pytest.mark.parametrize("command", ["analyze", "check-properties"])
def test_negative_exponent_point_after_a_space(command, tmp_path, capsys):
    path = tmp_path / "abs.prob"
    path.write_text("dim 1\nobjective abs(x1)\n", encoding="utf-8")
    spaced = run_cli(capsys, command, str(path), "--at", "-1e-3", "--json")
    joined = run_cli(capsys, command, str(path), "--at=-1e-3", "--json")
    assert spaced[0] == joined[0] == {"analyze": 3, "check-properties": 0}[command]
    assert json.loads(spaced[1])["point"] == [-1e-3]
    assert _without_timings(spaced[1]) == _without_timings(joined[1])


@pytest.mark.parametrize("command", ["analyze", "check-properties"])
def test_missing_point_value_exit_two(command, p3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, p3_file, "--at", "--json"])
    assert exc.value.code == 2
    assert "argument --at: expected one argument" in capsys.readouterr().err


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
    # one sampled gradient cannot span the kinks of P1, P2, P3 and P5, whatever
    # the solver; smooth P4 needs only the one
    code, out = run_cli(capsys, "suite", "--json", "--seed", "42", "--sd-count", "1")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert {entry["name"]: entry["ok"] for entry in payload["entries"]} == {
        "P1": False, "P2": False, "P3": False, "P4": True, "P5": False}


def test_suite_export_round_trips(tmp_path, capsys):
    code, _ = run_cli(capsys, "suite", "--export", str(tmp_path / "out"))
    assert code == 0
    files = sorted((tmp_path / "out").glob("*.prob"))
    assert len(files) == 5
    from clarke_kkt.suite import registry
    for entry, path in zip(registry(), files):
        assert parse_problem(path.read_text(encoding="utf-8")) == entry.problem


def test_suite_export_failure_is_input_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code = cli.main(["suite", "--export", str(taken)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(taken) in captured.err


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


def test_check_properties_steep_objective_passes_on_rounding(tmp_path, capsys):
    # estimates up to about 1e94: rounding alone puts the slack far above eps_sub
    path = tmp_path / "steep.prob"
    path.write_text("dim 1\nobjective pow(x1, 400)\n", encoding="utf-8")
    code, out = run_cli(capsys, "check-properties", str(path), "--at", "1.7", "--seed", "42", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["name"] for r in reports].count("subadditivity") == 20
    assert all(r["passed"] for r in reports)


def test_analyze_overflowing_multiplier_solve_is_error(tmp_path, capsys):
    # sampled gradients near 1e161 are finite, but their squares are not
    path = tmp_path / "steep.prob"
    path.write_text("dim 1\nobjective pow(x1, 400)\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), "--at", "2.5", "--json")
    assert code == 2
    payload = json.loads(out)
    assert (payload["verdict"], payload["failed_stage"]) == ("error", "multiplier_recovery")


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


# (argv, the last line argparse writes to stderr)
REJECTED_OPTIONS = [
    # an option the command does not read
    (("analyze", "{p3}", "--at", "0,0", "--levels", "3"),
     "clarke-kkt: error: unrecognized arguments: --levels 3"),
    (("suite", "--eps-mem", "0.1"), "clarke-kkt: error: unrecognized arguments: --eps-mem 0.1"),
    (("check-properties", "{p3}", "--at", "0,0", "--eps-stat", "1e-3"),
     "clarke-kkt: error: unrecognized arguments: --eps-stat 1e-3"),
    # a non-finite float
    (("analyze", "{p3}", "--at", "0,0", "--eps-stat", "nan"),
     "clarke-kkt analyze: error: argument --eps-stat: not a finite number: 'nan'"),
    (("suite", "--active-tol=-inf"),
     "clarke-kkt suite: error: argument --active-tol: not a finite number: '-inf'"),
    (("check-properties", "{p3}", "--at", "0,0", "--eps-sub", "inf"),
     "clarke-kkt check-properties: error: argument --eps-sub: not a finite number: 'inf'"),
    # a negative tolerance
    (("analyze", "{p3}", "--at", "0,0", "--eps-stat", "-1"),
     "clarke-kkt analyze: error: argument --eps-stat: not a nonnegative number: '-1'"),
    (("analyze", "{p3}", "--at", "0,0", "--active-tol", "-1"),
     "clarke-kkt analyze: error: argument --active-tol: not a nonnegative number: '-1'"),
    (("suite", "--eps-stat=-1e-3"),
     "clarke-kkt suite: error: argument --eps-stat: not a nonnegative number: '-1e-3'"),
    (("check-properties", "{p3}", "--at", "0,0", "--eps-sub", "-1"),
     "clarke-kkt check-properties: error: argument --eps-sub: not a nonnegative number: '-1'"),
    # a sampling radius or count that is not positive, or not an integer
    (("analyze", "{p3}", "--at", "0,0", "--sd-radius", "0"),
     "clarke-kkt analyze: error: argument --sd-radius: not a positive number: '0'"),
    (("analyze", "{p3}", "--at", "0,0", "--sd-radius", "-0.0"),
     "clarke-kkt analyze: error: argument --sd-radius: not a positive number: '-0.0'"),
    (("suite", "--sd-count", "0"), "clarke-kkt suite: error: argument --sd-count: not a positive integer: '0'"),
    (("suite", "--sd-count", "1.5"),
     "clarke-kkt suite: error: argument --sd-count: not a positive integer: '1.5'"),
    (("suite", "--seed", "1.5"), "clarke-kkt suite: error: argument --seed: not a nonnegative integer: '1.5'"),
]


@pytest.mark.parametrize("argv, message", REJECTED_OPTIONS,
                         ids=[f"argv{i}" for i in range(len(REJECTED_OPTIONS))])
def test_option_rejected_at_parse_time(argv, message, p3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(p3=p3_file) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_integer_option_of_any_size_is_accepted(p3_file, capsys):
    # an integer is checked as an integer, never through float arithmetic
    seed = "9" * 400
    code, out = run_cli(capsys, "analyze", p3_file, "--at", "0,0", "--seed", seed, "--json")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == int(seed)


@pytest.mark.parametrize("argv", [
    ("analyze", "{p3}", "--at", "0,0", "--seed", "-1"),
    ("suite", "--seed", "-1"),
    ("check-properties", "{p3}", "--at", "0,0", "--seed=-1"),
])
def test_negative_seed_rejected_at_parse_time(argv, p3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(p3=p3_file) for a in argv])
    assert exc.value.code == 2
    assert "error: argument --seed: not a nonnegative integer: '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "suite"])
def test_seed_env_negative_is_input_error(command, p3_file, capsys, monkeypatch):
    monkeypatch.setenv("CLARKE_KKT_SEED", "-2")
    argv = ["analyze", p3_file, "--at", "0,0"] if command == "analyze" else ["suite"]
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: CLARKE_KKT_SEED='-2' is not a nonnegative integer\n"


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
    assert payload["failed_stage"] == "feasibility"
    assert "division by zero" in payload["message"]


@pytest.mark.parametrize("text, at", [
    ("dim 1\nobjective abs(x1)\neq 1 / x1\n", "0"),
    ("dim 1\nobjective abs(x1)\nineq 1 / x1\n", "0"),
    ("dim 1\nobjective pow(x1, 400)\n", "10"),
])
def test_analyze_undefined_or_non_finite_at_point_is_feasibility_error(text, at, tmp_path, capsys):
    path = tmp_path / "undefined.prob"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), "--at", at, "--json")
    assert code == 2
    payload = _strict_json(out)
    assert payload["verdict"] == "error"
    assert payload["failed_stage"] == "feasibility"
    assert payload["cq"] is None and payload["certificate"] is None


@pytest.mark.parametrize("as_json", [True, False])
def test_analyze_non_finite_constraint_is_feasibility_error(as_json, tmp_path, capsys):
    path = tmp_path / "overflow.prob"
    path.write_text("dim 1\nobjective abs(x1)\neq pow(x1, 400) - 1\n", encoding="utf-8")
    argv = ["analyze", str(path), "--at", "10"] + (["--json"] if as_json else [])
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
    code, out = run_cli(capsys, "analyze", str(path), "--at", "10", "--json")
    assert code == 2
    assert _strict_json(out)["failed_stage"] == "feasibility"


def test_analyze_non_finite_jacobian_is_cq_stage_error(tmp_path, capsys):
    # finite at the point, but the derivative overflows: J2 = [[0, inf]]
    path = tmp_path / "jacobian.prob"
    path.write_text("dim 2\nobjective abs(x1)\nineq 1e200 * (1e200 * x2)\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), "--at", "0,0", "--json")
    assert code == 2
    payload = _strict_json(out)
    assert payload["verdict"] == "error"
    assert payload["failed_stage"] == "constraint_qualification"
    assert payload["message"] == "non-finite constraint Jacobian at the point"
    assert payload["cq"] is None and payload["certificate"] is None


def test_analyze_huge_inequality_row_is_not_stationary(tmp_path, capsys):
    # the row 1e160 squared overflows, but every decision reads its unit row:
    # x1 on 1e160 x1 <= 0 descends along -x1, so 0 is not stationary
    path = tmp_path / "slater.prob"
    path.write_text("dim 1\nobjective x1\nineq 1e160 * x1\n", encoding="utf-8")
    code = cli.main(["analyze", str(path), "--at", "0", "--json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 3
    payload = _strict_json(captured.out)
    assert payload["verdict"] == "not_stationary"
    assert payload["cq"]["slater_direction"] == [pytest.approx(-1e-160, rel=1e-15)]


def test_analyze_huge_gradients_print_no_warning(tmp_path, capsys):
    # sampled gradients of +-1e77: the step is taken on a scaled matrix
    path = tmp_path / "huge.prob"
    path.write_text("dim 1\nobjective 1e77 * abs(x1)\n", encoding="utf-8")
    code = cli.main(["analyze", str(path), "--at", "0", "--json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    # the residual is rounding measured against the absolute --eps-stat
    assert code == 3
    assert _strict_json(captured.out)["verdict"] == "not_stationary"


@pytest.mark.parametrize("point", ["-1e-3", "1e-3"])
def test_abs_near_its_kink_is_not_stationary_on_either_side(point, tmp_path, capsys):
    # both balls reach past the kink, but no draw at seed 42 lands there, and
    # the exact gradients at the draws are all -1 or all +1
    path = tmp_path / "abs.prob"
    path.write_text("dim 1\nobjective abs(x1)\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(path), f"--at={point}", "--seed", "42", "--json")
    assert code == 3
    assert json.loads(out)["certificate"]["residual"] == 1.0


def test_analyze_human_reports_lower_bound(p3_file, capsys):
    code, out = run_cli(capsys, "analyze", p3_file, "--at", "0,1")
    assert code == 3
    lines = out.splitlines()
    residual = next(i for i, line in enumerate(lines) if line.startswith("residual  : "))
    key, value = lines[residual + 1].split(":")
    assert key == "lower bnd "
    assert 0.1 < float(value) <= float(lines[residual].split(":")[1])


@pytest.mark.parametrize("command, at, code, message", [
    # pow overflows at the point, near it, and in the estimator's stepped points
    ("analyze", "10", 2, "feasibility: non-finite objective value at the point"),
    ("analyze", "5.868", 2, "multiplier_recovery: non-finite sampled gradient"),
    ("check-properties", "10", 2, None),
])
def test_overflow_leaves_stderr_empty(command, at, code, message, tmp_path, capsys):
    path = tmp_path / "overflow.prob"
    path.write_text("dim 1\nobjective pow(x1, 400)\n", encoding="utf-8")
    assert cli.main([command, str(path), "--at", at]) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.out == ""
        assert captured.err == "error: non-finite difference quotient in level sampling\n"
    else:
        assert f"failed at : {message}\n" in captured.out
        assert captured.out.endswith("verdict   : error\n")
        assert captured.err == ""


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_check_properties_scaled_overflow_exit_two(as_json, tmp_path, capsys):
    # every finest-level maximum is finite, but one times the norm of 10 * e_1 is not
    path = tmp_path / "overflow.prob"
    path.write_text("dim 1\nobjective pow(x1, 400)\n", encoding="utf-8")
    assert cli.main(["check-properties", str(path), "--at", "5.8", "--seed", "42"]
                    + ["--json"] * as_json) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite estimate when scaled by the direction norm\n"


def test_check_properties_ignores_a_coarse_level_it_does_not_report(tmp_path, capsys):
    # at 5.78 only the coarser levels' stepped points overflow pow; the checks
    # read the finest level alone and no longer sample the others
    path = tmp_path / "overflow.prob"
    path.write_text("dim 1\nobjective pow(x1, 400)\n", encoding="utf-8")
    assert cli.main(["check-properties", str(path), "--at", "5.78", "--seed", "42", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _strict_json(captured.out)["ok"] is True


# sha256 of `check-properties --json --seed 42`, without `timings`, at each
# suite minimizer, as written when every check made its own estimator call
PROPERTIES_SHA256 = {
    "P1": "f4ced208a13acbafbaf2dbaf640989e72daadc07bb53925bd4c864c5013727dd",
    "P2": "73e9a473988ff93554e19ee664f7b3558bb4b6306f1e600cf7d1818fee6e3e67",
    "P3": "33941f589100b9ce249e81ba11f1c97aa136d2e9776c7545e2e9e41db14eeeb1",
    "P4": "dfd5109d063dec6e513a5355b4904f6c794248d6baec0ef5b28a0809b6525c7a",
    "P5": "897707baa670d8e958271346784de05edf65666e6ec0f4e0dfa9d28921a6b752",
}


@pytest.mark.parametrize("entry", registry(), ids=lambda entry: entry.name)
def test_check_properties_json_is_pinned(entry, tmp_path, capsys):
    path = tmp_path / f"{entry.name}.prob"
    path.write_text(entry.problem_text, encoding="utf-8")
    at = ",".join(repr(v) for v in entry.minimizer)
    code, out = run_cli(capsys, "check-properties", str(path), f"--at={at}", "--seed", "42", "--json")
    assert code == 0
    payload = _strict_json(out)
    payload.pop("timings")
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == PROPERTIES_SHA256[entry.name]


def test_check_properties_division_by_zero_exit_two(tmp_path, capsys):
    path = tmp_path / "inv.prob"
    path.write_text("dim 1\nobjective 1 / x1\n", encoding="utf-8")
    code, out = run_cli(capsys, "check-properties", str(path), "--at", "0", "--json")
    assert code == 2
    assert out == ""


def _without_timings(out):
    if not out.startswith("{"):
        return out
    payload = json.loads(out)
    payload.pop("timings")
    return payload


def test_reused_parser_gives_the_outputs_of_a_new_one(p3_file, capsys):
    runs = [
        ["analyze", p3_file, "--at", "0,1", "--json"],
        ["analyze", p3_file, "--at", "0,0", "--levels", "3"],
        ["check-properties", p3_file, "--at", "0,0", "--json"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, _without_timings(captured.out), captured.err

    assert cli.build_parser() is cli.build_parser()
    reused = [run(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [3, 2, 0]
