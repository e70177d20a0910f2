"""Jacobians, constraint qualification, multiplier certificates, verdicts."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clarke_kkt import kkt, solver
from clarke_kkt.kkt import check_constraint_qualification, jacobians, verify_stationarity
from clarke_kkt.problem import parse_problem
from clarke_kkt.suite import family_probe, family_text, registry

P2_TEXT, P3_TEXT, P4_TEXT = (entry.problem_text for entry in registry()[1:4])


def test_jacobians_linear():
    prob = parse_problem("dim 2\nobjective x1\neq x1 + x2\nineq -x2")
    J1, J2 = jacobians(prob, [0.3, -0.3])
    np.testing.assert_allclose(J1, [[1.0, 1.0]], atol=1e-9)
    np.testing.assert_allclose(J2, [[0.0, -1.0]], atol=1e-9)


def test_jacobians_empty_shapes():
    prob = parse_problem("dim 3\nobjective x1")
    J1, J2 = jacobians(prob, [0.0, 0.0, 0.0])
    assert J1.shape == (0, 3)
    assert J2.shape == (0, 3)


# --- constraint qualification ----------------------------------------------

def test_cq_full_rank_equality_only():
    prob = parse_problem("dim 2\nobjective x1\neq x1 + x2")
    cq = check_constraint_qualification(prob, [0.0, 0.0])
    assert cq.j1_rank == 1
    assert cq.j1_onto
    assert cq.slater_ok
    np.testing.assert_array_equal(cq.slater_direction, np.zeros(2))


def test_cq_dependent_rows():
    prob = parse_problem("dim 2\nobjective x1\neq x1\neq 2 * x1")
    cq = check_constraint_qualification(prob, [0.0, 0.0])
    assert cq.j1_rank == 1
    assert not cq.j1_onto


def test_cq_slater_direction_for_active_inequality():
    prob = parse_problem(P3_TEXT)
    cq = check_constraint_qualification(prob, [0.0, 0.0])
    assert cq.active_set == (0,)
    assert cq.slater_ok
    # J2 phi = -phi_2 <= -1 requires phi_2 >= 1
    assert cq.slater_direction[1] >= 1.0 - 1e-8


def test_slater_direction_for_rows_of_very_different_scale():
    # rows 80x apart in scale: a direction needs phi >= 50 for the small one
    prob = parse_problem("dim 1\nobjective x1\nineq -0.02 * x1\nineq -1.6 * x1\n")
    report = verify_stationarity(prob, [0.0])
    assert report.verdict == "stationary"
    assert report.cq.slater_ok
    assert report.cq.slater_direction[0] == pytest.approx(50.0)
    assert np.all(report.certificate.z2 >= 0.0)


def test_slater_direction_of_small_rows():
    # the min-norm direction -a/|a|^2 meets the raw row with a.phi = -1,
    # however long it is (|phi_1| is about 1067 here)
    prob = parse_problem("dim 2\nobjective -0.0008 * x1 - 0.000331 * x2\n"
                         "ineq 0.0008 * x1 + 0.000331 * x2\n")
    report = verify_stationarity(prob, [0.0, 0.0])
    assert report.verdict == "stationary"
    assert report.cq.slater_ok
    assert np.all(jacobians(prob, [0.0, 0.0])[1] @ report.cq.slater_direction <= -1.0)


# --- scale: g <= 0 and c g <= 0 (c > 0) are one constraint -------------------

@pytest.mark.parametrize("c", ["1", "1e-3", "1e-4", "1e-8", "1e160"])
def test_scaled_inequality_keeps_the_minimizer_stationary(c):
    # the minimizer 0 of -x1 on c x1 <= 0, with z2 = 1/c
    report = verify_stationarity(parse_problem(f"dim 1\nobjective -x1\nineq {c} * x1\n"), [0.0])
    assert report.verdict == "stationary"
    assert abs(float(c) * report.certificate.z2[0] - 1.0) <= 1e-6


def test_slater_box_corner_is_stationary():
    # on unit rows the best uniform descent rate of a unit direction is 0.98
    prob = parse_problem("dim 2\nobjective -0.0006 * x1 - 0.0006 * x2\n"
                         "ineq 0.0006 * x1 + 0.0006 * x2\nineq 0.0007 * x1 + 0.0003 * x2\n")
    report = verify_stationarity(prob, [0.0, 0.0])
    assert report.verdict == "stationary"
    assert np.all(jacobians(prob, [0.0, 0.0])[1] @ report.cq.slater_direction <= -1.0 + 1e-12)


SCALE_CASES = {  # problem text, minimizer, probe
    "P3": (P3_TEXT, [0.0, 0.0], [0.0, 1.0]),
    "B5": (family_text("B", 5), [0.0] * 5, family_probe("B", 5)),
    "E5": (family_text("E", 5), [0.0] * 5, family_probe("E", 5)),
}


def test_activity_is_a_distance_to_the_boundary():
    # 1e-6 * (-x5) = -7e-7 lies 0.7 from its boundary: inactive, so the B5
    # probe keeps its gradient (0, 0, 0, 0, 1) against no multiplier
    text, _, probe = SCALE_CASES["B5"]
    report = verify_stationarity(parse_problem(text.replace("ineq -x5", "ineq 1e-6 * (-x5)")), probe)
    assert report.cq.active_set == ()
    assert report.verdict == "not_stationary"


def test_feasibility_is_a_distance_to_the_boundary():
    # 1e-6 * (x1 - 1) = 4e-7 at 1.4, under FEAS_TOL, but 0.4 past the boundary
    report = verify_stationarity(parse_problem("dim 1\nobjective -x1\nineq 1e-6 * (x1 - 1)\n"), [1.4])
    assert report.verdict == "infeasible"
    assert report.feasibility[1] == pytest.approx(4e-7)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SCALE_CASES)), st.booleans(),
       st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=2))
def test_verdict_does_not_move_when_an_inequality_is_scaled(name, at_probe, exponents):
    text, minimizer, probe = SCALE_CASES[name]
    point = probe if at_probe else minimizer
    lines = iter(exponents)
    scaled = "".join(f"ineq {10.0 ** next(lines)!r} * ({line[5:]})\n" if line.startswith("ineq ")
                     else line + "\n" for line in text.splitlines())
    expected = "not_stationary" if at_probe else "stationary"
    assert verify_stationarity(parse_problem(text), point).verdict == expected
    assert verify_stationarity(parse_problem(scaled), point).verdict == expected


@pytest.mark.parametrize("text, point", [
    ("dim 1\nobjective x1\nineq abs(x1)\n", [0.0]),  # feasible set {0}: no Slater direction
    ("dim 2\nobjective x1 + x2\neq abs(x1) + x2\n", [0.0, 0.0]),
])
def test_constraint_with_a_kink_at_the_point_fails_the_cq(text, point):
    # the Jacobian row is one piece's gradient there, which proves nothing
    report = verify_stationarity(parse_problem(text), point)
    assert report.verdict == "cq_failed"
    assert report.certificate is None
    assert not report.cq.kink_free and report.cq.to_dict()["kink_free"] is False


def test_kink_of_an_inactive_inequality_leaves_the_cq_alone():
    prob = parse_problem("dim 1\nobjective x1\nineq abs(x1) - 1\nineq max(x1, -x1) - 1\n")
    cq = check_constraint_qualification(prob, [0.0])
    assert cq.active_set == () and cq.kink_free
    assert check_constraint_qualification(prob, [1.0]).active_set == (0, 1)
    assert check_constraint_qualification(prob, [1.0]).kink_free


def test_cq_walks_each_constraint_tree_once(monkeypatch):
    # m = 2 equalities and p = 3 inequalities; the last two are inactive, and the
    # kink of the second does not count
    prob = parse_problem("dim 3\nobjective abs(x1)\neq x1 + x2 + x3\neq x1 - x2\n"
                         "ineq -x1\nineq max(x2, -x2) - 1\nineq x3 - 5\n")
    point = [0.0, 0.0, 0.0]
    walked = []
    walk = kkt.evaluate_with_kinks

    def counting(expr, points):
        walked.append(expr)
        return walk(expr, points)

    def forbidden(*args, **kwargs):
        raise AssertionError("the qualification check reads the constraints again")

    monkeypatch.setattr(kkt, "evaluate_with_kinks", counting)
    monkeypatch.setattr(kkt, "jacobians", forbidden)
    cq = check_constraint_qualification(prob, point)
    assert walked == list(prob.eq + prob.ineq)
    assert cq.active_set == (0,) and cq.kink_free and cq.j1_rank == 2
    # the whole verdict, feasibility and multiplier solve included, walks them once too
    walked.clear()
    report = verify_stationarity(prob, point)
    assert walked == list(prob.eq + prob.ineq) and len(walked) == prob.m + prob.p == 5
    assert report.cq.to_dict() == cq.to_dict()
    assert report.certificate is not None


def test_cq_inactive_inequality_is_vacuous():
    prob = parse_problem(P3_TEXT)
    cq = check_constraint_qualification(prob, [0.0, 1.0])
    assert cq.active_set == ()
    assert cq.slater_ok


# --- multiplier certificates -------------------------------------------------

def test_recover_p2():
    prob = parse_problem(P2_TEXT)
    cert = verify_stationarity(prob, np.zeros(2), seed=42).certificate
    assert cert.residual <= 1e-3
    assert cert.z1[0] == pytest.approx(-0.5, abs=0.05)
    np.testing.assert_allclose(cert.u_star, [0.5, 0.5], atol=0.05)


def test_recover_p3():
    prob = parse_problem(P3_TEXT)
    report = verify_stationarity(prob, np.zeros(2), seed=42)
    cert = report.certificate
    assert report.cq.active_set == (0,)
    assert cert.residual <= 1e-3
    assert cert.z2[0] == pytest.approx(1.0, abs=0.05)
    assert cert.slackness == 0.0
    assert np.all(cert.z2 >= -1e-12)


def test_recover_unconstrained_abs_off_kink():
    prob = parse_problem("dim 1\nobjective abs(x1)")
    cert = verify_stationarity(prob, np.array([0.5]), seed=42).certificate
    assert cert.residual == pytest.approx(1.0, abs=0.05)


def test_certificate_invariants():
    prob = parse_problem(P3_TEXT)
    report = verify_stationarity(prob, np.zeros(2), seed=1)
    cert = report.certificate
    assert report.cq.active_set == (0,)
    assert np.all(cert.lam >= -1e-12)
    assert abs(cert.lam.sum() - 1.0) <= 1e-12
    assert cert.residual >= 0.0
    assert cert.residual_lower_bound <= cert.residual


# --- verdicts ---------------------------------------------------------------

def test_verdict_stationary_p2():
    prob = parse_problem(P2_TEXT)
    report = verify_stationarity(prob, [0.0, 0.0])
    assert report.verdict == "stationary"


def test_verdict_not_stationary_p2_probe():
    # smooth there with gradient (1,0); min_z1 |(1,0)+z1(1,1)| = 1/sqrt(2)
    prob = parse_problem(P2_TEXT)
    report = verify_stationarity(prob, [1.0, -1.0])
    assert report.verdict == "not_stationary"
    assert report.certificate.residual >= 0.1


def test_verdict_infeasible():
    prob = parse_problem(P2_TEXT)
    report = verify_stationarity(prob, [1.0, 0.0])
    assert report.verdict == "infeasible"
    assert report.certificate is None


def test_verdict_cq_failed_dependent_rows():
    prob = parse_problem("dim 2\nobjective abs(x1)\neq x1\neq 2 * x1")
    report = verify_stationarity(prob, [0.0, 0.0])
    assert report.verdict == "cq_failed"


def test_verdict_stationary_requires_residual_bound():
    prob = parse_problem(P2_TEXT)
    report = verify_stationarity(prob, [0.0, 0.0])
    assert report.certificate.residual <= 1e-2
    assert report.feasibility[0] <= 1e-6


# kind: (point, message, eq_norm as written to JSON)
FEASIBILITY_ERRORS = {
    "equality": ([10.0], "non-finite equality constraint value at the point", None),
    "inequality": ([10.0], "non-finite inequality constraint value at the point", 0.0),
    "objective": ([10.0], "non-finite objective value at the point", 0.0),
    "undefined equality": ([0.0], "division by zero during evaluation", None),
    "undefined inequality": ([0.0], "division by zero during evaluation", None),
    "undefined objective": ([0.0], "division by zero during evaluation", 0.0),
}


@pytest.mark.parametrize("text, kind", [
    ("dim 1\nobjective abs(x1)\neq pow(x1, 400) - 1", "equality"),
    ("dim 1\nobjective abs(x1)\nineq pow(x1, 400) - pow(x1, 400)", "inequality"),
    ("dim 1\nobjective pow(x1, 400)", "objective"),
    ("dim 1\nobjective abs(x1)\neq 1 / x1", "undefined equality"),
    ("dim 1\nobjective abs(x1)\nineq 1 / x1", "undefined inequality"),
    ("dim 1\nobjective 1 / x1", "undefined objective"),
])
def test_verdict_error_on_non_finite_constraint_value(text, kind):
    # pow overflows to inf at 10 (and inf - inf is nan), and 1 / x1 is
    # undefined at 0: the point's feasibility is unknown, not infeasible
    point, message, eq_norm = FEASIBILITY_ERRORS[kind]
    prob = parse_problem(text)
    report = verify_stationarity(prob, point)
    assert report.verdict == "error"
    assert report.failed_stage == "feasibility"
    assert report.message == message
    assert report.cq is None and report.certificate is None
    assert report.to_dict()["feasibility"] == {"eq_norm": eq_norm, "max_ineq_violation": None}


def test_diverging_multiplier_solve_is_a_recovery_stage_error(monkeypatch):
    # 2.5 times the solver's step diverges along the free z1 of P4's equality
    # row; the objective guard turns that into a verdict, not a traceback
    true_step = solver.spectral_upper_step
    monkeypatch.setattr(solver, "spectral_upper_step", lambda H: 2.5 * true_step(H))
    report = verify_stationarity(parse_problem("dim 2\nobjective 0.1 * x1\neq x1 + x2"), [0.0, 0.0])
    assert report.verdict == "error"
    assert report.failed_stage == "multiplier_recovery"
    assert "objective increased" in report.message
    # a late failure keeps the stages that passed
    assert report.cq is not None and report.certificate is None


def test_undecided_slater_solve_is_cq_stage_error(monkeypatch):
    # a capped Slater solve that neither finds a direction nor rules one out
    monkeypatch.setattr(kkt, "slater_direction", lambda J1, J2_active: (np.zeros(J1.shape[1]), False))
    report = verify_stationarity(parse_problem(P3_TEXT), [0.0, 0.0])
    assert report.verdict == "error"
    assert report.failed_stage == "constraint_qualification"
    assert report.message == "Slater solve did not converge"
    assert report.cq is None and report.certificate is None


def test_non_finite_jacobian_is_cq_stage_error():
    # finite at the point, but the derivative overflows: J2 = [[0, inf]]
    prob = parse_problem("dim 2\nobjective abs(x1)\nineq 1e200 * (1e200 * x2)")
    point = [0.0, 0.0]
    assert not np.all(np.isfinite(jacobians(prob, point)[1]))
    report = verify_stationarity(prob, point)
    assert report.verdict == "error"
    assert report.failed_stage == "constraint_qualification"
    assert report.message == "non-finite constraint Jacobian at the point"
    assert report.cq is None and report.certificate is None


# --- proven not_stationary: the residual lower bound ---------------------------

def verify_with_solve(monkeypatch, prob, u, **kwargs):
    """verify_stationarity, and the StructuredLSResult of its multiplier solve."""
    results = []
    solve = kkt.solve_structured_ls

    def recording(*args, **solve_kwargs):
        results.append(solve(*args, **solve_kwargs))
        return results[-1]

    monkeypatch.setattr(kkt, "solve_structured_ls", recording)
    report = verify_stationarity(prob, u, **kwargs)
    assert len(results) == 1
    return report, results[0]


@pytest.mark.parametrize("n", [5, 20, 50])
@pytest.mark.parametrize("family", ["Q", "A"])
def test_not_stationary_is_proven_early(family, n, monkeypatch):
    # at e_i - e_j the Q_n gradient g = 2(u - 1) is the whole subdifferential and
    # the best z1 removes its mean; the A_n subgradients have s_i = 1, s_j = -1,
    # so (1 + z1)^2 + (z1 - 1)^2 >= 2 bounds the residual below by sqrt(2)
    u = np.zeros(n)
    u[1], u[3] = 1.0, -1.0
    g = 2.0 * (u - 1.0)
    floor = np.linalg.norm(g - g.mean()) if family == "Q" else np.sqrt(2.0)
    report, solve = verify_with_solve(monkeypatch, parse_problem(family_text(family, n)), u)
    cert = report.certificate
    assert report.verdict == "not_stationary"
    assert solve.iterations <= 5000
    assert kkt.DEFAULT_EPS_STAT < cert.residual_lower_bound <= cert.residual
    assert cert.residual <= 1.001 * cert.residual_lower_bound
    assert cert.residual >= 0.8 * floor


@pytest.mark.parametrize("text, u, eps_stat", [
    (family_text("Q", 5), np.zeros(5), kkt.DEFAULT_EPS_STAT),
    (P4_TEXT, np.array([0.5, -0.5]), 1e-4),
], ids=["Q5_at_0", "P4_at_minimizer"])
def test_stationary_points_prove_no_bound(text, u, eps_stat, monkeypatch):
    # both points are stationary, so no bound may exceed 0; the projected-
    # gradient solve still runs to its cap here (an exact solver would not)
    report, solve = verify_with_solve(monkeypatch, parse_problem(text), u, eps_stat=eps_stat)
    assert report.certificate.residual_lower_bound == 0.0
    assert solve.iterations == 50000 and not solve.converged
