"""Jacobians, constraint qualification, multiplier recovery, verdicts."""
import numpy as np
import pytest

from clarke_kkt.kkt import (
    check_constraint_qualification,
    jacobians,
    recover_multipliers,
    verify_stationarity,
)
from clarke_kkt.problem import parse_problem
from clarke_kkt.subdiff import sample_subdifferential

P2_TEXT = "name P2\ndim 2\nobjective max(x1, x2)\neq x1 + x2\n"
P3_TEXT = "name P3\ndim 2\nobjective abs(x1) + x2\nineq -x2\n"


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


def test_cq_inactive_inequality_is_vacuous():
    prob = parse_problem(P3_TEXT)
    cq = check_constraint_qualification(prob, [0.0, 1.0])
    assert cq.active_set == ()
    assert cq.slater_ok


# --- multiplier recovery ----------------------------------------------------

def test_recover_p2():
    prob = parse_problem(P2_TEXT)
    u0 = np.zeros(2)
    sd = sample_subdifferential(prob, u0, seed=42)
    J1, J2 = jacobians(prob, u0)
    cert = recover_multipliers(prob, u0, sd, J1, J2, ())
    assert cert.residual <= 1e-3
    assert cert.z1[0] == pytest.approx(-0.5, abs=0.05)
    np.testing.assert_allclose(cert.u_star, [0.5, 0.5], atol=0.05)


def test_recover_p3():
    prob = parse_problem(P3_TEXT)
    u0 = np.zeros(2)
    sd = sample_subdifferential(prob, u0, seed=42)
    J1, J2 = jacobians(prob, u0)
    cert = recover_multipliers(prob, u0, sd, J1, J2, (0,))
    assert cert.residual <= 1e-3
    assert cert.z2[0] == pytest.approx(1.0, abs=0.05)
    assert cert.slackness == 0.0
    assert np.all(cert.z2 >= -1e-12)


def test_recover_unconstrained_abs_off_kink():
    prob = parse_problem("dim 1\nobjective abs(x1)")
    u0 = np.array([0.5])
    sd = sample_subdifferential(prob, u0, seed=42)
    J1, J2 = jacobians(prob, u0)
    cert = recover_multipliers(prob, u0, sd, J1, J2, ())
    assert cert.residual == pytest.approx(1.0, abs=0.05)


def test_certificate_invariants():
    prob = parse_problem(P3_TEXT)
    u0 = np.zeros(2)
    sd = sample_subdifferential(prob, u0, seed=1)
    J1, J2 = jacobians(prob, u0)
    cert = recover_multipliers(prob, u0, sd, J1, J2, (0,))
    assert np.all(cert.lam >= -1e-12)
    assert abs(cert.lam.sum() - 1.0) <= 1e-12
    assert cert.residual >= 0.0


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


def test_non_finite_jacobian_is_cq_stage_error():
    # finite at the point, but the stencil of x2**2 overflows: J2 = [[0, inf]]
    prob = parse_problem("dim 2\nobjective abs(x1)\nineq pow(x2, 2) - 1.7976931348623157e308")
    point = [0.0, 1.3407807929942596e154]
    assert not np.all(np.isfinite(jacobians(prob, point)[1]))
    report = verify_stationarity(prob, point)
    assert report.verdict == "error"
    assert report.failed_stage == "constraint_qualification"
    assert report.message == "non-finite constraint Jacobian at the point"
    assert report.cq is None and report.certificate is None
