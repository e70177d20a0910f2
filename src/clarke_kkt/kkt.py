"""Multiplier certificates and stationarity verdicts for nonsmooth problems.

The necessary conditions checked at a candidate point u0 are:

    0 in subdiff(F)(u0) + J1^T z1 + J2^T z2,   z2 >= 0,   <G2(u0), z2> = 0,

under the hypotheses that the equality Jacobian J1 has full row rank and a
strictly feasible direction exists for the active inequalities.  The
inclusion is certified by a structured least-squares residual over the
sampled subdifferential; z2 is structurally zero off the active set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CQIndeterminateError, ClarkeKKTError, EstimationFailureError, EvaluationDomainError
from .problem import (
    ProblemDefinition,
    as_point,
    default_step,
    eval_constraints,
    eval_objective,
    finite_diff_gradient_expr,
)
from .solver import slater_direction, solve_structured_ls
from .subdiff import SubdifferentialApprox, sample_subdifferential

DEFAULT_ACTIVE_TOL = 1e-6
DEFAULT_EPS_STAT = 1e-2
FEAS_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintQualificationReport:
    j1_rank: int
    j1_onto: bool
    slater_direction: Optional[np.ndarray]
    slater_ok: bool
    active_set: tuple
    jacobians: tuple  # (J1, J2) at the point, reused by multiplier recovery; not serialized

    def to_dict(self):
        return {
            "j1_rank": self.j1_rank,
            "j1_onto": self.j1_onto,
            "slater_direction": None if self.slater_direction is None else list(self.slater_direction),
            "slater_ok": self.slater_ok,
            "active_set": list(self.active_set),
        }


@dataclass(frozen=True)
class MultiplierCertificate:
    u_star: np.ndarray
    lam: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    residual: float
    slackness: float
    converged: bool

    def to_dict(self):
        return {
            "u_star": list(self.u_star),
            "lambda": list(self.lam),
            "z1": list(self.z1),
            "z2": list(self.z2),
            "residual": self.residual,
            "slackness": self.slackness,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class StationarityReport:
    feasibility: tuple  # (eq_norm, max_ineq_violation)
    cq: Optional[ConstraintQualificationReport]
    certificate: Optional[MultiplierCertificate]
    verdict: str  # stationary | not_stationary | cq_failed | infeasible | error
    failed_stage: Optional[str] = None
    message: Optional[str] = None

    def to_dict(self):
        # max_ineq_violation is -inf without inequalities, a constraint value
        # at the point may overflow, and both are nan when a constraint is
        # undefined there; JSON has no infinities or nans
        eq_norm, max_viol = (value if np.isfinite(value) else None for value in self.feasibility)
        return {
            "feasibility": {
                "eq_norm": eq_norm,
                "max_ineq_violation": max_viol,
            },
            "cq": None if self.cq is None else self.cq.to_dict(),
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "verdict": self.verdict,
            "failed_stage": self.failed_stage,
            "message": self.message,
        }


def jacobians(prob: ProblemDefinition, u):
    """(J1, J2): finite-difference Jacobians of the equality and inequality maps."""
    u = as_point(u, prob.n)
    h = default_step(u)
    J1 = np.zeros((prob.m, prob.n))
    J2 = np.zeros((prob.p, prob.n))
    for i, expr in enumerate(prob.eq):
        J1[i] = finite_diff_gradient_expr(expr, u, h)
    for i, expr in enumerate(prob.ineq):
        J2[i] = finite_diff_gradient_expr(expr, u, h)
    return J1, J2


def check_constraint_qualification(prob: ProblemDefinition, u0,
                                   active_tol=DEFAULT_ACTIVE_TOL) -> ConstraintQualificationReport:
    """Rank of J1, active inequality set, and a strictly feasible (Slater) direction.

    The Slater direction solves the LP: find phi with |phi|_inf <= SLATER_BOX_BOUND,
    J1 phi = 0 and (J2 phi)_i <= -1 on the active set, by projected-gradient
    feasibility minimization.  Empty active set makes the check vacuous.
    A non-finite Jacobian entry (a constraint whose stencil overflows) raises
    EstimationFailureError.
    """
    u0 = as_point(u0, prob.n)
    J1, J2 = jacobians(prob, u0)
    if not (np.all(np.isfinite(J1)) and np.all(np.isfinite(J2))):
        raise EstimationFailureError("non-finite constraint Jacobian at the point")
    if prob.m > 0:
        svals = np.linalg.svd(J1, compute_uv=False)
        smax = float(svals[0]) if svals.size else 0.0
        rank = int(np.sum(svals > 1e-8 * smax * max(prob.m, prob.n)))
    else:
        rank = 0
    j1_onto = rank == prob.m
    _, ineq_values = eval_constraints(prob, u0)
    active = tuple(i for i in range(prob.p) if ineq_values[i] >= -active_tol)
    if prob.p == 0 or not active:
        return ConstraintQualificationReport(rank, j1_onto, np.zeros(prob.n), True, active, (J1, J2))
    phi, converged = slater_direction(J1, J2[list(active)])
    if not converged:
        raise CQIndeterminateError("Slater LP solve did not converge")
    eq_ok = prob.m == 0 or float(np.max(np.abs(J1 @ phi))) <= 1e-8
    ineq_ok = bool(np.all(J2[list(active)] @ phi <= -1.0 + 1e-8))
    slater_ok = eq_ok and ineq_ok
    return ConstraintQualificationReport(rank, j1_onto, phi if slater_ok else None, slater_ok,
                                         active, (J1, J2))


def recover_multipliers(prob: ProblemDefinition, u0, sd: SubdifferentialApprox,
                        J1, J2, active_set) -> MultiplierCertificate:
    """Best multiplier certificate over the sampled subdifferential hull.

    Minimizes ||G lam + J1^T z1 + J2^T z2|| with lam on the simplex, z1
    free, z2 >= 0 and structurally zero off the active set; slackness is
    computed exactly from z2 and the inequality values at u0.
    """
    u0 = as_point(u0, prob.n)
    G = np.asarray(sd.points, dtype=float).T  # n x k
    if G.shape[1] < 1:
        raise ValueError("empty subdifferential sample")
    active_set = tuple(active_set)
    J2a = np.asarray(J2, dtype=float).reshape(prob.p, prob.n)[list(active_set)]
    result = solve_structured_ls(G, J1, J2a)
    z2 = np.zeros(prob.p)
    z2[list(active_set)] = result.z2_active
    u_star = G @ result.lam
    J1 = np.asarray(J1, dtype=float).reshape(prob.m, prob.n)
    J2 = np.asarray(J2, dtype=float).reshape(prob.p, prob.n)
    residual = float(np.linalg.norm(u_star + J1.T @ result.z1 + J2.T @ z2))
    _, ineq_values = eval_constraints(prob, u0)
    slackness = float(ineq_values @ z2) if prob.p else 0.0
    return MultiplierCertificate(u_star, result.lam, result.z1, z2, residual, slackness, result.converged)


def verify_stationarity(prob: ProblemDefinition, u0, eps_stat=DEFAULT_EPS_STAT,
                        active_tol=DEFAULT_ACTIVE_TOL, seed=42, sd_radius=None,
                        sd_count=None) -> StationarityReport:
    """Full pipeline: feasibility, constraint qualification, subdifferential
    sampling, multiplier recovery, verdict.

    Equality-only problems skip the Slater check (it is vacuous for them).
    An objective or constraint that is undefined (a domain error) or
    non-finite at u0 is a feasibility-stage error.
    A stage failure is recorded in the report, never silently dropped.
    """
    u0 = as_point(u0, prob.n)
    feasibility = (np.nan, np.nan)  # unknown until the constraints evaluate
    try:
        eq_values, ineq_values = eval_constraints(prob, u0)
        eq_norm = float(np.max(np.abs(eq_values), initial=0.0))
        max_viol = float(np.max(ineq_values, initial=-np.inf)) if prob.p else -np.inf
        feasibility = (eq_norm, max_viol)
        objective_value = eval_objective(prob, u0)
    except EvaluationDomainError as exc:
        return StationarityReport(feasibility, None, None, "error", failed_stage="feasibility",
                                  message=str(exc))
    for kind, values in (("equality constraint", eq_values), ("inequality constraint", ineq_values),
                         ("objective", objective_value)):
        if not np.all(np.isfinite(values)):
            return StationarityReport(feasibility, None, None, "error", failed_stage="feasibility",
                                      message=f"non-finite {kind} value at the point")
    if eq_norm > FEAS_TOL or (prob.p and max_viol > FEAS_TOL):
        return StationarityReport(feasibility, None, None, "infeasible")
    try:
        cq = check_constraint_qualification(prob, u0, active_tol=active_tol)
    except ClarkeKKTError as exc:
        return StationarityReport(feasibility, None, None, "error",
                                  failed_stage="constraint_qualification", message=str(exc))
    if not cq.j1_onto or not cq.slater_ok:
        return StationarityReport(feasibility, cq, None, "cq_failed")
    try:
        sd = sample_subdifferential(prob, u0, radius=sd_radius, k=sd_count, seed=seed)
        certificate = recover_multipliers(prob, u0, sd, *cq.jacobians, cq.active_set)
    except ClarkeKKTError as exc:
        return StationarityReport(feasibility, cq, None, "error",
                                  failed_stage="multiplier_recovery", message=str(exc))
    verdict = "stationary" if certificate.residual <= eps_stat else "not_stationary"
    return StationarityReport(feasibility, cq, certificate, verdict)
