"""Multiplier certificates and stationarity verdicts for nonsmooth problems.

The necessary conditions checked at a candidate point u0 are:

    0 in subdiff(F)(u0) + J1^T z1 + J2^T z2,   z2 >= 0,   <G2(u0), z2> = 0,

under the hypotheses that the equality Jacobian J1 has full row rank and a
strictly feasible direction exists for the active inequalities.  The
inclusion is certified by a structured least-squares residual over the
sampled subdifferential; z2 is structurally zero off the active set.
g <= 0 and c g <= 0 (c > 0) are one constraint, so activity and feasibility
read the first-order distance g / |grad g|, and the Slater check and the
multiplier solve read unit rows grad g / |grad g|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CQIndeterminateError, ClarkeKKTError, EstimationFailureError, EvaluationDomainError
from .gendir import GenDirConfig
from .expressions import evaluate_with_kinks
from .problem import ProblemDefinition, as_point, eval_objective
from .solver import slater_direction, solve_structured_ls, unit_rows
from .subdiff import sample_subdifferential

DEFAULT_ACTIVE_TOL = 1e-6
DEFAULT_EPS_STAT = 1e-2
FEAS_TOL = 1e-6  # first-order distance |h| / |grad h| or g / |grad g|


@dataclass(frozen=True)
class ConstraintQualificationReport:
    j1_rank: int
    j1_onto: bool
    slater_direction: Optional[np.ndarray]
    slater_ok: bool
    active_set: tuple
    kink_free: bool  # no equality or active inequality has a kink at the point
    jacobians: tuple  # (J1, J2) at the point, reused by multiplier recovery; not serialized

    def to_dict(self):
        return {
            "j1_rank": self.j1_rank,
            "j1_onto": self.j1_onto,
            "slater_direction": None if self.slater_direction is None else list(self.slater_direction),
            "slater_ok": self.slater_ok,
            "active_set": list(self.active_set),
            "kink_free": self.kink_free,
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
    residual_lower_bound: float  # proven: no multipliers reach a smaller residual

    def to_dict(self):
        return {
            "u_star": list(self.u_star),
            "lambda": list(self.lam),
            "z1": list(self.z1),
            "z2": list(self.z2),
            "residual": self.residual,
            "slackness": self.slackness,
            "converged": self.converged,
            "residual_lower_bound": self.residual_lower_bound,
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


def constraint_walk(prob: ProblemDefinition, u):
    """Values (m + p,), exact Jacobian rows (m + p, n) and kink marks (m + p,)
    of the equality then the inequality constraints at u, from one
    evaluate_with_kinks call per constraint tree.  The values are bitwise
    those of eval_constraints."""
    u = as_point(u, prob.n)[None]
    walks = [evaluate_with_kinks(expr, u) for expr in prob.eq + prob.ineq]
    return (np.array([values[0] for values, _, _ in walks]),
            np.reshape([rows[0] for _, rows, _ in walks], (len(walks), prob.n)),
            np.array([kinked[0] for _, _, kinked in walks], dtype=bool))


def jacobians(prob: ProblemDefinition, u):
    """(J1, J2): exact Jacobians of the equality and inequality maps at u,
    each row the gradient of its constraint's expression tree (tie rules as
    in evaluate_with_gradient); the rows of constraint_walk, split.  The
    pipeline reads constraint_walk directly and does not call this."""
    J = constraint_walk(prob, u)[1]
    return J[:prob.m], J[prob.m:]


def check_constraint_qualification(prob: ProblemDefinition, u0,
                                   active_tol=DEFAULT_ACTIVE_TOL) -> ConstraintQualificationReport:
    """Rank of J1, active inequality set, and a strictly feasible (Slater) direction.

    The Jacobians, the inequality values that decide the active set
    (g_i >= -active_tol |grad g_i|) and the kink marks all come from one
    constraint_walk at u0.  The Slater direction phi has J1 phi = 0 and
    (J2 phi)_i <= -1 on the active set (see slater_direction); a capped solve
    that decides neither way raises CQIndeterminateError.
    Empty active set makes the check vacuous.  An equality or active
    inequality with a kink at the point (see evaluate_with_kinks) has a
    one-piece Jacobian row that proves nothing: kink_free is False.  A non-finite
    Jacobian entry (an overflowing derivative) raises EstimationFailureError.
    """
    u0 = as_point(u0, prob.n)
    values, J, kinked = constraint_walk(prob, u0)
    if not np.all(np.isfinite(J)):
        raise EstimationFailureError("non-finite constraint Jacobian at the point")
    J1, J2 = J[:prob.m], J[prob.m:]
    svals = np.linalg.svd(J1, compute_uv=False)  # empty without equalities
    rank = int(np.sum(svals > 1e-8 * np.max(svals, initial=0.0) * max(prob.m, prob.n)))
    j1_onto = rank == prob.m
    active = tuple(np.flatnonzero(values[prob.m:] >= -active_tol * unit_rows(J2)[1]).tolist())
    kink_free = not (np.any(kinked[:prob.m]) or np.any(kinked[prob.m:][list(active)]))
    if not active:
        return ConstraintQualificationReport(rank, j1_onto, np.zeros(prob.n), True, active, kink_free, (J1, J2))
    phi, converged = slater_direction(J1, J2[list(active)])
    if not converged:
        raise CQIndeterminateError("Slater solve did not converge")
    # |J1_j phi| <= 1e-8 |J1_j| |phi|, on unit vectors so that nothing overflows
    eq_ok = bool(np.all(np.abs(unit_rows(J1)[0] @ unit_rows(phi[None])[0][0]) <= 1e-8))
    ineq_ok = bool(np.all(J2[list(active)] @ phi <= -1.0 + 1e-8))
    slater_ok = eq_ok and ineq_ok
    return ConstraintQualificationReport(rank, j1_onto, phi if slater_ok else None, slater_ok,
                                         active, kink_free, (J1, J2))


def verify_stationarity(prob: ProblemDefinition, u0, eps_stat=DEFAULT_EPS_STAT,
                        active_tol=DEFAULT_ACTIVE_TOL, seed=GenDirConfig.seed, sd_radius=None,
                        sd_count=None) -> StationarityReport:
    """Full pipeline: feasibility, constraint qualification, subdifferential
    sampling, multiplier recovery, verdict.

    Infeasible iff some |h_j| > FEAS_TOL |grad h_j| or g_i > FEAS_TOL |grad g_i|
    (a non-finite row counts as infinitely steep: the CQ check rejects it).
    Equality-only problems skip the Slater check (it is vacuous for them).
    The multiplier solve stops once its residual_lower_bound proves the
    residual exceeds eps_stat (see solve_structured_ls).
    An objective or constraint that is undefined (a domain error) or
    non-finite at u0 is a feasibility-stage error.
    A stage failure is recorded in the report, never silently dropped.
    """
    u0 = as_point(u0, prob.n)
    feasibility = (np.nan, np.nan)  # unknown until the constraints evaluate
    try:
        values, J, _ = constraint_walk(prob, u0)
        eq_values, ineq_values = values[:prob.m], values[prob.m:]
        eq_norm = float(np.max(np.abs(eq_values), initial=0.0))
        max_viol = float(np.max(ineq_values, initial=-np.inf))
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
    tolerance = FEAS_TOL * unit_rows(J)[1]
    if np.any(np.abs(eq_values) > tolerance[:prob.m]) or np.any(ineq_values > tolerance[prob.m:]):
        return StationarityReport(feasibility, None, None, "infeasible")
    try:
        cq = check_constraint_qualification(prob, u0, active_tol=active_tol)
    except ClarkeKKTError as exc:
        return StationarityReport(feasibility, None, None, "error",
                                  failed_stage="constraint_qualification", message=str(exc))
    if not (cq.j1_onto and cq.slater_ok and cq.kink_free):
        return StationarityReport(feasibility, cq, None, "cq_failed")
    J1, J2 = cq.jacobians
    active = list(cq.active_set)
    try:
        sample = sample_subdifferential(prob, u0, radius=sd_radius, k=sd_count, seed=seed)
        G = sample.points.T  # n x k, the sampled gradients
        unit, norms = unit_rows(J2[active])
        result = solve_structured_ls(G, J1, unit, stop_above=eps_stat)
    except ClarkeKKTError as exc:
        return StationarityReport(feasibility, cq, None, "error",
                                  failed_stage="multiplier_recovery", message=str(exc))
    z2 = np.zeros(prob.p)
    z2[active] = result.z2_active / norms
    slackness = float(ineq_values @ z2)
    certificate = MultiplierCertificate(G @ result.lam, result.lam, result.z1, z2, result.residual,
                                        slackness, result.converged, result.lower_bound)
    verdict = "stationary" if result.residual <= eps_stat else "not_stationary"
    return StationarityReport(feasibility, cq, certificate, verdict)
