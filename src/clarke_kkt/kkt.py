"""Multiplier certificates and stationarity verdicts for nonsmooth problems.

The necessary conditions checked at a candidate point u0 are:

    0 in subdiff(F)(u0) + J1^T z1 + J2^T z2,   z2 >= 0,   <G2(u0), z2> = 0,

under the hypotheses that the equality Jacobian J1 has full row rank and a
strictly feasible direction exists for the active inequalities.  The
inclusion is certified by a structured least-squares residual over the
sampled subdifferential; z2 is structurally zero off the active set.
g <= 0 and c g <= 0 (c > 0) are one constraint, so activity and feasibility
read the first-order distance g / |grad g|, and the Slater check and the
multiplier solve read unit rows grad g / |grad g|.  A verdict walks each
constraint tree once, times each stage it runs, and every stage error
reaches its report through one handler.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import CQIndeterminateError, ClarkeKKTError, EstimationFailureError
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
    slater_direction: np.ndarray | None
    slater_ok: bool
    active_set: tuple
    kink_free: bool  # no equality or active inequality has a kink at the point

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
    cq: ConstraintQualificationReport | None
    certificate: MultiplierCertificate | None
    verdict: str  # stationary | not_stationary | cq_failed | infeasible | error
    failed_stage: str | None = None
    message: str | None = None
    stage_s: dict = field(default_factory=dict, compare=False)  # seconds per stage run; not in to_dict

    def to_dict(self):
        # max_ineq_violation is -inf without inequalities, a constraint value
        # at the point may overflow, and both are nan when a constraint is
        # undefined there; JSON has no infinities or nans
        eq_norm, max_viol = (value if np.isfinite(value) else None for value in self.feasibility)
        return {
            "feasibility": {"eq_norm": eq_norm, "max_ineq_violation": max_viol},
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
    those of evaluate at u."""
    u = as_point(u, prob.n)[None]
    walks = [evaluate_with_kinks(expr, u) for expr in prob.eq + prob.ineq]
    return (np.array([values[0] for values, _, _ in walks]),
            np.reshape([rows[0] for _, rows, _ in walks], (len(walks), prob.n)),
            np.array([kinked[0] for _, _, kinked in walks], dtype=bool))


def jacobians(prob: ProblemDefinition, u):
    """(J1, J2): the exact Jacobian rows of constraint_walk at u (tie rules as in
    evaluate_with_gradient), split.  The pipeline reads constraint_walk itself."""
    J = constraint_walk(prob, u)[1]
    return J[:prob.m], J[prob.m:]


def check_constraint_qualification(prob: ProblemDefinition, u0,
                                   active_tol=DEFAULT_ACTIVE_TOL) -> ConstraintQualificationReport:
    """Rank of J1, active inequality set, and a strictly feasible (Slater) direction.

    One constraint_walk at u0 gives the Jacobians, the values that decide the
    active set (g_i >= -active_tol |grad g_i|) and the kink marks.  The Slater
    direction phi has J1 phi = 0 and (J2 phi)_i <= -1 on the active set (see
    slater_direction); a capped solve that decides neither way raises
    CQIndeterminateError.  An empty active set makes the check vacuous.  An
    equality or active inequality with a kink at the point (evaluate_with_kinks)
    has a one-piece row that proves nothing: kink_free is False.  A non-finite
    Jacobian entry (an overflowing derivative) raises EstimationFailureError."""
    walk = constraint_walk(prob, as_point(u0, prob.n))
    return _constraint_qualification(prob, walk, unit_rows(walk[1]), active_tol)


def _constraint_qualification(prob, walk, rows, active_tol):
    """check_constraint_qualification on the caller's constraint_walk and its unit_rows."""
    (values, J, kinked), (unit, norms) = walk, rows
    if not np.all(np.isfinite(J)):
        raise EstimationFailureError("non-finite constraint Jacobian at the point")
    J1, J2 = J[:prob.m], J[prob.m:]
    svals = np.linalg.svd(J1, compute_uv=False)  # empty without equalities
    rank = int(np.sum(svals > 1e-8 * np.max(svals, initial=0.0) * max(prob.m, prob.n)))
    j1_onto = rank == prob.m
    active = tuple(np.flatnonzero(values[prob.m:] >= -active_tol * norms[prob.m:]).tolist())
    kink_free = not (np.any(kinked[:prob.m]) or np.any(kinked[prob.m:][list(active)]))
    if not active:
        return ConstraintQualificationReport(rank, j1_onto, np.zeros(prob.n), True, active, kink_free)
    phi, converged = slater_direction(J1, J2[list(active)])
    if not converged:
        raise CQIndeterminateError("Slater solve did not converge")
    # |J1_j phi| <= 1e-8 |J1_j| |phi|, on unit vectors so that nothing overflows
    slater_ok = bool(np.all(np.abs(unit[:prob.m] @ unit_rows(phi[None])[0][0]) <= 1e-8)
                     and np.all(J2[list(active)] @ phi <= -1.0 + 1e-8))
    return ConstraintQualificationReport(rank, j1_onto, phi if slater_ok else None, slater_ok,
                                         active, kink_free)


def verify_stationarity(prob: ProblemDefinition, u0, eps_stat=DEFAULT_EPS_STAT,
                        active_tol=DEFAULT_ACTIVE_TOL, seed=GenDirConfig.seed, sd_radius=None,
                        sd_count=None) -> StationarityReport:
    """Full pipeline: feasibility, constraint qualification, subdifferential
    sampling, multiplier recovery, verdict.

    Each constraint tree is walked once: one constraint_walk at u0 and one
    unit_rows of its Jacobian feed feasibility, the CQ and the multiplier solve.
    Infeasible iff some |h_j| > FEAS_TOL |grad h_j| or g_i > FEAS_TOL |grad g_i|
    (a non-finite row counts as infinitely steep: the CQ check rejects it).
    Equality-only problems skip the (vacuous) Slater check.  The multiplier
    solve stops once its residual_lower_bound proves the residual exceeds
    eps_stat.  An objective or constraint that is undefined (a domain error)
    or non-finite at u0 is a feasibility-stage error.  Every stage error goes
    through one handler into a report naming the stage.  stage_s holds the
    seconds of each stage that ran, timed by perf_counter from its start.
    """
    u0 = as_point(u0, prob.n)
    feasibility = (np.nan, np.nan)  # unknown until the constraints evaluate
    cq, starts = None, {"feasibility": perf_counter()}  # the last stage started is running
    try:
        values, J, _ = walk = constraint_walk(prob, u0)
        eq_values, ineq_values = values[:prob.m], values[prob.m:]
        feasibility = (float(np.max(np.abs(eq_values), initial=0.0)),
                       float(np.max(ineq_values, initial=-np.inf)))
        objective_value = eval_objective(prob, u0)
        for kind, checked in (("equality constraint", eq_values), ("inequality constraint", ineq_values),
                              ("objective", objective_value)):
            if not np.all(np.isfinite(checked)):
                raise EstimationFailureError(f"non-finite {kind} value at the point")
        unit, norms = rows = unit_rows(J)
        tolerance = FEAS_TOL * norms
        if np.any(np.abs(eq_values) > tolerance[:prob.m]) or np.any(ineq_values > tolerance[prob.m:]):
            return StationarityReport(feasibility, None, None, "infeasible", stage_s=_stage_seconds(starts))
        starts["constraint_qualification"] = perf_counter()
        cq = _constraint_qualification(prob, walk, rows, active_tol)
        if not (cq.j1_onto and cq.slater_ok and cq.kink_free):
            return StationarityReport(feasibility, cq, None, "cq_failed", stage_s=_stage_seconds(starts))
        starts["multiplier_recovery"] = perf_counter()
        active = list(cq.active_set)
        sample = sample_subdifferential(prob, u0, radius=sd_radius, k=sd_count, seed=seed)
        G = sample.points.T  # n x k, the sampled gradients
        result = solve_structured_ls(G, J[:prob.m], unit[prob.m:][active], stop_above=eps_stat)
    except ClarkeKKTError as exc:  # in the stage started last
        return StationarityReport(feasibility, cq, None, "error", [*starts][-1], str(exc),
                                  _stage_seconds(starts))
    z2 = np.zeros(prob.p)
    z2[active] = result.z2_active / norms[prob.m:][active]
    slackness = float(ineq_values @ z2)
    certificate = MultiplierCertificate(G @ result.lam, result.lam, result.z1, z2, result.residual,
                                        slackness, result.converged, result.lower_bound)
    verdict = "stationary" if result.residual <= eps_stat else "not_stationary"
    return StationarityReport(feasibility, cq, certificate, verdict, stage_s=_stage_seconds(starts))


def _stage_seconds(starts):
    """{stage: seconds} from each stage's perf_counter start; the last one ends now."""
    marks = [*starts.values(), perf_counter()]
    return {stage: end - start for stage, start, end in zip(starts, marks, marks[1:])}
