"""Sampled estimation of the generalized directional derivative.

The theoretical quantity is a supremum of limsup difference quotients over
all base-point and step sequences approaching (u, 0+).  The estimator
replaces it with a finite multi-scale max: at level k it draws base points
within radius BASE_RADIUS*DECAY^k of u and steps in (0, BASE_STEP*DECAY^k],
records the level maximum of (F(v + t*d) - F(v)) / t along the normalized
direction d, and reports the finest level scaled by the direction norm.
Coarse-level maxima are kept for convergence diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import EstimationFailureError
from .problem import BLOCK_FLOATS, ProblemDefinition, as_point, eval_objective_batch

BASE_RADIUS = 0.1
BASE_STEP = 0.1
DECAY = 0.5


@dataclass(frozen=True)
class GenDirConfig:
    levels: int = 6
    samples_per_level: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be at least 2")
        if self.samples_per_level < 1:
            raise ValueError("samples_per_level must be at least 1")


@dataclass(frozen=True)
class GenDirEstimate:
    """value is the finest-level entry of per_level; direction_norm scales all levels."""

    value: float
    per_level: tuple
    direction_norm: float


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one estimator property check, serializable for CLI reports."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    cases: tuple

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tolerance": self.tolerance,
            "cases": [dict(c) for c in self.cases],
        }


def estimate_gen_dir_deriv(prob: ProblemDefinition, u, phi, cfg: GenDirConfig = GenDirConfig()) -> GenDirEstimate:
    """Multi-scale sampled estimate of the generalized directional derivative at u along phi.

    The point u itself, with the level's maximal step, is forced into every
    level's sample set, so the estimate dominates the plain one-sided
    difference quotient at u.
    """
    return estimate_gen_dir_derivs(prob, u, [phi], cfg)[0]


def estimate_gen_dir_derivs(prob: ProblemDefinition, u, phis, cfg: GenDirConfig = GenDirConfig()) -> list:
    """estimate_gen_dir_deriv along each direction in phis, one GenDirEstimate each.

    The level draws depend only on (cfg.seed, level), so each level draws its
    base points and steps and evaluates F on the base points once for all
    directions.  The stepped points are evaluated in blocks of at most
    BLOCK_FLOATS floats (one direction at least).  Every result is bitwise
    equal to the single-direction estimate.
    """
    u = as_point(u, prob.n)
    rows = [as_point(phi, prob.n) for phi in phis]
    norms = [float(np.linalg.norm(phi)) for phi in rows]
    moving = [i for i, norm in enumerate(norms) if norm != 0.0]
    per_level = [[] for _ in rows]
    if moving:
        directions = np.array([rows[i] / norms[i] for i in moving])
        block_size = max(1, BLOCK_FLOATS // (cfg.samples_per_level * prob.n))
        for level in range(1, cfg.levels + 1):
            radius = BASE_RADIUS * DECAY**level
            t_max = BASE_STEP * DECAY**level
            rng = sampling.substream(cfg.seed, sampling.NS_GENDIR, level)
            base = sampling.ball_points(rng, u, radius, cfg.samples_per_level)
            steps = t_max * (1.0 - rng.random(cfg.samples_per_level))  # in (0, t_max]
            base[0] = u
            steps[0] = t_max
            f_base = eval_objective_batch(prob, base)
            for start in range(0, len(moving), block_size):
                block = directions[start:start + block_size]
                stepped = base[None] + steps[None, :, None] * block[:, None, :]
                quotients = (eval_objective_batch(prob, stepped) - f_base) / steps
                if not np.all(np.isfinite(quotients)):
                    raise EstimationFailureError("non-finite difference quotient in level sampling")
                for i, quotient_max in zip(moving[start:start + block_size], np.max(quotients, axis=1)):
                    per_level[i].append(norms[i] * float(quotient_max))
    return [
        GenDirEstimate(values[-1], tuple(values), norm) if values
        else GenDirEstimate(0.0, (0.0,) * cfg.levels, 0.0)
        for values, norm in zip(per_level, norms)
    ]


def check_homogeneity(prob, u, phi, lambdas, cfg: GenDirConfig = GenDirConfig()) -> PropertyReport:
    """Positive homogeneity: the estimate along lam*phi versus lam times the estimate along phi.

    Structural by direction normalization, so the discrepancy is pure
    floating-point noise, bounded by 1e-12 * (1 + lam) * |estimate|.
    """
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("all lambdas must be positive")
    phi = np.asarray(phi, dtype=float)
    base, *scaled_estimates = estimate_gen_dir_derivs(prob, u, [phi] + [phi * lam for lam in lambdas], cfg)
    worst = 0.0
    worst_tol = 0.0
    cases = []
    passed = True
    for lam, scaled in zip(lambdas, scaled_estimates):
        discrepancy = abs(scaled.value - lam * base.value)
        tol = 1e-12 * (1.0 + lam) * abs(base.value)
        ok = discrepancy <= tol
        passed = passed and ok
        if discrepancy >= worst:
            worst = discrepancy
            worst_tol = tol
        cases.append(
            {
                "lambda": float(lam),
                "estimate": scaled.value,
                "scaled_base": lam * base.value,
                "discrepancy": discrepancy,
                "tolerance": tol,
                "passed": ok,
            }
        )
    return PropertyReport("homogeneity", passed, worst, worst_tol, tuple(cases))


def check_subadditivity(prob, u, phi1, phi2, cfg: GenDirConfig = GenDirConfig(), eps_sub=None) -> PropertyReport:
    """Subadditivity slack of the estimate: est(phi1+phi2) - est(phi1) - est(phi2).

    Exact in theory; under sampling the slack is allowed up to
    eps_sub = 0.05 * (1 + |phi1| + |phi2|) by default.
    """
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    if phi1.shape != phi2.shape:
        raise ValueError("direction dimensions disagree")
    if eps_sub is None:
        eps_sub = 0.05 * (1.0 + float(np.linalg.norm(phi1)) + float(np.linalg.norm(phi2)))
    combined, first, second = estimate_gen_dir_derivs(prob, u, [phi1 + phi2, phi1, phi2], cfg)
    slack = combined.value - first.value - second.value
    passed = slack <= eps_sub
    case = {
        "combined": combined.value,
        "first": first.value,
        "second": second.value,
        "slack": slack,
        "tolerance": eps_sub,
        "passed": passed,
    }
    return PropertyReport("subadditivity", passed, slack, eps_sub, (case,))
