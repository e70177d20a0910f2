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

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import EstimationFailureError
from .problem import ProblemDefinition, as_point, eval_objective_batch

# Most floats in the one buffer of stepped points that an estimator call
# allocates (1 MiB), unless one direction's points alone need more: a block
# holds at least one direction.  Each block of directions is one batched
# evaluation of F per level, so a larger buffer means fewer tree walks.
BLOCK_FLOATS = 1 << 17
BASE_RADIUS = 0.1
BASE_STEP = 0.1
DECAY = 0.5
# what one check_properties call checks
HOMOGENEITY_LAMBDAS = (0.5, 1.0, 2.0, 10.0)
SUBADDITIVITY_PAIRS = 20


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
    directions.  The stepped points v + t*d are built in blocks of directions
    in one buffer of at most BLOCK_FLOATS floats (one direction's points at
    least), allocated once per call.  The buffer is coordinate-major, shape
    (n, directions, samples): each variable of the expression then reads one
    contiguous slab, and the two operations that fill it run their innermost
    loop over the samples rather than over the n coordinates.  Each coordinate
    still gets the same product and sum, so every result is bitwise equal to
    the single-direction estimate.
    """
    u = as_point(u, prob.n)
    rows = [as_point(phi, prob.n) for phi in phis]
    norms = [math.sqrt(row.dot(row)) for row in rows]  # bitwise np.linalg.norm
    moving = [i for i, norm in enumerate(norms) if norm != 0.0]
    estimates = [GenDirEstimate(0.0, (0.0,) * cfg.levels, 0.0)] * len(rows)
    if moving:
        moving_norms = np.array([norms[i] for i in moving])
        directions = np.array([rows[i] for i in moving]) / moving_norms[:, None]
        samples = cfg.samples_per_level
        block_size = min(len(moving), max(1, BLOCK_FLOATS // (samples * prob.n)))
        buf = np.empty((prob.n, block_size, samples))
        maxima = np.empty((len(moving), cfg.levels))
        for level in range(1, cfg.levels + 1):
            radius = BASE_RADIUS * DECAY**level
            t_max = BASE_STEP * DECAY**level
            rng = sampling.substream(cfg.seed, sampling.NS_GENDIR, level)
            base = sampling.ball_points(rng, u, radius, samples)
            steps = t_max * (1.0 - rng.random(samples))  # in (0, t_max]
            base[0] = u
            steps[0] = t_max
            f_base = eval_objective_batch(prob, base)
            for start in range(0, len(moving), block_size):
                block = directions[start:start + block_size]
                stepped = buf[:, :len(block)]
                np.multiply(block.T[:, :, None], steps, out=stepped)
                np.add(base.T[:, None, :], stepped, out=stepped)
                values = eval_objective_batch(prob, np.moveaxis(stepped, 0, -1))
                with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                    quotients = (values - f_base) / steps
                if not np.all(np.isfinite(quotients)):
                    raise EstimationFailureError("non-finite difference quotient in level sampling")
                np.max(quotients, axis=1, out=maxima[start:start + len(block), level - 1])
        for i, values in zip(moving, (maxima * moving_norms[:, None]).tolist()):
            estimates[i] = GenDirEstimate(values[-1], tuple(values), norms[i])
    return estimates


def _direction_pair(phi1, phi2):
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    if phi1.shape != phi2.shape:
        raise ValueError("direction dimensions disagree")
    return phi1, phi2


def _homogeneity_directions(phi, lambdas):
    """phi, then lam*phi for each of the positive lambdas."""
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("all lambdas must be positive")
    phi = np.asarray(phi, dtype=float)
    return [phi] + [phi * lam for lam in lambdas]


def _homogeneity_report(lambdas, base, scaled_estimates) -> PropertyReport:
    """Homogeneity report from the estimates along phi and along each lam*phi."""
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


def _subadditivity_report(phi1, phi2, combined, first, second, eps_sub) -> PropertyReport:
    """Subadditivity report from the estimates along phi1+phi2, phi1 and phi2."""
    if eps_sub is None:
        eps_sub = 0.05 * (1.0 + float(np.linalg.norm(phi1)) + float(np.linalg.norm(phi2)))
    slack = combined.value - first.value - second.value
    # the slack differences three rounded estimates, so it carries their rounding error
    rounding = 4 * float(np.finfo(float).eps) * (abs(combined.value) + abs(first.value)
                                                 + abs(second.value))
    tolerance = max(eps_sub, rounding)
    passed = slack <= tolerance
    case = {
        "combined": combined.value,
        "first": first.value,
        "second": second.value,
        "slack": slack,
        "tolerance": tolerance,
        "passed": passed,
    }
    return PropertyReport("subadditivity", passed, slack, tolerance, (case,))


def check_homogeneity(prob, u, phi, lambdas, cfg: GenDirConfig = GenDirConfig()) -> PropertyReport:
    """Positive homogeneity: the estimate along lam*phi versus lam times the estimate along phi.

    Structural by direction normalization, so the discrepancy is pure
    floating-point noise, bounded by 1e-12 * (1 + lam) * |estimate|.
    """
    base, *scaled = estimate_gen_dir_derivs(prob, u, _homogeneity_directions(phi, lambdas), cfg)
    return _homogeneity_report(lambdas, base, scaled)


def check_subadditivity(prob, u, phi1, phi2, cfg: GenDirConfig = GenDirConfig(), eps_sub=None) -> PropertyReport:
    """Subadditivity slack of the estimate: est(phi1+phi2) - est(phi1) - est(phi2).

    Exact in theory; under sampling the slack is allowed up to
    eps_sub = 0.05 * (1 + |phi1| + |phi2|) by default.  The tolerance never
    drops below the rounding floor 4 * machine eps * (|est(phi1+phi2)| +
    |est(phi1)| + |est(phi2)|), so that a steep objective does not fail on
    rounding alone; the report's tolerance is the larger of the two.
    """
    phi1, phi2 = _direction_pair(phi1, phi2)
    estimates = estimate_gen_dir_derivs(prob, u, [phi1 + phi2, phi1, phi2], cfg)
    return _subadditivity_report(phi1, phi2, *estimates, eps_sub)


def check_properties(prob, u, cfg: GenDirConfig, eps_sub) -> list:
    """check_homogeneity along each coordinate axis with HOMOGENEITY_LAMBDAS, then
    check_subadditivity for SUBADDITIVITY_PAIRS pairs of standard normal
    directions (phi1 then phi2, from the NS_PROPERTIES substream of cfg.seed),
    in that order, from one estimator call.  eps_sub as in check_subadditivity;
    None is its default tolerance.

    Every report equals the one its own check gives, since each estimate
    depends only on the level draws and its own direction.
    """
    rng = sampling.substream(cfg.seed, sampling.NS_PROPERTIES, 0)
    pairs = [(rng.standard_normal(prob.n), rng.standard_normal(prob.n))
             for _ in range(SUBADDITIVITY_PAIRS)]
    phis = [phi for axis in np.eye(prob.n) for phi in _homogeneity_directions(axis, HOMOGENEITY_LAMBDAS)]
    phis += [phi for phi1, phi2 in pairs for phi in (phi1 + phi2, phi1, phi2)]
    estimates = iter(estimate_gen_dir_derivs(prob, u, phis, cfg))
    reports = []
    for _ in range(prob.n):
        base = next(estimates)
        reports.append(_homogeneity_report(HOMOGENEITY_LAMBDAS, base,
                                           [next(estimates) for _ in HOMOGENEITY_LAMBDAS]))
    for phi1, phi2 in pairs:
        reports.append(_subadditivity_report(phi1, phi2, next(estimates), next(estimates),
                                             next(estimates), eps_sub))
    return reports
