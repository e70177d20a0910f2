"""Sampled estimation of the generalized directional derivative.

The theoretical quantity is a supremum of limsup difference quotients over
all base-point and step sequences approaching (u, 0+), so any radii and
steps that shrink to 0 estimate it.  The estimator replaces it with a
finite multi-scale max: at level k it draws base points within radius
BASE_RADIUS*DECAY^k*s of u and steps in (0, BASE_STEP*DECAY^k*s], where s
is the binade of 1 + max|u| (the power of two 2^e with 2^e <= 1 + max|u| <
2^(e+1); s = 1 while 1 + max|u| < 2).  It records the level maximum of
(F(v + t*d) - F(v)) / t along the normalized direction d, and reports the
finest level scaled by the direction norm.  Since the float spacing of
1 + max|u| is s * 2^-52, the finest step of MAX_LEVELS levels spans 2^20
spacings at every point: a finer step would leave only rounding in the
quotients.

estimate_gen_dir_deriv(s) sample every level 1..levels and keep the coarse
maxima in GenDirEstimate.per_level, for convergence diagnostics.  The
property checks (check_homogeneity, check_subadditivity, check_properties)
and subdiff.membership_test read only the value, so they sample the finest
level alone; each level draws from its own substream, so their values are
the same bits.
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
# BASE_STEP * DECAY**28 >= 2**-32: the finest step spans at least 2**20
# float spacings of 1 + max|u| (see the module docstring)
MAX_LEVELS = 28
# what one check_properties call checks
HOMOGENEITY_LAMBDAS = (0.5, 1.0, 2.0, 10.0)
SUBADDITIVITY_PAIRS = 20


@dataclass(frozen=True)
class GenDirConfig:
    levels: int = 6
    samples_per_level: int = 200
    seed: int = 42

    def __post_init__(self):
        if not 2 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"levels must be from 2 to {MAX_LEVELS}")
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

    Samples every level 1..cfg.levels, so that per_level holds the coarse
    levels too; the property checks and membership_test, which read only
    the value, sample the finest level alone and get the same values.
    """
    scaled, norms = _scaled_level_maxima(prob, u, phis, range(1, cfg.levels + 1), cfg)
    return [GenDirEstimate(values[-1], tuple(values), norm)
            for values, norm in zip(scaled.tolist(), norms)]


def _finest_values(prob, u, phis, cfg) -> list:
    """The value of estimate_gen_dir_derivs along each direction in phis,
    from the finest level alone: each level draws from its own substream,
    so leaving out the coarse levels changes no bit of it."""
    scaled, _ = _scaled_level_maxima(prob, u, phis, (cfg.levels,), cfg)
    return scaled[:, 0].tolist()


def _direction_rows(phis, n) -> np.ndarray:
    """phis as one (len(phis), n) array of finite floats, checked at once;
    only a list that fails the check goes through as_point one direction at
    a time, so that the error names the first bad direction."""
    phis = list(phis)
    try:
        rows = np.array(phis, dtype=float)
    except ValueError:  # directions of different shapes
        rows = None
    if rows is None or rows.shape[1:] != (n,) or not np.all(np.isfinite(rows)):
        rows = np.array([as_point(phi, n) for phi in phis])
    return rows.reshape(len(phis), n)


def _scaled_level_maxima(prob, u, phis, levels, cfg):
    """(len(phis), len(levels)) array of the maximum difference quotient of
    each listed level along each normalized direction, times the direction
    norm (0 along a zero direction), and the list of the norms.

    Level k draws its base points and steps from substream (cfg.seed,
    NS_GENDIR, k) alone, and evaluates F on the base points once for all
    directions.  The stepped points v + t*d are built in blocks of directions
    in one buffer of at most BLOCK_FLOATS floats (one direction's points at
    least), allocated once per call.  The buffer is coordinate-major, shape
    (n, directions, samples): each variable of the expression then reads one
    contiguous slab, and the two operations that fill it run their innermost
    loop over the samples rather than over the n coordinates.  Each coordinate
    still gets the same product and sum, so every result is bitwise equal to
    the single-direction estimate.  Every radius and step is scaled by the
    binade of 1 + max|u|, a power of two, so each is exact (and unchanged
    while 1 + max|u| < 2).
    """
    u = as_point(u, prob.n)
    scale = math.ulp(1.0 + max(map(abs, u.tolist()))) * 2**52  # the binade of 1 + max|u|
    rows = _direction_rows(phis, prob.n)
    with np.errstate(over="ignore"):  # an infinite norm fails the scaled check below
        norms = [math.sqrt(row.dot(row)) for row in rows]  # bitwise np.linalg.norm
    moving = [i for i, norm in enumerate(norms) if norm != 0.0]
    scaled = np.zeros((len(rows), len(levels)))
    if not moving:
        return scaled, norms
    moving_norms = np.array([norms[i] for i in moving])
    directions = rows[moving] / moving_norms[:, None]
    samples = cfg.samples_per_level
    block_size = min(len(moving), max(1, BLOCK_FLOATS // (samples * prob.n)))
    buf = np.empty((prob.n, block_size, samples))
    maxima = np.empty((len(moving), len(levels)))
    for column, level in enumerate(levels):
        radius = BASE_RADIUS * DECAY**level * scale
        t_max = BASE_STEP * DECAY**level * scale
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
            np.max(quotients, axis=1, out=maxima[start:start + len(block), column])
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        scaled[moving] = maxima * moving_norms[:, None]
    if not np.all(np.isfinite(scaled)):
        raise EstimationFailureError("non-finite estimate when scaled by the direction norm")
    return scaled, norms


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


def _homogeneity_report(lambdas, base, scaled_values) -> PropertyReport:
    """Homogeneity report from the estimates along phi and along each lam*phi."""
    worst = 0.0
    worst_tol = 0.0
    cases = []
    passed = True
    for lam, scaled in zip(lambdas, scaled_values):
        discrepancy = abs(scaled - lam * base)
        tol = 1e-12 * (1.0 + lam) * abs(base)
        ok = discrepancy <= tol
        passed = passed and ok
        if discrepancy >= worst:
            worst = discrepancy
            worst_tol = tol
        cases.append(
            {
                "lambda": float(lam),
                "estimate": scaled,
                "scaled_base": lam * base,
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
    slack = combined - first - second
    # the slack differences three rounded estimates, so it carries their rounding error
    rounding = 4 * float(np.finfo(float).eps) * (abs(combined) + abs(first) + abs(second))
    tolerance = max(eps_sub, rounding)
    passed = slack <= tolerance
    case = {
        "combined": combined,
        "first": first,
        "second": second,
        "slack": slack,
        "tolerance": tolerance,
        "passed": passed,
    }
    return PropertyReport("subadditivity", passed, slack, tolerance, (case,))


def check_homogeneity(prob, u, phi, lambdas, cfg: GenDirConfig = GenDirConfig()) -> PropertyReport:
    """Positive homogeneity: the estimate along lam*phi versus lam times the estimate along phi.

    Structural by direction normalization, so the discrepancy is pure
    floating-point noise, bounded by 1e-12 * (1 + lam) * |estimate|.
    Samples the finest level alone, the only one the report reads.
    """
    base, *scaled = _finest_values(prob, u, _homogeneity_directions(phi, lambdas), cfg)
    return _homogeneity_report(lambdas, base, scaled)


def check_subadditivity(prob, u, phi1, phi2, cfg: GenDirConfig = GenDirConfig(), eps_sub=None) -> PropertyReport:
    """Subadditivity slack of the estimate: est(phi1+phi2) - est(phi1) - est(phi2).

    Exact in theory; under sampling the slack is allowed up to
    eps_sub = 0.05 * (1 + |phi1| + |phi2|) by default.  The tolerance never
    drops below the rounding floor 4 * machine eps * (|est(phi1+phi2)| +
    |est(phi1)| + |est(phi2)|), so that a steep objective does not fail on
    rounding alone; the report's tolerance is the larger of the two.
    Samples the finest level alone, the only one the report reads.
    """
    phi1, phi2 = _direction_pair(phi1, phi2)
    values = _finest_values(prob, u, [phi1 + phi2, phi1, phi2], cfg)
    return _subadditivity_report(phi1, phi2, *values, eps_sub)


def check_properties(prob, u, cfg: GenDirConfig, eps_sub) -> list:
    """check_homogeneity along each coordinate axis with HOMOGENEITY_LAMBDAS, then
    check_subadditivity for SUBADDITIVITY_PAIRS pairs of standard normal
    directions (phi1 then phi2, from the NS_PROPERTIES substream of cfg.seed),
    in that order, from one estimator call.  eps_sub as in check_subadditivity;
    None is its default tolerance.

    Every report equals the one its own check gives, since each estimate
    depends only on the level draws and its own direction.  Like those
    checks, it samples only the finest level, cfg.levels: a coarser level
    is neither drawn nor evaluated, so a non-finite quotient there cannot
    fail the call.
    """
    rng = sampling.substream(cfg.seed, sampling.NS_PROPERTIES, 0)
    pairs = [(rng.standard_normal(prob.n), rng.standard_normal(prob.n))
             for _ in range(SUBADDITIVITY_PAIRS)]
    phis = [phi for axis in np.eye(prob.n) for phi in _homogeneity_directions(axis, HOMOGENEITY_LAMBDAS)]
    phis += [phi for phi1, phi2 in pairs for phi in (phi1 + phi2, phi1, phi2)]
    values = iter(_finest_values(prob, u, phis, cfg))
    reports = []
    for _ in range(prob.n):
        base = next(values)
        reports.append(_homogeneity_report(HOMOGENEITY_LAMBDAS, base,
                                           [next(values) for _ in HOMOGENEITY_LAMBDAS]))
    for phi1, phi2 in pairs:
        reports.append(_subadditivity_report(phi1, phi2, next(values), next(values),
                                             next(values), eps_sub))
    return reports
