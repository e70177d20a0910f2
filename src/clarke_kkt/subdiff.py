"""Sampled approximation of the generalized subgradient set.

The set is represented by finitely many finite-difference gradients taken
at random points near u; its convex hull is implicit in the point list.
Membership of a candidate vector is tested against the defining support
inequality <phi, g> <= H(phi) over a finite direction set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import EstimationFailureError
from .gendir import GenDirConfig, estimate_gen_dir_derivs
from .problem import ProblemDefinition, as_point, kink_avoiding_gradients

# Not called here: the benchmark's tracer patches these two names on this
# module, so they stay importable from subdiff.
from .gendir import estimate_gen_dir_deriv  # noqa: F401
from .problem import kink_avoiding_gradient  # noqa: F401

EPS_MEM = 0.05


@dataclass(frozen=True)
class SubdifferentialApprox:
    """points has shape (k, n): sampled gradients near the base point."""

    points: np.ndarray


def default_radius(u) -> float:
    u = np.asarray(u, dtype=float)
    return 1e-3 * (1.0 + float(np.max(np.abs(u), initial=0.0)))


def sample_subdifferential(prob: ProblemDefinition, u, radius=None, k=None, seed=42) -> SubdifferentialApprox:
    """Gradients at k random points in the ball around u (u itself always included).

    Every evaluation point passes through the one-shot kink-avoidance rule,
    all points in one kink_avoiding_gradients call; the finite-difference
    step is radius / 100.
    """
    u = as_point(u, prob.n)
    if radius is None:
        radius = default_radius(u)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if k is None:
        k = 30 + 2 * prob.n
    if k < 1:
        raise ValueError("need at least one sample")
    points = [u] + [sampling.ball_point(sampling.substream(seed, sampling.NS_SUBDIFF, i), u, radius)
                    for i in range(1, k)]
    gradients, _ = kink_avoiding_gradients(prob, np.array(points), radius / 100.0)
    if not np.all(np.isfinite(gradients)):
        raise EstimationFailureError("non-finite sampled gradient")
    return SubdifferentialApprox(points=gradients)


def membership_test(prob: ProblemDefinition, u, g, cfg: GenDirConfig = GenDirConfig()):
    """Support-inequality membership of g in the estimated subgradient set.

    Tests <phi, g> <= H_est(phi) + EPS_MEM over the 2n signed coordinate
    directions plus 64 random unit directions.
    Returns (member, worst_gap) with worst_gap = max of <phi, g> - H_est(phi).
    """
    u = as_point(u, prob.n)
    g = as_point(g, prob.n)
    n = prob.n
    eye = np.eye(n)
    phis = [e for i in range(n) for e in (eye[i], -eye[i])]
    rng = sampling.substream(cfg.seed, sampling.NS_MEMBERSHIP, 0)
    phis += [sampling.unit_direction(rng, n) for _ in range(64)]
    worst_gap = -np.inf
    for phi, estimate in zip(phis, estimate_gen_dir_derivs(prob, u, phis, cfg)):
        gap = float(phi @ g) - estimate.value
        worst_gap = max(worst_gap, gap)
    return worst_gap <= EPS_MEM, worst_gap
