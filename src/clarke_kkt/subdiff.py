"""Sampled approximation of the generalized subgradient set.

The set is represented by finitely many exact gradients, taken from the
objective's expression tree at random points near u (gradient sampling,
Burke, Lewis and Overton 2005); its convex hull is implicit in the point
list.
Membership of a candidate vector is tested against the defining support
inequality <phi, g> <= H(phi) over a finite direction set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import EstimationFailureError
from .gendir import GenDirConfig, _finest_values
from .expressions import evaluate_with_gradient
from .problem import ProblemDefinition, as_point

# Not called here: the benchmark's tracer patches these two names on this
# module, so they stay importable from subdiff.
from .gendir import estimate_gen_dir_deriv  # noqa: F401
from .problem import objective_gradient as kink_avoiding_gradient  # noqa: F401

EPS_MEM = 0.05


@dataclass(frozen=True)
class SubdifferentialApprox:
    """points has shape (k, n): sampled gradients near the base point."""

    points: np.ndarray


def default_radius(u) -> float:
    u = np.asarray(u, dtype=float)
    return 1e-3 * (1.0 + float(np.max(np.abs(u), initial=0.0)))


def sample_subdifferential(prob: ProblemDefinition, u, radius=None, k=None,
                           seed=GenDirConfig.seed) -> SubdifferentialApprox:
    """Gradients at k random points in the ball around u (u itself always included).

    The k - 1 ball points come from one stream, (seed, NS_SUBDIFF), drawn
    together, so a different k redraws every point rather than adding
    points.  All points go through one evaluate_with_gradient call; a
    sampled point that lies exactly on a kink takes the gradient its tie
    rules pick.
    """
    u = as_point(u, prob.n)
    radius = default_radius(u) if radius is None else radius
    if radius <= 0:
        raise ValueError("radius must be positive")
    k = 30 + 2 * prob.n if k is None else k
    if k < 1:
        raise ValueError("need at least one sample")
    ball = sampling.ball_points(sampling.substream(seed, sampling.NS_SUBDIFF), u, radius, k - 1)
    _, gradients = evaluate_with_gradient(prob.objective, np.vstack([u, ball]))
    if not np.all(np.isfinite(gradients)):
        raise EstimationFailureError("non-finite sampled gradient")
    return SubdifferentialApprox(points=gradients)


def membership_test(prob: ProblemDefinition, u, g, cfg: GenDirConfig = GenDirConfig()):
    """Support-inequality membership of g in the estimated subgradient set.

    Tests <phi, g> <= H_est(phi) + EPS_MEM over the 2n signed coordinate
    directions plus 64 random unit directions.
    Returns (member, worst_gap) with worst_gap = max of <phi, g> - H_est(phi).
    H_est is the value of estimate_gen_dir_derivs, sampled from the finest
    level alone, the only one the test reads.
    """
    u = as_point(u, prob.n)
    g = as_point(g, prob.n)
    n = prob.n
    eye = np.eye(n)
    phis = [e for i in range(n) for e in (eye[i], -eye[i])]
    rng = sampling.substream(cfg.seed, sampling.NS_MEMBERSHIP, 0)
    phis += [sampling.unit_direction(rng, n) for _ in range(64)]
    worst_gap = -np.inf
    for phi, h_est in zip(phis, _finest_values(prob, u, phis, cfg)):
        gap = float(phi @ g) - h_est
        worst_gap = max(worst_gap, gap)
    return worst_gap <= EPS_MEM, worst_gap
