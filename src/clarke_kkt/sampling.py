"""Deterministic substream-based random sampling.

Every randomized operation derives its draws from numpy SeedSequence
substreams keyed by (seed, namespace, index...).  Two calls with the same
seed and path produce bitwise-identical samples, independently of any
other sampling performed in the process, which makes per-sample streams
safe to evaluate concurrently.
"""
from __future__ import annotations

import numpy as np

# Namespace tags keep the streams of different operations disjoint when
# they share one user-facing seed.  The values key the seeded streams, so
# they never change; 1 and 5 are retired.
NS_GENDIR = 2
NS_SUBDIFF = 3
NS_MEMBERSHIP = 4
NS_PROPERTIES = 6


def substream(seed, *path) -> np.random.Generator:
    """Generator for the substream (seed, *path)."""
    key = tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def ball_point(rng, center, radius):
    """One point drawn uniformly from the Euclidean ball around center."""
    center = np.asarray(center, dtype=float)
    n = center.size
    g = rng.standard_normal(n)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        return center.copy()
    rad = radius * rng.random() ** (1.0 / n)
    return center + (rad / nrm) * g


def ball_points(rng, center, radius, count):
    """(count, n) array of points drawn uniformly from the ball around center."""
    center = np.asarray(center, dtype=float)
    n = center.size
    g = rng.standard_normal((count, n))
    nrm = np.linalg.norm(g, axis=1)
    nrm[nrm == 0.0] = 1.0
    rad = radius * rng.random(count) ** (1.0 / n)
    return center[None, :] + (rad / nrm)[:, None] * g


def unit_direction(rng, n):
    """One direction drawn uniformly from the unit sphere."""
    while True:
        g = rng.standard_normal(n)
        nrm = np.linalg.norm(g)
        if nrm > 0.0:
            return g / nrm
