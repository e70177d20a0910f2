"""Subdifferential sampling and support-inequality membership."""
import hashlib

import numpy as np
import pytest

from clarke_kkt import sampling
from clarke_kkt.errors import EvaluationDomainError
from clarke_kkt.expressions import evaluate
from clarke_kkt.gendir import GenDirConfig
from clarke_kkt.problem import (
    BLOCK_FLOATS,
    KINK_TOL,
    finite_diff_gradient,
    kink_avoiding_gradients,
    parse_problem,
)
from clarke_kkt.subdiff import membership_test, sample_subdifferential

ABS = parse_problem("dim 1\nobjective abs(x1)")
AFFINE = parse_problem("dim 1\nobjective 3 * x1")
CONST = parse_problem("dim 1\nobjective 7")


def test_abs_samples_both_signs():
    sd = sample_subdifferential(ABS, [0.0], seed=42)
    points = sd.points.ravel()
    assert np.all(points >= -1.0 - 1e-3)
    assert np.all(points <= 1.0 + 1e-3)
    assert points.min() <= -0.9
    assert points.max() >= 0.9


def test_affine_samples_are_exact():
    sd = sample_subdifferential(AFFINE, [2.0], seed=0)
    np.testing.assert_allclose(sd.points, 3.0, atol=1e-9)


def test_constant_samples_are_zero():
    sd = sample_subdifferential(CONST, [1.0], seed=0)
    np.testing.assert_allclose(sd.points, 0.0, atol=1e-12)


def test_sampling_deterministic():
    a = sample_subdifferential(ABS, [0.0], seed=3)
    b = sample_subdifferential(ABS, [0.0], seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_scaling_coherence():
    scaled = parse_problem("dim 1\nobjective 2 * abs(x1)")
    base = sample_subdifferential(ABS, [0.0], seed=5)
    doubled = sample_subdifferential(scaled, [0.0], seed=5)
    np.testing.assert_allclose(doubled.points, 2.0 * base.points, rtol=1e-12)


def test_default_count():
    sd = sample_subdifferential(ABS, [0.0])
    assert sd.points.shape == (32, 1)  # 30 + 2n


def test_membership_zero_in_abs():
    member, worst_gap = membership_test(ABS, [0.0], [0.0])
    assert member
    assert worst_gap <= 0.05


def test_membership_rejects_outside_point():
    member, worst_gap = membership_test(ABS, [0.0], [2.0])
    assert not member
    assert worst_gap == pytest.approx(1.0, abs=0.05)


def test_membership_affine():
    member, _ = membership_test(AFFINE, [0.7], [3.0])
    assert member
    member, worst_gap = membership_test(AFFINE, [0.7], [4.0])
    assert not member
    assert worst_gap >= 0.9


def test_sampled_gradients_are_members():
    # cross-module consistency: each sampled gradient lies in the estimated
    # subgradient set up to the membership tolerance
    prob = parse_problem("dim 2\nobjective max(x1, x2)")
    u = [0.0, 0.0]
    sd = sample_subdifferential(prob, u, seed=42)
    cfg = GenDirConfig(seed=42)
    for g in sd.points:
        member, worst_gap = membership_test(prob, u, g, cfg)
        assert member, f"gradient {g} rejected with gap {worst_gap}"


# --- batched kink-avoiding gradients ------------------------------------------

def _sum_abs(n, last_plain=False):
    terms = [f"abs(x{i})" for i in range(1, n + 1)]
    if last_plain:
        terms[-1] = f"x{n}"
    return parse_problem(f"dim {n}\nobjective {' + '.join(terms)}")


@pytest.mark.parametrize("prob, digest", [
    (_sum_abs(20), "ce49b62cdab0db0f5ce05af7cafeef37369b900f5a0c7e1776f7cc14d2cccb71"),
    (_sum_abs(50, last_plain=True), "d3b5fe7166ff907538e5e5c6f141808d3fcd4bedc7a28eb1945e8b75f18a174c"),
])
def test_sampled_gradients_are_pinned(prob, digest):
    # the bytes the one-point-at-a-time sampler gave before batching
    sd = sample_subdifferential(prob, np.zeros(prob.n), seed=42)
    assert hashlib.sha256(sd.points.tobytes()).hexdigest() == digest


def _one_point_mismatch(prob, point, h):
    """The kink test of the one-point rule: F at the 1-D point on its own."""
    f0 = evaluate(prob.objective, point)
    eye = np.eye(prob.n) * h
    fwd = (evaluate(prob.objective, point[None, :] + eye) - f0) / h
    bwd = (f0 - evaluate(prob.objective, point[None, :] - eye)) / h
    return float(np.max(np.abs(fwd - bwd)))


@pytest.mark.parametrize("n", [5, 50])
def test_batch_rows_follow_the_one_point_rule(n):
    prob = _sum_abs(n, last_plain=True)
    u = np.zeros(n)
    radius = 1e-3
    h = radius / 100.0
    k = 30 + 2 * n
    points = np.array([u] + [sampling.ball_point(sampling.substream(42, sampling.NS_SUBDIFF, i), u, radius)
                             for i in range(1, k)])
    gradients, points_used = kink_avoiding_gradients(prob, points, h)
    if n == 50:
        assert k > 20 * max(1, BLOCK_FLOATS // ((2 * n + 1) * n))  # many blocks
    shifts = 0
    for point, gradient, used in zip(points, gradients, points_used):
        expected = point.copy()
        if _one_point_mismatch(prob, point, h) > KINK_TOL:
            expected[0] += h
            shifts += 1
        assert used.tobytes() == expected.tobytes()
        assert gradient.tobytes() == finite_diff_gradient(prob, used, h).tobytes()
    assert 0 < shifts < k  # rows of both kinds


def test_division_by_zero_raises_in_either_phase():
    # phase 1: the pole sits on the kink stencil of u
    prob = parse_problem("dim 2\nobjective 1 / x1 + abs(x2)")
    with pytest.raises(EvaluationDomainError, match="division by zero during evaluation"):
        sample_subdifferential(prob, [0.0, 0.0], seed=42)
    # phase 2: u = 0 sits on the kink of abs(x2) and is shifted to x1 = h,
    # whose stencil reaches the pole at x1 = 2h
    radius = 1e-3
    h = radius / 100.0
    prob = parse_problem(f"dim 2\nobjective abs(x2) + 1 / (x1 - {2 * h!r})")
    with pytest.raises(EvaluationDomainError, match="division by zero during evaluation"):
        sample_subdifferential(prob, [0.0, 0.0], radius=radius, k=1, seed=42)
