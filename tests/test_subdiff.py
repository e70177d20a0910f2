"""Subdifferential sampling and support-inequality membership."""
import hashlib

import numpy as np
import pytest

from clarke_kkt import sampling, subdiff
from clarke_kkt.errors import EvaluationDomainError
from clarke_kkt.expressions import evaluate_with_gradient
from clarke_kkt.gendir import GenDirConfig
from clarke_kkt.problem import objective_gradient, parse_problem
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


# --- exact gradients at the sampled points ------------------------------------

def _sum_abs(n, last_plain=False):
    terms = [f"abs(x{i})" for i in range(1, n + 1)]
    if last_plain:
        terms[-1] = f"x{n}"
    return parse_problem(f"dim {n}\nobjective {' + '.join(terms)}")


@pytest.mark.parametrize("prob, digest", [
    (_sum_abs(20), "45959d84b39af3ee9a1698d1a24e4a1d429cd42694f1382ae72d22c1ca15e839"),
    (_sum_abs(50, last_plain=True), "4dc7f6256a82bca567958919a1aa72adf143fc25b0a77b9dad60a8c4b197e5a5"),
], ids=["sum_abs20", "sum_abs50_last_plain"])
def test_sampled_gradients_are_pinned(prob, digest):
    sd = sample_subdifferential(prob, np.zeros(prob.n), seed=42)
    assert set(np.unique(sd.points)) <= {-1.0, 1.0}  # sign vectors: gradients of pieces
    assert hashlib.sha256(sd.points.tobytes()).hexdigest() == digest


def _sampled_points(n, radius, k, seed=42):
    u = np.zeros(n)
    ball = sampling.ball_points(sampling.substream(seed, sampling.NS_SUBDIFF), u, radius, k - 1)
    return np.vstack([u, ball])


@pytest.mark.parametrize("n", [5, 50])
def test_batch_rows_follow_the_one_point_rule(n):
    # each row of the batched walk is bitwise what its point alone gives
    prob = _sum_abs(n, last_plain=True)
    points = _sampled_points(n, 1e-3, 30 + 2 * n)
    values, gradients = evaluate_with_gradient(prob.objective, points)
    assert gradients.tobytes() == sample_subdifferential(prob, np.zeros(n), seed=42).points.tobytes()
    for i, point in enumerate(points):
        value, gradient = evaluate_with_gradient(prob.objective, points[i:i + 1])
        assert value.tobytes() == values[i:i + 1].tobytes()
        assert gradient.tobytes() == gradients[i:i + 1].tobytes()
        assert objective_gradient(prob, point).tobytes() == gradients[i].tobytes()
    expected = np.where(points[:, :-1] < 0.0, -1.0, 1.0)
    np.testing.assert_array_equal(gradients[:, :-1], expected)  # x = 0 takes +1
    np.testing.assert_array_equal(gradients[:, -1], 1.0)


def test_one_call_draws_its_ball_points_from_one_stream(monkeypatch):
    # one seeded generator per call, not one per point: the stream (seed, NS_SUBDIFF)
    opened, walked = [], []
    substream, evaluate = sampling.substream, subdiff.evaluate_with_gradient

    def recording_substream(seed, *path):
        opened.append((seed, *path))
        return substream(seed, *path)

    def recording_evaluate(expr, points):
        walked.append(points.copy())
        return evaluate(expr, points)

    monkeypatch.setattr(sampling, "substream", recording_substream)
    monkeypatch.setattr(subdiff, "evaluate_with_gradient", recording_evaluate)
    prob = _sum_abs(5, last_plain=True)
    u = np.array([0.5, -1.0, 0.0, 2.0, -0.25])
    radius = 1e-2
    first = sample_subdifferential(prob, u, radius=radius, k=40, seed=7)
    assert opened == [(7, sampling.NS_SUBDIFF)]
    (points,) = walked
    assert points.shape == (40, 5)
    assert points[0].tobytes() == u.tobytes()
    distances = np.linalg.norm(points[1:] - u, axis=1)
    assert np.all(distances <= radius * (1.0 + 1e-12))  # the closed ball, up to rounding
    again = sample_subdifferential(prob, u, radius=radius, k=40, seed=7)
    assert opened == [(7, sampling.NS_SUBDIFF)] * 2
    assert again.points.tobytes() == first.points.tobytes()


def test_division_by_zero_raises_in_either_phase():
    # a pole at any sampled point raises: at u itself ...
    prob = parse_problem("dim 2\nobjective 1 / x1 + abs(x2)")
    with pytest.raises(EvaluationDomainError, match="division by zero during evaluation"):
        sample_subdifferential(prob, [0.0, 0.0], seed=42)
    # ... or at the one point that the k = 2 draw puts in the ball, and not at u
    radius = 1e-3
    pole = float(_sampled_points(2, radius, 2)[1, 0])
    prob = parse_problem(f"dim 2\nobjective abs(x2) + 1 / (x1 - {pole!r})")
    sample_subdifferential(prob, [0.0, 0.0], radius=radius, k=1, seed=42)
    with pytest.raises(EvaluationDomainError, match="division by zero during evaluation"):
        sample_subdifferential(prob, [0.0, 0.0], radius=radius, k=2, seed=42)
