"""Generalized-directional-derivative estimator against brute-force oracles.

The oracle for 1-d problems is a dense deterministic grid of difference
quotients (F(v + t) - F(v)) / t over base points v near u and steps t near
0, evaluated vectorized and independently of the estimator.
"""
import numpy as np
import pytest

from clarke_kkt import sampling
from clarke_kkt.gendir import (
    BASE_STEP,
    BLOCK_FLOATS,
    DECAY,
    HOMOGENEITY_LAMBDAS,
    SUBADDITIVITY_PAIRS,
    GenDirConfig,
    check_homogeneity,
    check_properties,
    check_subadditivity,
    estimate_gen_dir_deriv,
    estimate_gen_dir_derivs,
)
from clarke_kkt.problem import finite_diff_gradient, parse_problem
from clarke_kkt.subdiff import membership_test


def dense_grid_oracle_1d(f, u, radius=2e-3, t_max=2e-3, points=1000):
    """Max difference quotient over a points x points grid of (v, t)."""
    v = u + np.linspace(-radius, radius, points)
    t = np.linspace(t_max / points, t_max, points)
    quotients = (f(v[:, None] + t[None, :]) - f(v[:, None])) / t[None, :]
    return float(np.max(quotients))


ABS = parse_problem("dim 1\nobjective abs(x1)")
NEG_ABS = parse_problem("dim 1\nobjective -abs(x1)")
SQUARE = parse_problem("dim 1\nobjective pow(x1, 2)")
MAX2 = parse_problem("dim 2\nobjective max(x1, x2)")


def test_abs_at_zero_matches_oracle():
    oracle = dense_grid_oracle_1d(np.abs, 0.0)
    assert abs(oracle - 1.0) <= 0.01
    est = estimate_gen_dir_deriv(ABS, [0.0], [1.0])
    assert 0.95 <= est.value <= 1.0 + 1e-9


def test_neg_abs_at_zero_matches_oracle():
    # distinguishes the neighborhood limsup from the one-sided directional
    # derivative, which is -1 here; base points v < -t give quotient 1
    oracle = dense_grid_oracle_1d(lambda x: -np.abs(x), 0.0)
    assert abs(oracle - 1.0) <= 0.01
    est = estimate_gen_dir_deriv(NEG_ABS, [0.0], [1.0])
    assert 0.95 <= est.value <= 1.0 + 1e-9


def test_smooth_square_matches_gradient():
    oracle = dense_grid_oracle_1d(lambda x: x**2, 1.0)
    assert abs(oracle - 2.0) <= 0.05
    est = estimate_gen_dir_deriv(SQUARE, [1.0], [1.0])
    assert 1.9 <= est.value <= 2.0 + 0.05


def test_zero_direction_is_exactly_zero():
    for prob in (ABS, SQUARE):
        est = estimate_gen_dir_deriv(prob, [0.3], [0.0])
        assert est.value == 0.0
        assert est.direction_norm == 0.0


def test_value_is_finest_level():
    est = estimate_gen_dir_deriv(ABS, [0.0], [2.0])
    assert est.value == est.per_level[-1]
    assert len(est.per_level) == GenDirConfig().levels


def test_estimate_deterministic():
    cfg = GenDirConfig(seed=9)
    a = estimate_gen_dir_deriv(MAX2, [0.0, 0.0], [1.0, 1.0], cfg)
    b = estimate_gen_dir_deriv(MAX2, [0.0, 0.0], [1.0, 1.0], cfg)
    assert a == b


def test_dominates_plain_quotient_at_base_point():
    # u is forced into each level's sample set with the maximal step
    cfg = GenDirConfig()
    for prob, u, phi in [(ABS, [0.0], [1.0]), (MAX2, [0.0, 0.0], [1.0, -1.0]),
                         (SQUARE, [1.0], [-1.0])]:
        u = np.asarray(u, dtype=float)
        phi = np.asarray(phi, dtype=float)
        est = estimate_gen_dir_deriv(prob, u, phi, cfg)
        t = BASE_STEP * DECAY**cfg.levels
        d = phi / np.linalg.norm(phi)
        from clarke_kkt.problem import eval_objective
        plain = np.linalg.norm(phi) * (eval_objective(prob, u + t * d) - eval_objective(prob, u)) / t
        assert est.value >= plain - 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        GenDirConfig(levels=1)


# --- property harness -------------------------------------------------------

def test_homogeneity_structural():
    report = check_homogeneity(ABS, [0.0], [1.0], [0.5, 2.0, 10.0])
    assert report.passed
    for case in report.cases:
        assert case["discrepancy"] <= 1e-12 * (1.0 + case["lambda"]) * abs(case["scaled_base"]) + 1e-300


def test_homogeneity_identity_lambda_is_exact():
    report = check_homogeneity(MAX2, [0.0, 0.0], [1.0, 1.0], [1.0])
    assert report.cases[0]["discrepancy"] == 0.0


def test_homogeneity_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        check_homogeneity(ABS, [0.0], [1.0], [0.0])


def test_subadditivity_abs_opposite_directions():
    # est(phi1 + phi2) = est(0) = 0 while est(phi1) + est(phi2) is about 2
    report = check_subadditivity(ABS, [0.0], [1.0], [-1.0])
    assert report.passed
    case = report.cases[0]
    assert case["combined"] == 0.0
    assert case["first"] + case["second"] >= 1.9


def test_subadditivity_zero_direction():
    report = check_subadditivity(ABS, [0.0], [1.0], [0.0])
    assert report.passed
    assert report.cases[0]["slack"] == 0.0


def test_subadditivity_max_along_axes():
    report = check_subadditivity(MAX2, [0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
    assert report.passed
    # at the kink the quotient along the unit diagonal is 1/sqrt(2), and the
    # direction (1,1) has norm sqrt(2), so the estimate is 1
    assert report.cases[0]["combined"] == pytest.approx(1.0, abs=0.05)


def test_smooth_estimates_match_gradient_inner_products():
    prob = parse_problem("dim 2\nobjective pow(x1 - 1, 2) + pow(x2, 2)\neq x1 + x2")
    u = np.array([0.5, -0.5])
    grad = finite_diff_gradient(prob, u)
    for i in range(2):
        for sign in (1.0, -1.0):
            phi = np.zeros(2)
            phi[i] = sign
            est = estimate_gen_dir_deriv(prob, u, phi)
            inner = float(grad @ phi)
            assert abs(est.value - inner) <= 0.05 * (1.0 + abs(inner))


# --- batched directions -----------------------------------------------------

A20 = parse_problem("dim 20\nobjective " + " + ".join(f"abs(x{i})" for i in range(1, 21)))


def test_max_along_diagonal_per_level_is_pinned():
    # the exact values of the one-direction-at-a-time estimator this batched
    # one replaced; any change to the arithmetic shows here
    est = estimate_gen_dir_deriv(MAX2, [0.0, 0.0], [1.0, 1.0], GenDirConfig(seed=42))
    assert est.per_level == (1.0000000000000033, 1.0000000000000233, 1.0000000000000095,
                             1.0000000000000007, 1.000000000000004, 1.0000000000000848)
    assert est.value == 1.0000000000000848
    assert est.direction_norm == 1.4142135623730951


def test_batch_equals_single_direction_calls():
    cfg = GenDirConfig(seed=3)
    assert 104 > 3 * max(1, BLOCK_FLOATS // (cfg.samples_per_level * 20))  # several blocks
    rng = np.random.default_rng(0)
    phis = list(rng.standard_normal((104, 20)))
    phis[50] = np.zeros(20)
    u = np.full(20, 0.01)
    batch = estimate_gen_dir_derivs(A20, u, phis, cfg)
    assert batch == [estimate_gen_dir_deriv(A20, u, phi, cfg) for phi in phis]
    assert batch[50].direction_norm == 0.0
    order = rng.permutation(104)
    assert estimate_gen_dir_derivs(A20, u, [phis[i] for i in order], cfg) == [batch[i] for i in order]


def test_membership_equals_single_direction_gaps_in_any_order():
    n = 5
    prob = parse_problem(f"dim {n}\nobjective " + " + ".join(f"abs(x{i})" for i in range(1, n + 1)))
    cfg = GenDirConfig(seed=11)
    u = np.zeros(n)
    g = np.full(n, 0.3)
    eye = np.eye(n)
    rng = sampling.substream(cfg.seed, sampling.NS_MEMBERSHIP, 0)
    phis = [e for i in range(n) for e in (eye[i], -eye[i])]
    phis += [sampling.unit_direction(rng, n) for _ in range(64)]
    gaps = [float(phi @ g) - estimate_gen_dir_deriv(prob, u, phi, cfg).value for phi in phis]
    count = len(phis)
    for order in (range(count), reversed(range(count)), np.random.default_rng(1).permutation(count)):
        worst = max(gaps[i] for i in order)
        assert membership_test(prob, u, g, cfg) == (worst <= 0.05, worst)


P2 = parse_problem("dim 2\nobjective max(x1, x2)\neq x1 + x2")


@pytest.mark.parametrize("prob, u, eps_sub", [
    (P2, np.zeros(2), None),
    (P2, np.array([0.3, -0.1]), 0.001),
    (A20, np.full(20, 0.01), None),  # 160 directions, 8 per block
], ids=["P2", "P2-shifted", "A20"])
def test_check_properties_equals_one_check_at_a_time(prob, u, eps_sub):
    cfg = GenDirConfig(seed=5)
    rng = sampling.substream(cfg.seed, sampling.NS_PROPERTIES, 0)
    expected = [check_homogeneity(prob, u, axis, HOMOGENEITY_LAMBDAS, cfg) for axis in np.eye(prob.n)]
    for _ in range(SUBADDITIVITY_PAIRS):
        phi1 = rng.standard_normal(prob.n)
        phi2 = rng.standard_normal(prob.n)
        expected.append(check_subadditivity(prob, u, phi1, phi2, cfg, eps_sub))
    assert check_properties(prob, u, cfg, eps_sub) == expected


DIV0 = parse_problem("dim 1\nobjective 1 / x1")  # any evaluation at 0 raises


def test_checks_reject_bad_input_before_evaluating():
    with pytest.raises(ValueError):
        check_homogeneity(DIV0, [0.0], [1.0], (1.0, 0.0))
    with pytest.raises(ValueError):
        check_subadditivity(DIV0, [0.0], [1.0], [1.0, 0.0])
