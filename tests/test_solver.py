"""Structured least-squares solver, simplex projection, and Slater direction."""
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clarke_kkt import solver
from clarke_kkt.errors import EstimationFailureError
from clarke_kkt.solver import (
    GAP_RTOL,
    SLATER_BOX_BOUND,
    slater_direction,
    solve_structured_ls,
    spectral_upper_step,
)


# --- simplex projection -----------------------------------------------------
# The reference loop below projects with this plain sort-based copy; the
# solver inlines the same operations on its buffers.

def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    k = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def test_project_simplex_fixes_simplex_points():
    v = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)


def test_project_simplex_corner():
    np.testing.assert_allclose(project_simplex(np.array([10.0, 0.0])), [1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
def test_project_simplex_feasible(values):
    out = project_simplex(np.array(values))
    assert np.all(out >= -1e-12)
    assert abs(out.sum() - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=5), st.integers(0, 10**6))
def test_project_simplex_is_closest(values, seed):
    # any random simplex point is no closer than the projection
    v = np.array(values)
    proj = project_simplex(v)
    rng = np.random.default_rng(seed)
    other = rng.dirichlet(np.ones(v.size))
    assert np.linalg.norm(v - proj) <= np.linalg.norm(v - other) + 1e-9


# --- structured least squares ----------------------------------------------

def grid_min_residual(G, J1=None, J2_active=None, z_box=2.0, step=1e-3):
    """Brute-force oracle: residual min over a dense grid of (lam, z1, z2).

    Supports k <= 3, m <= 1, a <= 1; vectorized so a few million grid points
    stay fast.  Independent of the projected-gradient path it checks.
    """
    G = np.asarray(G, dtype=float)
    n, k = G.shape
    assert k <= 3
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if k == 1:
        lams = np.array([[1.0]])
    elif k == 2:
        lams = np.column_stack([ticks, 1.0 - ticks])
    else:
        a_grid, b_grid = np.meshgrid(ticks, ticks, indexing="ij")
        mask = a_grid + b_grid <= 1.0 + 1e-12
        lams = np.column_stack([a_grid[mask], b_grid[mask], 1.0 - a_grid[mask] - b_grid[mask]])
    points = lams @ G.T  # (L, n)
    best = np.inf
    z_ticks = np.arange(-z_box, z_box + step / 2, step)
    z2_ticks = np.arange(0.0, z_box + step / 2, step)
    if J1 is None and J2_active is None:
        return float(np.min(np.linalg.norm(points, axis=1)))
    if J1 is not None and J2_active is None:
        row = np.asarray(J1, dtype=float).reshape(1, n)[0]
        for z1 in z_ticks:
            best = min(best, float(np.min(np.linalg.norm(points + z1 * row, axis=1))))
        return best
    if J1 is None and J2_active is not None:
        row = np.asarray(J2_active, dtype=float).reshape(1, n)[0]
        for z2 in z2_ticks:
            best = min(best, float(np.min(np.linalg.norm(points + z2 * row, axis=1))))
        return best
    row1 = np.asarray(J1, dtype=float).reshape(1, n)[0]
    row2 = np.asarray(J2_active, dtype=float).reshape(1, n)[0]
    for z1 in z_ticks:
        shifted = points + z1 * row1
        for z2 in z2_ticks:
            best = min(best, float(np.min(np.linalg.norm(shifted + z2 * row2, axis=1))))
    return best


GRID_CASES = [
    (np.array([[-1.0, 1.0]]), None, None),                       # P1 vertices
    (np.array([[1.0, 0.0], [0.0, 1.0]]), [[1.0, 1.0]], None),    # P2 vertices
    (np.array([[-1.0, 1.0], [1.0, 1.0]]), None, [[0.0, -1.0]]),  # P3 vertices
    (np.array([[-1.0], [-1.0]]), [[1.0, 1.0]], None),            # P4 gradient
    (np.array([[1.0], [0.0]]), [[1.0, 1.0]], None),              # P2 probe gradient
]


def test_single_zero_column():
    result = solve_structured_ls(np.zeros((2, 1)))
    np.testing.assert_array_equal(result.lam, [1.0])
    assert result.residual == 0.0
    assert result.converged


def test_exact_cancellation_with_equality():
    g = np.array([[2.0], [1.0]])
    result = solve_structured_ls(g, J1=g.T)
    assert result.residual <= 1e-8
    assert result.z1[0] == pytest.approx(-1.0, abs=1e-6)


def test_simplex_and_sign_feasibility():
    rng = np.random.default_rng(0)
    result = solve_structured_ls(rng.normal(size=(3, 5)), J1=rng.normal(size=(1, 3)),
                                 J2_active=rng.normal(size=(2, 3)))
    assert np.all(result.lam >= -1e-12)
    assert abs(result.lam.sum() - 1.0) <= 1e-12
    assert np.all(result.z2_active >= -1e-12)


def test_p2_instance_matches_hand_solution():
    # hull of (1,0) and (0,1) with equality row (1,1): lam=(1/2,1/2), z1=-1/2
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    result = solve_structured_ls(G, J1=np.array([[1.0, 1.0]]))
    assert result.residual <= 1e-6
    assert result.z1[0] == pytest.approx(-0.5, abs=1e-6)
    np.testing.assert_allclose(result.lam, [0.5, 0.5], atol=1e-5)


@pytest.mark.parametrize("G,J1,J2a", GRID_CASES)
def test_residual_matches_grid_oracle(G, J1, J2a):
    G = np.asarray(G, dtype=float)
    result = solve_structured_ls(G, J1=J1, J2_active=J2a)
    oracle = grid_min_residual(G, J1, J2a)
    assert abs(result.residual - oracle) <= 2e-3


def test_iteration_cap_reports_nonconvergence():
    rng = np.random.default_rng(1)
    result = solve_structured_ls(rng.normal(size=(4, 6)), J1=rng.normal(size=(2, 4)),
                                 iter_cap=3, tol=1e-16)
    assert not result.converged


@pytest.mark.parametrize("G", [np.array([[np.nan, 1.0]]), np.array([[1e200, 1.0]])])
def test_non_finite_data_is_rejected(G):
    # 1e200 is finite, but its square in the normal matrix is not
    with pytest.raises(EstimationFailureError):
        solve_structured_ls(G)


def test_objective_increase_is_an_error(monkeypatch):
    # P4's equality row leaves z1 free, and here its curvature sets L, so 2.5
    # times the step 1/L overshoots 2/L along z1 and the objective grows; an
    # explicit raise, which python -O keeps
    true_step = solver.spectral_upper_step
    monkeypatch.setattr(solver, "spectral_upper_step", lambda H: 2.5 * true_step(H))
    with pytest.raises(EstimationFailureError, match="objective increased"):
        solve_structured_ls(np.array([[0.1], [0.0]]), J1=np.array([[1.0, 1.0]]))


# --- Slater direction -------------------------------------------------------

def test_slater_single_active_inequality():
    phi, converged = slater_direction(np.zeros((0, 2)), np.array([[0.0, -1.0]]))
    assert converged
    assert -phi[1] <= -1.0 + 1e-8


def test_slater_with_equality_row():
    J1 = np.array([[1.0, 1.0]])
    J2a = np.array([[1.0, 0.0]])
    phi, converged = slater_direction(J1, J2a)
    assert converged
    assert abs(J1 @ phi)[0] <= 1e-8
    assert (J2a @ phi)[0] <= -1.0 + 1e-8


def test_slater_infeasible_reports_violation():
    # phi and -phi cannot both be <= -1 along the same row
    J2a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    phi, converged = slater_direction(np.zeros((0, 2)), J2a)
    assert converged
    assert np.max(J2a @ phi) > -1.0 + 1e-8


def test_slater_non_finite_normal_matrix_is_rejected():
    # 1e160 is finite, but its square in the normal matrix is not
    with pytest.raises(EstimationFailureError, match="Slater normal matrix"):
        slater_direction(np.zeros((0, 1)), np.array([[1e160]]))


def test_slater_direction_outside_the_box_is_rejected():
    # -1e-4 phi <= -1 needs |phi| >= 1e4 > SLATER_BOX_BOUND
    phi, converged = slater_direction(np.zeros((0, 1)), np.array([[1e-4]]))
    assert converged
    np.testing.assert_array_equal(phi, np.zeros(1))


def test_slater_direction_at_the_box_edge_is_found():
    # the min-2-norm direction -a/|a|^2 has |phi_1| of about 1067, outside the
    # box, but phi = (-1000, -1000) gives a.phi = -1.131
    a = np.array([8e-4, 3.31e-4])
    assert np.max(np.abs(a / a.dot(a))) > SLATER_BOX_BOUND
    phi, converged = slater_direction(np.zeros((0, 2)), a.reshape(1, 2))
    assert converged
    assert a @ phi <= -1.0
    assert np.max(np.abs(phi)) <= SLATER_BOX_BOUND


def test_slater_direction_at_the_box_edge_with_equality_row():
    # J1 = e_3 fixes phi_3 = 0; in the remaining plane the row is the one above
    J1 = np.array([[0.0, 0.0, 1.0]])
    J2a = np.array([[8e-4, 3.31e-4, 1.0]])
    phi, converged = slater_direction(J1, J2a)
    assert converged
    assert abs(phi[2]) <= 1e-8
    assert (J2a @ phi)[0] <= -1.0 + 1e-8
    assert np.max(np.abs(phi)) <= SLATER_BOX_BOUND


def test_slater_direction_just_past_the_box_edge_is_rejected():
    # the best box direction (-1000, -1000) reaches only a.phi = -0.999
    phi, converged = slater_direction(np.zeros((0, 2)), np.array([[5e-4, 4.99e-4]]))
    assert converged
    np.testing.assert_array_equal(phi, np.zeros(2))


def test_slater_direction_is_certified_before_the_solve_converges():
    J2a = np.array([[1.0, 0.0], [0.0, 2.0]])
    phi, certified = slater_direction(np.zeros((0, 2)), J2a, iter_cap=1)
    assert certified
    assert np.all(J2a @ phi <= -1.0)


def test_slater_unconverged_without_direction_is_reported():
    phi, converged = slater_direction(np.zeros((0, 2)), np.array([[1.0, 0.0], [-2.0, 0.0]]),
                                      iter_cap=1)
    assert not converged
    np.testing.assert_array_equal(phi, np.zeros(2))


def test_slater_empty_active_set():
    phi, converged = slater_direction(np.array([[1.0, 0.0]]), np.zeros((0, 2)))
    assert converged
    np.testing.assert_array_equal(phi, np.zeros(2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(n=2, m=0, a=2, negate=True, seed=0)  # a row and its negation: no direction
def test_slater_direction_follows_gordans_alternative(n, m, a, negate, seed):
    # Either a direction certifies itself, or the hull of the projected active
    # rows (the grid oracle over conv{a_i} + range(J1^T)) reaches about 0.
    # Rows this size put any direction deep inside the box, so this checks
    # existence only; 2e-3 is the grid's own error, and the box limit is
    # tested below.  The grid's k = 3, m = 1 case takes tens of seconds,
    # hence a + m <= 3.
    assume(a + m <= 3)
    rng = np.random.default_rng(seed)
    # unit J1 rows and entries in [-1/2, 1/2] keep the grid's z1 within its box
    J1 = rng.uniform(-1.0, 1.0, size=(m, n))
    J1 /= np.linalg.norm(J1, axis=1, keepdims=True)
    J2a = rng.uniform(-0.5, 0.5, size=(a, n))
    if negate and a >= 2:
        J2a[-1] = -J2a[0]
    phi, converged = slater_direction(J1, J2a)
    if phi.any():
        assert np.all(np.abs(J1 @ phi) <= 1e-8)
        assert np.all(J2a @ phi <= -1.0 + 1e-8)
        assert np.max(np.abs(phi)) <= SLATER_BOX_BOUND
    elif converged:
        oracle = grid_min_residual(J2a.T, J1 if m else None)
        assert oracle <= 1.0 / SLATER_BOX_BOUND + 2e-3


def grid_min_l1(J2a, J1=None, step=1e-3):
    """Brute-force oracle: min |J2a^T lam + J1^T z1|_1 over a grid of lam in
    the simplex (a <= 3) and z1 (m <= 1, unit row), with the grid's error bound.

    By LP duality, min over phi in the box and null(J1) of max_i a_i.phi is
    -SLATER_BOX_BOUND times this minimum: a direction with J2a phi < -1 exists
    iff SLATER_BOX_BOUND * min > 1.
    """
    a = J2a.shape[0]
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if a == 1:
        lams = np.array([[1.0]])
    elif a == 2:
        lams = np.column_stack([ticks, 1.0 - ticks])
    else:
        a_grid, b_grid = np.meshgrid(ticks, ticks, indexing="ij")
        mask = a_grid + b_grid <= 1.0 + 1e-12
        lams = np.column_stack([a_grid[mask], b_grid[mask], 1.0 - a_grid[mask] - b_grid[mask]])
    points = lams @ J2a
    row_l1 = float(np.max(np.sum(np.abs(J2a), axis=1)))
    error = 4.0 * step * row_l1  # any lam is within 4 step (l1) of a grid lam
    if J1 is None:
        return float(np.min(np.sum(np.abs(points), axis=1))), error
    # the optimal z1 has |z1| <= 2 |J2a^T lam|_1 / |J1|_1 <= 2 row_l1
    z_step = 2.0 * row_l1 * step
    row = J1[0]
    best = min(float(np.min(np.sum(np.abs(points + z1 * row), axis=1)))
               for z1 in np.arange(-2.0 * row_l1, 2.0 * row_l1 + z_step / 2, z_step))
    return best, error + z_step / 2 * float(np.sum(np.abs(row)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1), st.integers(1, 3), st.floats(-3.5, -2.5),
       st.integers(0, 2**32 - 1))
def test_slater_direction_decides_the_box(n, m, a, log_scale, seed):
    # Rows of size about 1e-3 put the directions near the box edge, where the
    # min-norm direction can leave a box that still holds another direction.
    assume(a + m <= 3)
    rng = np.random.default_rng(seed)
    J1 = rng.uniform(-1.0, 1.0, size=(m, n))
    J1 /= np.linalg.norm(J1, axis=1, keepdims=True)
    J2a = rng.uniform(-1.0, 1.0, size=(a, n)) * 10.0 ** log_scale
    phi, converged = slater_direction(J1, J2a)
    if phi.any():
        assert np.all(np.abs(J1 @ phi) <= 1e-8)
        assert np.all(J2a @ phi <= -1.0 + 1e-8)
        assert np.max(np.abs(phi)) <= SLATER_BOX_BOUND
    elif converged:
        oracle, error = grid_min_l1(J2a, J1 if m else None)
        assert SLATER_BOX_BOUND * (oracle - error) <= 1.0


# --- the step 1 / lambda_max(H) -------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1), (2, 34), (5, 41), (50, 131)])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_step_is_the_inverse_top_eigenvalue(shape, scale):
    # lambda_max(2 A^T A) = 2 |A|_2^2, with |A|_2 from an SVD of A
    A = np.random.default_rng(shape[1]).normal(size=shape) * scale
    expected = 1.0 / (2.0 * np.linalg.norm(A, 2) ** 2)
    assert spectral_upper_step(2.0 * (A.T @ A)) == pytest.approx(expected, rel=1e-12)


def test_step_of_a_zero_matrix_is_zero():
    assert spectral_upper_step(np.zeros((3, 3))) == 0.0


def test_subnormal_normal_matrix_returns_the_start_point():
    # H = 2 A^T A is all subnormal: 1 / lambda_max would overflow to an
    # infinite step, so it counts as zero and the start point is returned
    result = solve_structured_ls(np.array([[1e-155, 2e-155]]))
    assert result.lam.tolist() == [0.5, 0.5]
    assert result.iterations == 0
    assert result.converged


def test_huge_finite_normal_matrix_keeps_its_step():
    # H = 2 A^T A has entries near 1e155; its top eigenvalue is taken on H
    # scaled by a power of two, so the step stays finite and nonzero and the
    # loop runs, where a step of 0 would return the start point after 0 iterations
    result = solve_structured_ls(np.array([[1e77, 2e77]]))
    assert result.lam.tolist() == [1.0, 0.0]
    assert result.iterations > 0
    assert result.converged
    assert result.residual == 1e77


# --- bitwise oracle: the plain projected-gradient loop ------------------------
# solve_structured_ls runs on preallocated buffers; this unbuffered loop is
# the reference its iterates must equal bit for bit.

# the reference loop keeps no dual bound, so it returns these fields only
ReferenceResult = namedtuple("ReferenceResult", "lam z1 z2_active residual converged iterations")


def _reference_structured_ls(G, J1, J2a, iter_cap, tol):
    n, k = G.shape
    J1 = np.zeros((0, n)) if J1 is None else J1
    J2a = np.zeros((0, n)) if J2a is None else J2a
    m = J1.shape[0]
    A = np.hstack([G, J1.T, J2a.T])

    def project(x):
        out = x.copy()
        out[:k] = project_simplex(out[:k])
        out[k + m:] = np.maximum(out[k + m:], 0.0)
        return out

    x = np.zeros(A.shape[1])
    x[:k] = 1.0 / k
    H = 2.0 * (A.T @ A)
    step = spectral_upper_step(H)
    if step == 0.0:
        return ReferenceResult(x[:k], x[k:k + m], x[k + m:], float(np.linalg.norm(A @ x)), True, 0)
    converged, iterations = False, 0
    for it in range(1, iter_cap + 1):
        x_new = project(x - step * (H @ x))
        pg_norm = float(np.linalg.norm(x - x_new)) / step
        x = x_new
        iterations = it
        if pg_norm <= tol:
            converged = True
            break
    return ReferenceResult(x[:k], x[k:k + m], x[k + m:], float(np.linalg.norm(A @ x)),
                           converged, iterations)


def _assert_bitwise_equal(result, reference):
    for field in ("lam", "z1", "z2_active"):
        assert np.array_equal(getattr(result, field), getattr(reference, field)), field
    assert result.residual == reference.residual
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2), st.integers(0, 3),
       st.integers(1, 400), st.sampled_from([1e-10, 1e-6, 1e-3]), st.integers(0, 2**32 - 1))
def test_buffered_loops_match_reference_bitwise(n, k, m, a, iter_cap, tol, seed):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, k))
    J1 = rng.normal(size=(m, n)) if m else None
    J2a = rng.normal(size=(a, n)) if a else None
    result = solve_structured_ls(G, J1=J1, J2_active=J2a, iter_cap=iter_cap, tol=tol)
    _assert_bitwise_equal(result, _reference_structured_ls(G, J1, J2a, iter_cap, tol))


def test_buffered_loop_matches_reference_at_scale():
    # the shape of a Q50 verify: 130 sampled gradients in R^50, one equality
    rng = np.random.default_rng(50)
    G, J1 = rng.normal(size=(50, 130)), rng.normal(size=(1, 50))
    result = solve_structured_ls(G, J1=J1, iter_cap=2000)
    _assert_bitwise_equal(result, _reference_structured_ls(G, J1, None, 2000, 1e-10))


# --- dual lower bound and the early stop it allows ---------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2), st.integers(0, 3),
       st.integers(1, 400), st.sampled_from([1e-10, 1e-6, 1e-3]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 3.0))
@example(n=4, k=6, m=1, a=2, iter_cap=400, tol=1e-10, seed=7, stop_above=0.5)  # stops at 200
def test_early_stop_is_a_prefix_of_the_reference_run(n, k, m, a, iter_cap, tol, seed, stop_above):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, k))
    J1 = rng.normal(size=(m, n)) if m else None
    J2a = rng.normal(size=(a, n)) if a else None
    result = solve_structured_ls(G, J1=J1, J2_active=J2a, iter_cap=iter_cap, tol=tol,
                                 stop_above=stop_above)
    # the early stop only cuts the iterate sequence short
    _assert_bitwise_equal(result, _reference_structured_ls(G, J1, J2a, result.iterations, tol))
    full = _reference_structured_ls(G, J1, J2a, iter_cap, tol)
    assert (result.residual <= stop_above) == (full.residual <= stop_above)
    assert result.lower_bound <= full.residual * (1.0 + 1e-9)
    if result.iterations < full.iterations:
        assert stop_above < result.lower_bound
        assert result.residual <= (1.0 + GAP_RTOL) * result.lower_bound * (1.0 + 1e-12)


@pytest.mark.parametrize("G,J1,J2a", GRID_CASES)
def test_lower_bound_below_grid_oracle(G, J1, J2a):
    G = np.asarray(G, dtype=float)
    result = solve_structured_ls(G, J1=J1, J2_active=J2a, stop_above=0.0)
    assert result.lower_bound <= grid_min_residual(G, J1, J2a) + 2e-3


def test_lower_bound_ignores_round_off_at_a_stationary_point():
    # P2 vertices: the optimal residual is 0, and at the solution w = P r is
    # round-off (about 1e-27) along range(J1^T) as much as off it; dotted with
    # G instead of P G it would "prove" a residual of 0.316
    G, J1 = np.eye(2), np.array([[1.0, 1.0]])
    result = solve_structured_ls(G, J1=J1, stop_above=1e-9)
    plain = solve_structured_ls(G, J1=J1)
    assert result.iterations == plain.iterations
    assert result.converged
    assert result.residual <= 1e-9
    assert result.lower_bound <= 1e-9

