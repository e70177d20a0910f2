"""Structured least-squares solver, simplex projection, and Slater direction."""
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clarke_kkt import solver
from clarke_kkt.errors import EstimationFailureError
from clarke_kkt.solver import (
    GAP_RTOL,
    SLATER_MARGIN,
    slater_direction,
    solve_structured_ls,
    spectral_upper_step,
    unit_rows,
)


# --- simplex projection -----------------------------------------------------
# The reference loop below projects with this plain sort-based copy; the
# solver inlines the same operations on its buffers.

def project_simplex(v, rhos=None):
    """Euclidean projection onto the probability simplex (sort-based); appends
    its support size rho to the list rhos if one is given."""
    v = np.asarray(v, dtype=float)
    k = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    if rhos is not None:
        rhos.append(rho)
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


def test_unit_rows_are_overflow_safe():
    # 3e200 and 4e200 square to inf, 1e-320 to 0; a zero row stays zero and a
    # non-finite row counts as infinitely long
    M = np.array([[3e200, -4e200], [1e-320, 0.0], [0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]])
    with np.errstate(all="raise"):
        unit, norms = unit_rows(M)
    np.testing.assert_allclose(unit[:3], [[0.6, -0.8], [1.0, 0.0], [0.0, 0.0]], rtol=1e-15)
    np.testing.assert_allclose(norms, [5e200, 1e-320, 0.0, np.inf, np.inf], rtol=1e-15)


def test_slater_huge_row_gives_a_tiny_direction():
    # 1e160 squared overflows, but the solve sees the unit row
    phi, converged = slater_direction(np.zeros((0, 1)), np.array([[1e160]]))
    assert converged
    assert phi[0] == pytest.approx(-1e-160, rel=1e-15)


def test_slater_direction_beyond_the_largest_float_is_none():
    # the row 1e-310 would need phi = -1e310, which no float holds
    with np.errstate(all="raise"):
        phi, converged = slater_direction(np.zeros((0, 1)), np.array([[1e-310]]))
    assert converged
    np.testing.assert_array_equal(phi, np.zeros(1))


def test_slater_direction_of_a_tiny_row_is_found():
    # g <= 0 and 1e-4 g <= 0 are one constraint: phi = -1e4 meets the raw row
    phi, converged = slater_direction(np.zeros((0, 1)), np.array([[1e-4]]))
    assert converged
    assert 1e-4 * phi[0] <= -1.0


def test_slater_direction_at_the_box_edge_is_found():
    # "box edge": rows whose directions lie near |phi|_inf = 1000; the answer
    # is the min-2-norm direction -a/|a|^2, whatever its length
    a = np.array([[8e-4, 3.31e-4]])
    phi, converged = slater_direction(np.zeros((0, 2)), a)
    assert converged
    assert (a @ phi)[0] <= -1.0
    np.testing.assert_allclose(phi, -a[0] / a[0].dot(a[0]), rtol=1e-12)


def test_slater_direction_just_past_the_box_edge_is_found():
    # no direction with |phi|_inf <= 1000 reaches a.phi <= -1 (best -0.999)
    a = np.array([[5e-4, 4.99e-4]])
    phi, converged = slater_direction(np.zeros((0, 2)), a)
    assert converged
    assert (a @ phi)[0] <= -1.0
    np.testing.assert_allclose(phi, -a[0] / a[0].dot(a[0]), rtol=1e-12)


def test_slater_direction_at_the_box_edge_with_equality_row():
    # J1 = e_3 fixes phi_3 = 0.  For the row (8e-4, 3.31e-4, 1) the unit row
    # projected off e_3 is 8.66e-4 long, so no unit direction in null(J1)
    # descends it at rate SLATER_MARGIN; with a third entry of 1e-3 it is
    # 0.65 long and the direction is found.  Neither answer moves with scale.
    J1 = np.array([[0.0, 0.0, 1.0]])
    for scale in (1e-3, 1.0, 1e3):
        steep = scale * np.array([[8e-4, 3.31e-4, 1.0]])
        phi, converged = slater_direction(J1, steep)
        assert converged
        np.testing.assert_array_equal(phi, np.zeros(3))
        mild = scale * np.array([[8e-4, 3.31e-4, 1e-3]])
        phi, converged = slater_direction(J1, mild)
        assert converged
        assert abs(phi[2]) <= 1e-8 * np.linalg.norm(phi)
        assert (mild @ phi)[0] <= -1.0 + 1e-12


def test_slater_direction_is_certified_before_the_solve_converges():
    J2a = np.array([[1.0, 0.0], [0.0, 2.0]])
    phi, certified = slater_direction(np.zeros((0, 2)), J2a, iter_cap=1)
    assert certified
    assert np.all(J2a @ phi <= -1.0)


def test_slater_unconverged_without_direction_is_reported():
    # 0 is in the hull of the unit rows, but one step from the uniform start
    # leaves a residual above SLATER_MARGIN: the capped solve decides nothing
    phi, converged = slater_direction(np.zeros((0, 2)),
                                      np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, -3.0]]), iter_cap=1)
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
    # unit rows (the grid oracle over conv{a_i / |a_i|} + range(J1^T)) reaches
    # below SLATER_MARGIN; 2e-3 is the grid's own error.  The grid's k = 3,
    # m = 1 case takes tens of seconds, hence a + m <= 3.
    assume(a + m <= 3)
    rng = np.random.default_rng(seed)
    # unit J1 rows keep the grid's z1 within its box
    J1 = rng.uniform(-1.0, 1.0, size=(m, n))
    J1 /= np.linalg.norm(J1, axis=1, keepdims=True)
    J2a = rng.uniform(-0.5, 0.5, size=(a, n))
    if negate and a >= 2:
        J2a[-1] = -J2a[0]
    phi, converged = slater_direction(J1, J2a)
    if phi.any():
        assert np.all(np.abs(J1 @ phi) <= 1e-8 * np.linalg.norm(phi))
        assert np.all(J2a @ phi <= -1.0 + 1e-8)
    elif converged:
        oracle = grid_min_residual((J2a / np.linalg.norm(J2a, axis=1, keepdims=True)).T,
                                   J1 if m else None)
        assert oracle <= SLATER_MARGIN + 2e-3


GRID_ANGLES = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
GRID_ERROR = np.pi / GRID_ANGLES.size  # min_i(-a_i . phi) is 1-Lipschitz on unit rows


def grid_max_margin(rows):
    """Brute-force oracle: max over a grid of the unit circle of min_i(-a_i . phi)
    for unit rows a_i in R^2, within GRID_ERROR of the true maximum."""
    circle = np.column_stack([np.cos(GRID_ANGLES), np.sin(GRID_ANGLES)])
    return float(np.max(np.min(-(circle @ rows.T), axis=1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(-8.0, 8.0)), min_size=1, max_size=3),
       st.floats(0.0, 2.0 * np.pi))
@example(rows=[(0.0, 0.0), (np.pi - 2.2e-3, 5.0)], turn=0.3)  # margin 1.1e-3: found
@example(rows=[(0.0, -6.0), (np.pi - 1.8e-3, 0.0)], turn=1.0)  # margin 0.9e-3: none
@example(rows=[(0.0, 0.0), (2.0, 3.0), (4.0, -3.0)], turn=0.0)  # 0 in the hull
def test_slater_verdict_matches_a_unit_circle_grid(rows, turn):
    # Rows at the given angles (plus a common turn) with lengths 10^e: a
    # direction is found iff the best uniform descent rate of a unit direction
    # on the unit rows reaches SLATER_MARGIN, whatever the rows' lengths.
    angles = np.array([angle for angle, _ in rows]) + turn
    unit = np.column_stack([np.cos(angles), np.sin(angles)])
    J2a = unit * (10.0 ** np.array([exponent for _, exponent in rows]))[:, None]
    best = grid_max_margin(unit)
    assume(abs(best - SLATER_MARGIN) > GRID_ERROR)
    phi, converged = slater_direction(np.zeros((0, 2)), J2a)
    assert converged
    assert phi.any() == (best > SLATER_MARGIN)
    if phi.any():
        assert np.all(J2a @ phi <= -1.0 + 1e-9)


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


def _reference_structured_ls(G, J1, J2a, iter_cap, tol, rhos=None, pgs=None):
    """The plain loop; appends each projection's support size to the list rhos
    and each iteration's projected-gradient norm to the list pgs if given."""
    n, k = G.shape
    J1 = np.zeros((0, n)) if J1 is None else J1
    J2a = np.zeros((0, n)) if J2a is None else J2a
    m = J1.shape[0]
    A = np.hstack([G, J1.T, J2a.T])

    def project(x):
        out = x.copy()
        out[:k] = project_simplex(out[:k], rhos)
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
        if pgs is not None:
            pgs.append(pg_norm)
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


def _reference_lower_bound(G, J1, J2a, reference):
    """The dual lower bound at the reference run's exit point, built as the solver builds it."""
    n = G.shape[0]
    J1 = np.zeros((0, n)) if J1 is None else J1
    J2a = np.zeros((0, n)) if J2a is None else J2a
    Q = np.linalg.qr(J1.T)[0]
    r = np.hstack([G, J1.T, J2a.T]) @ np.concatenate([reference.lam, reference.z1, reference.z2_active])
    return solver._dual_lower_bound(Q, G - Q @ (Q.T @ G), J2a.T - Q @ (Q.T @ J2a.T), r)


def test_full_support_iterations_match_reference_bitwise():
    # P4's shape (n = 2, k = 34, m = 1): gradients of (x1 - 1)^2 + x2^2 within
    # 1e-3 of (1/2, -1/2).  The capped run keeps every weight (rho = k) in
    # every iteration, so each projection takes the full-support shortcut.
    points = np.array([0.5, -0.5]) + np.random.default_rng(4).uniform(-1e-3, 1e-3, size=(34, 2))
    G = np.vstack([2.0 * (points[:, 0] - 1.0), 2.0 * points[:, 1]])
    J1 = np.array([[1.0, 1.0]])
    rhos = []
    reference = _reference_structured_ls(G, J1, None, 3000, 1e-10, rhos)
    result = solve_structured_ls(G, J1=J1, iter_cap=3000)
    assert set(rhos) == {34} and len(rhos) == 3000
    _assert_bitwise_equal(result, reference)
    assert not result.converged
    assert result.lower_bound == _reference_lower_bound(G, J1, None, reference)


def test_moving_support_iterations_match_reference_bitwise():
    # B3-like: sign patterns of |x1| + |x2| + x3 at 0, one far column (3, 2, 1)
    # and the cone row of -x3 <= 0.  The support size rho moves between k and
    # below k, so both the shortcut and the general projection run.
    rng = np.random.default_rng(4)
    G = np.vstack([rng.choice([-1.0, 1.0], size=(2, 8)), np.ones((1, 8))])
    G[:2, 0] = [3.0, 2.0]
    J2a = np.array([[0.0, 0.0, -1.0]])
    rhos = []
    reference = _reference_structured_ls(G, None, J2a, 3000, 1e-10, rhos)
    result = solve_structured_ls(G, J2_active=J2a, iter_cap=3000)
    assert 8 in rhos and min(rhos) < 8
    _assert_bitwise_equal(result, reference)
    assert result.converged
    assert result.lower_bound == _reference_lower_bound(G, None, J2a, reference)


# The solver tests its stop rule at every iteration only while pg predicts a
# stop within 1.5 blocks of BLOCK iterations; other blocks are screened at
# their end (solver module docstring). The cases below reach those blocks.

def _b5_shape():
    # B5 at 0: sign patterns of |x1| + ... + |x4| + x5, and the cone row of -x5 <= 0
    rng = np.random.default_rng(0)
    G = np.vstack([rng.choice([-1.0, 1.0], size=(4, 40)), np.ones((1, 40))])
    return G, np.array([[0.0, 0.0, 0.0, 0.0, -1.0]])


@pytest.mark.parametrize("iter_cap,at", [(2000, 301), (2000, 350), (2000, 400), (2000, 401),
                                         (2000, 1001), (2000, None), (250, None), (1001, None)])
def test_screened_blocks_match_reference_bitwise(iter_cap, at):
    # tol is the reference's pg at iteration `at` (1e-10 if None), so the run
    # stops at `at`: inside a block, or on its last iteration (400). pg falls
    # by a factor 0.141 per block, so the trend finds each stop 1.5 blocks
    # ahead: the blocks from 200 to there are screened (none for 301, up to
    # 1100 for None), and the caps 250 and 1001 end a screened block early.
    G, J2a = _b5_shape()
    pgs = []
    _reference_structured_ls(G, None, J2a, iter_cap, 1e-10, pgs=pgs)
    tol = 1e-10 if at is None else pgs[at - 1]
    reference = _reference_structured_ls(G, None, J2a, iter_cap, tol)
    result = solve_structured_ls(G, J2_active=J2a, iter_cap=iter_cap, tol=tol)
    assert reference.iterations == (min(len(pgs), iter_cap) if at is None else at)
    _assert_bitwise_equal(result, reference)
    assert result.lower_bound == _reference_lower_bound(G, None, J2a, reference)


@pytest.mark.parametrize("tol", [0.0, 5e-324, 1e-160])
def test_steps_with_subnormal_squares_match_reference_bitwise(tol):
    # z1 tends to 1e-140, so its last ~100 steps are below 1.5e-154 and their
    # squares subnormal, and then the iterate stops moving: pg drops from
    # about 3e-3 to exactly 0 within a screened block, and every tol stops there
    rng = np.random.default_rng(0)
    G, J1, J2a = rng.normal(size=(2, 4)) * 1e-63, rng.normal(size=(2, 2)) * 1e76, rng.normal(size=(1, 2)) * 1e76
    pgs = []
    reference = _reference_structured_ls(G, J1, J2a, 3000, tol, pgs=pgs)
    A = np.hstack([G, J1.T, J2a.T])
    step = spectral_upper_step(2.0 * (A.T @ A))
    assert sum(0.0 < pg * step < 1.5e-154 for pg in pgs) > 50
    assert reference.converged and pgs[-1] == 0.0 and pgs[-2] > 1e-3
    result = solve_structured_ls(G, J1=J1, J2_active=J2a, iter_cap=3000, tol=tol)
    _assert_bitwise_equal(result, reference)


def test_moving_iterate_whose_pg_underflows_matches_reference_bitwise():
    # step is about 1.8e307, so a step d of a few ulps of the weights gives
    # |d| / step < 2^-1075: a pg of exactly 0, which stops at tol = 0 while
    # the iterate still moves. pg read 1.5e-323 and 1e-323 at the last two
    # block ends, so the stop's block is screened, with a threshold above 0
    rng = np.random.default_rng(439)
    G = np.ldexp(rng.normal(size=(4, 11)) + rng.normal() * 3, -513)
    pgs = []
    reference = _reference_structured_ls(G, None, None, 2000, 0.0, pgs=pgs)
    before = _reference_structured_ls(G, None, None, reference.iterations - 1, -1.0)
    assert reference.iterations == 435 and pgs[-1] == 0.0 and not np.array_equal(before.lam, reference.lam)
    assert pgs[299] == 1.5e-323 and pgs[399] == 1e-323
    result = solve_structured_ls(G, iter_cap=2000, tol=0.0)
    _assert_bitwise_equal(result, reference)


@pytest.mark.parametrize("at", [None, 1375, 1400])
def test_screened_block_past_a_sudden_stop_matches_reference_bitwise(at):
    # pg creeps from 2.7e-2 to 8.6e-3 over 1 366 iterations, then falls below
    # 1e-4 within five and keeps falling: the trend predicts no stop, so the
    # block 1300-1400 is screened. tol is 1e-10 (a stop at 1387) or the
    # reference's pg at `at`, a stop inside the block or on its last
    # iteration, after its objective guard; the iterations the block ran
    # past the stop are dropped
    rng = np.random.default_rng(49)
    G, J1 = rng.normal(size=(2, 6)), rng.normal(size=(1, 2))
    pgs = []
    _reference_structured_ls(G, J1, None, 1400, -1.0, pgs=pgs)
    assert pgs[1199] / pgs[1299] < 1.1 and pgs[1365] > 8e-3 and pgs[1370] < 1e-4
    tol = 1e-10 if at is None else pgs[at - 1]
    reference = _reference_structured_ls(G, J1, None, 5000, tol)
    assert reference.iterations == (1387 if at is None else at) and reference.converged
    result = solve_structured_ls(G, J1=J1, iter_cap=5000, tol=tol)
    _assert_bitwise_equal(result, reference)


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

