"""The wrong or fragile verdicts of ROADMAP's table, one test per row.

Each test asserts the right verdict (or value), derived by hand.  A row
that is still wrong is marked xfail(strict=True) with the open item that
fixes it as the reason, so a change that fixes the row turns its test into
a strict XPASS, which fails the run: that change removes the marker.  A row
that holds at every seed is an ordinary test.  The verdicts are taken at
the default options and seed 42, and the near-kink rows at seeds 0-19, as
tools/seed_census.py runs them.
"""
import numpy as np
import pytest

from clarke_kkt.gendir import estimate_gen_dir_deriv
from clarke_kkt.kkt import verify_stationarity
from clarke_kkt.problem import parse_problem
from clarke_kkt.subdiff import membership_test
from clarke_kkt.suite import family_text, registry

SEEDS = range(20)
P1 = registry()[0].problem  # abs(x1)


def _verdict(text, point, **options):
    return verify_stationarity(parse_problem(text), np.asarray(point, dtype=float), **options).verdict


@pytest.mark.xfail(strict=True, reason="items 2 and 10: the capped multiplier solve")
def test_p4_minimizer_is_stationary_at_tight_eps_stat():
    p4 = registry()[3]
    assert verify_stationarity(p4.problem, np.asarray(p4.minimizer), eps_stat=1e-4).verdict == "stationary"


@pytest.mark.xfail(strict=True, reason="item 2: the capped multiplier solve")
def test_m50_minimizer_is_stationary():
    assert _verdict(family_text("M", 50), np.zeros(50)) == "stationary"


@pytest.mark.xfail(strict=True, reason="items 2 and 3: a steep multiplier, z1 = 1e4")
def test_small_constraint_rows_certify_their_large_multiplier():
    # g + z1 * 1e-4 * (1, -1) + z2 * 1e-4 * (-1, 0) = 0 at z1 = 1e4, z2 = 2e4
    prob = parse_problem("dim 2\nobjective x1 + x2\neq 1e-4 * (x1 - x2)\nineq -1e-4 * x1\n")
    report = verify_stationarity(prob, np.zeros(2))
    assert report.verdict == "stationary"
    np.testing.assert_allclose(report.certificate.z1, [1e4], rtol=1e-6)


@pytest.mark.xfail(strict=True, reason="item 3: eps_stat is absolute")
def test_small_linear_objective_has_no_stationary_point():
    assert _verdict("dim 1\nobjective 1e-3 * x1\n", [0.0]) == "not_stationary"


@pytest.mark.xfail(strict=True, reason="items 2 and 3: eps_stat is absolute")
def test_huge_abs_is_stationary_at_its_kink():
    assert _verdict("dim 1\nobjective 1e77 * abs(x1)\n", [0.0]) == "stationary"


@pytest.mark.parametrize("point", [
    pytest.param(1e-4, marks=pytest.mark.xfail(strict=True, reason="items 10 and 14")),
    pytest.param(5e-4, marks=pytest.mark.xfail(strict=True, reason="items 10 and 14")),
    pytest.param(5e-7, marks=pytest.mark.xfail(strict=True, reason="items 10 and 14")),
    pytest.param(1e-3, marks=pytest.mark.xfail(strict=True, reason="items 10 and 14")),
    -1e-3,
])
def test_abs_is_not_stationary_off_its_kink_at_every_seed(point):
    # the subgradient set at point != 0 is {sign(point)}, which excludes 0
    stationary_at = [seed for seed in SEEDS
                     if verify_stationarity(P1, np.array([point]), seed=seed).verdict != "not_stationary"]
    assert stationary_at == []


@pytest.mark.xfail(strict=True, reason="item 7: the sampled hull misses the corners")
def test_membership_of_a_point_inside_the_box_subdifferential():
    # the subgradient set of -|x1| - ... - |x20| at 0 is [-1, 1]^20
    prob = parse_problem("dim 20\nobjective -" + " - ".join(f"abs(x{i})" for i in range(1, 21)))
    member, _ = membership_test(prob, np.zeros(20), np.full(20, 0.9))
    assert member


@pytest.mark.xfail(strict=True, reason="items 9 and 14: a difference across the pole")
def test_reciprocal_estimate_is_not_positive_beside_its_pole():
    # f°(1e-3; +1) = -1 / 1e-3**2 = -1e6
    prob = parse_problem("dim 1\nobjective 1 / x1\n")
    assert estimate_gen_dir_deriv(prob, [1e-3], [1.0]).value <= 0.0


# --- the paper's two models, discretized (ROADMAP item 8) ------------------------

def _model_minimizer(n):
    """(u, plateau slopes, z1) of min sum d_i^2 / (2h) + |d_i| s.t. h * sum u_i = 5/48.

    d_i = u_{i+1} - u_i for i = 0..n with u_0 = u_{n+1} = 0 and h = 1/(n+1).
    The edges rise on [0, 1/4], fall on [3/4, 1] and are flat between, where
    the slopes s of |d_i| are free; the KKT system is then linear.
    """
    h = 1.0 / (n + 1)
    a, b = (n + 1) // 4, 3 * (n + 1) // 4
    D = np.zeros((n + 1, n))  # u -> d
    D[np.arange(n), np.arange(n)] = 1.0
    D[np.arange(1, n + 1), np.arange(n)] = -1.0
    sign = np.where(np.arange(n + 1) < a, 1.0, -1.0)
    sign[a:b] = 0.0
    k = b - a
    A = np.zeros((n + k + 1, n + k + 1))
    rhs = np.zeros(n + k + 1)
    A[:n, :n] = D.T @ D / h  # gradient rows: D^T (D u / h + sign + s) + z1 h = 0
    A[:n, n:n + k] = D.T[:, a:b]
    A[:n, -1] = h
    rhs[:n] = -D.T @ sign
    A[n:n + k, :n] = D[a:b]  # flat edges
    A[-1, :n] = h
    rhs[-1] = 5 / 48
    solution = np.linalg.solve(A, rhs)
    return solution[:n], solution[n:n + k], solution[-1]


def _model_text(n):
    """W_n: the symmetry equality h * sum (x_i - 1/2) u_i = 0 and h * sum u_i >= 5/48.

    V_n, the same objective under h * sum u_i = 5/48 alone, shares the
    minimizer and the defect; its capped solve would cost another 0.5 s.
    """
    h = 1.0 / (n + 1)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ds = [xs[0]] + [f"{xs[i + 1]} - {xs[i]}" for i in range(n - 1)] + [f"-{xs[-1]}"]
    objective = " + ".join(f"{(n + 1) // 2} * pow({d}, 2) + abs({d})" for d in ds)
    symmetry = " + ".join(f"{(i + 1) * h - 0.5!r} * {x}" for i, x in enumerate(xs))
    return (f"dim {n}\nobjective {objective}\neq {h!r} * ({symmetry})\n"
            f"ineq {5 / 48!r} - {h!r} * ({' + '.join(xs)})\n")


def test_model_minimizer_solves_its_kkt_system():
    u, slopes, z1 = _model_minimizer(15)
    assert np.all(np.abs(slopes) <= 1.0)  # the flat edges' slopes lie in [-1, 1]
    assert z1 == pytest.approx(-4.008949, abs=1e-6)  # -> -4 at O(h^2)
    np.testing.assert_allclose(u, u[::-1], atol=1e-15)
    assert np.sum(u) / 16 == pytest.approx(5 / 48, rel=1e-14)


@pytest.mark.xfail(strict=True, reason="item 7: the sampled hull misses the flat edges' slopes")
def test_model_minimizer_is_stationary():
    # z_sym = 0 and z2 = -z1 = 4.008949 certify it
    assert _verdict(_model_text(15), _model_minimizer(15)[0]) == "stationary"
