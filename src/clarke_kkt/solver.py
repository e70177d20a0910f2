"""Projected-gradient solver for multiplier recovery and the Slater check.

One solver, two uses.  solve_structured_ls minimizes a structured
least-squares program over simplex x free x nonnegative blocks; it is convex
with a Lipschitz gradient, and the constant step 1/L with L the top
eigenvalue of its Hessian (from LAPACK) guarantees a non-increasing
objective.  The multipliers are its minimizer over the sampled
subdifferential.  slater_direction calls it on the active inequality rows
a_i projected off range(J1^T): by Gordan's alternative a strictly feasible
direction exists iff the min-norm point w of that hull is nonzero (Wolfe
1976), and then phi = -w / min_i(a_i . w) is one.  When that phi leaves the
box |phi|_inf <= SLATER_BOX_BOUND, the same alternative on homogenized rows,
the box's included, decides whether another direction fits.

The loop runs on buffers allocated once per call and writes every
intermediate through ``out=``. Each floating-point operation keeps the order
and the operands of the plain step ``x <- project(x - step * (H @ x))``, so
the iterates, and with them every verdict and certificate, are bitwise equal
to that step's; ``tests/test_solver.py`` pins this against a reference copy
of the plain loop.

The loop also keeps a dual lower bound on its optimal residual and stops
once that bound exceeds ``stop_above`` and the current residual is within
``GAP_RTOL`` of it: the optimum is then proven to lie above ``stop_above``,
and more iterations could not change that. The default
``stop_above=math.inf`` never stops early.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailureError

SLATER_BOX_BOUND = 1e3
GAP_RTOL = 1e-3  # relative gap between residual and lower bound at an early stop


@dataclass(frozen=True)
class StructuredLSResult:
    lam: np.ndarray
    z1: np.ndarray
    z2_active: np.ndarray
    residual: float
    converged: bool
    iterations: int
    lower_bound: float  # proven lower bound on the optimal residual


def spectral_upper_step(H) -> float:
    """1 / lambda_max(H) for a positive semidefinite H; 0.0 for a zero matrix.

    The top eigenvalue comes from LAPACK on H scaled by a power of two, so
    that it cannot overflow.  An H whose entries are all subnormal counts as
    zero, since 1 / lambda_max could overflow.
    """
    H = np.asarray(H, dtype=float)
    top = float(np.max(np.abs(H)))
    if top < np.finfo(float).tiny:
        return 0.0
    exponent = math.frexp(top)[1]
    lam = float(np.linalg.eigvalsh(np.ldexp(H, -exponent))[-1])
    return math.ldexp(1.0 / lam, -exponent)


def _dual_lower_bound(Q, PG, PC, r):
    """Lower bound on min ||G lam + J1^T z1 + J2a^T z2|| from the residual r of an iterate.

    P y = y - Q (Q^T y) projects off range(J1^T), PG = P G and PC = P J2a^T.
    With w = P r: if PC^T w >= 0, every feasible residual vector v has
    <v, w> = <P v, w> >= min(PG^T w), so ||v|| >= min(PG^T w) / ||w||
    (Cauchy-Schwarz).  The products go through PG, not G: at a stationary
    point w is round-off whose range(J1^T) part G would pick up.
    """
    w = r - Q @ (Q.T @ r)
    norm_w = math.sqrt(w.dot(w))
    if norm_w == 0.0 or np.any(PC.T @ w < 0.0):
        return 0.0
    return max(0.0, float(np.min(PG.T @ w)) / norm_w)


def solve_structured_ls(G, J1=None, J2_active=None, iter_cap=50000, tol=1e-10, *,
                        stop_above=math.inf) -> StructuredLSResult:
    """Minimize ||G lam + J1^T z1 + J2_active^T z2||^2 over the product set
    simplex(k) x R^m x R^a_{>=0} by projected gradient descent.

    G is n x k (columns are subdifferential samples); J1 is m x n; J2_active
    is a x n.  Terminates when the projected-gradient norm drops below tol
    or at iter_cap (then converged=False).  It also stops (converged=False)
    once the dual lower bound exceeds stop_above with the residual within
    GAP_RTOL of it; lower_bound reports the bound at exit.  Raises
    EstimationFailureError when the normal matrix is not finite or when the
    objective, checked every 100 iterations, has grown.
    """
    G = np.asarray(G, dtype=float)
    n, k = G.shape
    if k < 1:
        raise ValueError("need at least one subdifferential sample")
    J1 = np.zeros((0, n)) if J1 is None else np.asarray(J1, dtype=float).reshape(-1, n)
    J2a = np.zeros((0, n)) if J2_active is None else np.asarray(J2_active, dtype=float).reshape(-1, n)
    m, a = J1.shape[0], J2a.shape[0]
    A = np.hstack([G, J1.T, J2a.T])
    x = np.zeros(k + m + a)
    x[:k] = 1.0 / k
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        H = 2.0 * (A.T @ A)
    if not np.all(np.isfinite(H)):
        raise EstimationFailureError("multiplier least-squares matrix is not finite")
    Q = np.linalg.qr(J1.T)[0]  # n x m, orthonormal basis of range(J1^T)
    PG = G - Q @ (Q.T @ G)
    PC = J2a.T - Q @ (Q.T @ J2a.T)
    step = spectral_upper_step(H)
    if step == 0.0:
        # zero quadratic (or subnormal, below 1e-308): any feasible point, the
        # start point too, is optimal (to within 1e-154 of the residual)
        r = A @ x
        return StructuredLSResult(x[:k], x[k:k + m], x[k + m:], float(np.linalg.norm(r)), True, 0,
                                  _dual_lower_bound(Q, PG, PC, r))

    # the sort-based simplex projection and max(., 0) on x - step * (H @ x), one
    # operation per line on these buffers, so the iterates equal the plain
    # loop's bit for bit (oracle test in tests/test_solver.py). np.dot runs the
    # same BLAS product as `@`; desc > crit has the truth value of
    # desc - crit > 0 (gradual underflow).
    x_new, grad, diff = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    srt, css, crit, r = np.empty(k), np.empty(k), np.empty(k), np.empty(n)
    cond = np.empty(k, dtype=bool)
    ranks = np.arange(1.0, k + 1)
    desc, cond_rev = srt[::-1], cond[::-1]
    converged = False
    iterations = 0
    prev_obj = np.inf
    for it in range(1, iter_cap + 1):
        np.dot(H, x, out=grad)
        np.multiply(step, grad, out=x_new)
        np.subtract(x, x_new, out=x_new)
        lam = x_new[:k]
        srt[:] = lam
        srt.sort()
        np.add.accumulate(desc, out=css)
        np.subtract(css, 1.0, out=css)
        np.divide(css, ranks, out=crit)
        np.greater(desc, crit, out=cond)
        rho = k - int(cond_rev.argmax())  # the last True of cond
        np.subtract(lam, css[rho - 1] / rho, out=lam)
        np.maximum(lam, 0.0, out=lam)
        if a:
            np.maximum(x_new[k + m:], 0.0, out=x_new[k + m:])
        np.subtract(x, x_new, out=diff)
        pg_norm = math.sqrt(diff.dot(diff)) / step
        x, x_new = x_new, x
        iterations = it
        if it % 100 == 0:
            np.dot(A, x, out=r)
            obj = r.dot(r)  # ||A x||^2 = x.Hx / 2
            if not obj <= prev_obj + 1e-12 * (1.0 + abs(prev_obj)):  # a step above 2/L diverges
                raise EstimationFailureError("multiplier least-squares objective increased")
            prev_obj = obj
        if pg_norm <= tol:
            converged = True
            break
        if it % 100 == 0:
            bound = _dual_lower_bound(Q, PG, PC, r)
            if bound > stop_above and math.sqrt(obj) - bound <= GAP_RTOL * bound:
                break
    r = A @ x
    residual = float(np.linalg.norm(r))
    bound = _dual_lower_bound(Q, PG, PC, r)
    return StructuredLSResult(x[:k], x[k:k + m], x[k + m:], residual, converged, iterations, bound)


def slater_direction(J1, J2_active, iter_cap=50000):
    """phi with J1 phi = 0, (J2_active phi)_i <= -1 and |phi|_inf <= SLATER_BOX_BOUND.

    Tries phi = -w / min(J2_active w) from the min-norm point w of conv{P a_i}
    (module docstring), and when that gives none in the box, the box problem
    itself.  Returns (phi, True), or (zeros, converged) without a direction: a
    direction is certified by its own inequalities, not by the solve's
    convergence.  Raises EstimationFailureError when the normal matrix overflows.
    """
    J2a = np.asarray(J2_active, dtype=float)
    a, n = J2a.shape
    if a == 0:
        return np.zeros(n), True
    J1 = np.zeros((0, n)) if J1 is None else np.asarray(J1, dtype=float).reshape(-1, n)
    Q = np.linalg.qr(J1.T)[0]
    PA = J2a.T - Q @ (Q.T @ J2a.T)
    try:
        result = solve_structured_ls(PA, iter_cap=iter_cap)
    except EstimationFailureError as exc:
        raise EstimationFailureError("Slater normal matrix is not finite") from exc
    w = PA @ result.lam
    margin = float(np.min(J2a @ w))
    bound = SLATER_BOX_BOUND
    # compared before dividing, so a tiny margin cannot overflow phi
    if margin > 0.0 and np.max(np.abs(w)) <= bound * margin:
        return 0.0 - w / margin, True  # 0.0 - keeps -0.0 out of the report
    if bound * np.sum(np.abs(w)) < 1.0:  # a direction has 1 <= -w.phi <= |w|_1 bound
        return np.zeros(n), True
    # The box itself: y = (phi, s) with (P a_i, 1/bound).y < 0 and
    # (+-P e_j, -1).y < 0 exists iff the min-norm point v of these rows is
    # nonzero (unit rows, same answer); then y = -v and phi = bound y_phi / y_s.
    P = np.eye(n) - Q @ Q.T
    R = np.vstack([np.column_stack([PA.T, np.full(a, 1.0 / bound)]),
                   np.column_stack([P, -np.ones(n)]), np.column_stack([-P, -np.ones(n)])])
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    box = solve_structured_ls(R.T, iter_cap=iter_cap)
    v = R.T @ box.lam
    if np.min(R @ v) > 0.0:
        return 0.0 + np.clip(bound * v[:n] / v[n], -bound, bound), True
    return np.zeros(n), box.converged
