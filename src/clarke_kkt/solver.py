"""Projected-gradient solver for multiplier recovery and the Slater check.

One solver, two uses.  solve_structured_ls minimizes a structured
least-squares program over simplex x free x nonnegative blocks; it is convex
with a Lipschitz gradient, and the constant step 1/L with L the top
eigenvalue of its Hessian (from LAPACK) guarantees a non-increasing
objective.  The multipliers are its minimizer over the sampled
subdifferential.  slater_direction calls it on the active unit rows a_i
projected off range(J1^T): by Gordan's alternative, the min-norm point w of
their hull (Wolfe 1976) has |w| = max min_i(-a_i . phi) over unit phi in
null(J1), attained by -w/|w|, and a direction counts iff |w| >= SLATER_MARGIN.

The loop runs on buffers allocated once per call and writes every
intermediate through ``out=``. Each floating-point operation keeps the order
and the operands of the plain step ``x <- project(x - step * (H @ x))``, so
the iterates, and with them every verdict and certificate, are bitwise equal
to that step's; ``tests/test_solver.py`` pins this against a reference copy
of the plain loop.  The simplex projection takes a full-support shortcut:
when the sort criterion holds at the last rank (rho = k, as in every
iteration of a capped multiplier solve) it subtracts theta and skips the
criterion at the other ranks and the clip at 0, since every weight then
exceeds theta; any other case, a nan or inf included, takes the general path.

The loop runs in blocks of BLOCK = 100 iterations. At a block's last
iteration it checks that the objective has not grown, tests the stop rule
``sqrt(d.d) / step <= tol`` on the step d = x - x_new, and updates a dual
lower bound on its optimal residual, in this order. It stops once that bound
exceeds ``stop_above`` and the current residual is within ``GAP_RTOL`` of it:
the optimum is then proven to lie above ``stop_above``, and more iterations
could not change that. The default ``stop_above=math.inf`` never stops early.

The stop rule costs about a quarter of an iteration, so it runs at every
iteration only while a stop is near: in the first two blocks, and while the
projected-gradient norms pg at the last two block ends fall fast enough
that their geometric trend reaches tol within 1.5 blocks,
pg * (pg / pg_before)^1.5 <= tol. Any other block writes its iterates into
the rows of one buffer and screens them at its end: one subtraction gives
every step d_j, one einsum their squared norms s_j, and a row is flagged
when s_j <= max((2 t step)^2, 2^-1000) with t = max(tol, 2^-1074). The
flagged rows take the exact test in order, and the first that passes is the
stop: the solve returns its iterate, as the per-iteration test would have.
The screen cannot miss a stop. The exact test passes only if
|d| / step <= tol (1 + 2^-52) + 2^-1075 < 1.6 t, since the quotient rounds
to the nearest double and one below 2^-1075 reads 0 (so tol = 0 stops a
moving iterate once step exceeds |d| 2^1075). s_j and the BLAS dot differ
only in summation order and rounding (fused or not), a relative error near
n 2^-53, far inside the factor 1.5 that remains of the squared threshold;
squares of subnormal entries lose relative accuracy, so every row under
2^-1000 is flagged. A wrong prediction costs the rest of one block, and no
bit of any iterate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailureError

SLATER_MARGIN = 1e-3  # least uniform descent rate of a unit Slater direction on unit rows
GAP_RTOL = 1e-3  # relative gap between residual and lower bound at an early stop
BLOCK = 100  # iterations per objective guard, dual bound and stop screen


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
    # desc - crit > 0 (gradual underflow). step, theta and the clips' 0.0 are
    # 0-d arrays, which numpy takes faster than Python floats, with the same
    # doubles. Each x buffer's weight and cone views are made once and swap
    # with it; a block's rows get theirs when first written.
    x_new, grad, diff = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    views, views_new = (x[:k], x[k + m:]), (x_new[:k], x_new[k + m:])
    srt, css, crit, r = np.empty(k), np.empty(k), np.empty(k), np.empty(n)
    cond = np.empty(k, dtype=bool)
    ranks = np.arange(1.0, k + 1)
    desc, cond_rev = srt[::-1], cond[::-1]
    step_0d, theta, zero = np.array(step), np.empty(()), np.array(0.0)
    X = D = sq = None  # a block's iterates, their differences and squared norms
    rows = []  # (X[j], weights, cone) for the rows j = 1, 2, ... written so far
    converged = False
    iterations = 0
    prev_obj = np.inf
    pg_prev = pg_norm = math.inf
    start = 0
    while start < iter_cap:
        end = min(start + BLOCK, iter_cap)
        near = start < 2 * BLOCK or (pg_norm < pg_prev and pg_norm * (pg_norm / pg_prev) ** 1.5 <= tol)
        if not near:
            if X is None:
                X, D, sq = np.empty((BLOCK + 1, x.size)), np.empty((BLOCK, x.size)), np.empty(BLOCK)
                reach = 2.0 * max(float(tol), 5e-324) * step
                screen = max(reach * reach, 2.0 ** -1000)
            X[0] = x
            home = x, x_new
        for it in range(start + 1, end + 1):
            if near:
                lam, cone = views_new
            else:
                j = it - start
                if j > len(rows):
                    rows.append((X[j], X[j, :k], X[j, k + m:]))
                x_new, lam, cone = rows[j - 1]
            np.dot(H, x, out=grad)
            np.multiply(step_0d, grad, out=x_new)
            np.subtract(x, x_new, out=x_new)
            srt[:] = lam
            srt.sort()
            np.add.accumulate(desc, out=css)
            # Full support (rho = k): the last True of cond is k exactly when
            # cond[k - 1] holds, and `last` is crit[k - 1], so this is the same
            # compare of the same doubles, and theta = last is the general path's
            # division at rho = k. Every weight is >= srt[0] > theta, and x > y
            # gives fl(x - y) > 0 (gradual underflow), so the clip would change
            # nothing. A nan or inf makes the compare false: general path.
            last = (float(css[k - 1]) - 1.0) / k
            if float(srt[0]) > last:
                theta[()] = last
                np.subtract(lam, theta, out=lam)
            else:
                np.subtract(css, 1.0, out=css)
                np.divide(css, ranks, out=crit)
                np.greater(desc, crit, out=cond)
                rho = k - int(cond_rev.argmax())  # the last True of cond
                theta[()] = css[rho - 1] / rho
                np.subtract(lam, theta, out=lam)
                np.maximum(lam, zero, out=lam)
            if a:
                np.maximum(cone, zero, out=cone)
            x, x_new = x_new, x
            if near:
                views, views_new = views_new, views
                np.subtract(x_new, x, out=diff)
                if math.sqrt(diff.dot(diff)) / step <= tol:
                    break
        end = it
        if not near:
            # screen the block's other iterations (module docstring)
            n_rows = end - start - 1
            np.subtract(X[:n_rows], X[1:n_rows + 1], out=D[:n_rows])
            np.einsum("ij,ij->i", D[:n_rows], D[:n_rows], out=sq[:n_rows])
            for i in np.flatnonzero(sq[:n_rows] <= screen).tolist():
                np.subtract(X[i], X[i + 1], out=diff)
                if math.sqrt(diff.dot(diff)) / step <= tol:
                    end = start + i + 1
                    break
            x, x_new = home
            np.copyto(x, X[end - start])
            np.copyto(x_new, X[end - start - 1])
        iterations = end
        if end % BLOCK == 0:
            np.dot(A, x, out=r)
            obj = r.dot(r)  # ||A x||^2 = x.Hx / 2
            if not obj <= prev_obj + 1e-12 * (1.0 + abs(prev_obj)):  # a step above 2/L diverges
                raise EstimationFailureError("multiplier least-squares objective increased")
            prev_obj = obj
        np.subtract(x_new, x, out=diff)
        pg_prev, pg_norm = pg_norm, math.sqrt(diff.dot(diff)) / step
        if pg_norm <= tol:
            converged = True
            break
        if end % BLOCK == 0:
            bound = _dual_lower_bound(Q, PG, PC, r)
            if bound > stop_above and math.sqrt(obj) - bound <= GAP_RTOL * bound:
                break
        start = end
    r = A @ x
    residual = float(np.linalg.norm(r))
    bound = _dual_lower_bound(Q, PG, PC, r)
    return StructuredLSResult(x[:k], x[k:k + m], x[k + m:], residual, converged, iterations, bound)


def unit_rows(M):
    """(M with each row divided by its 2-norm, the norms), overflow-safe: each
    row is first divided by its max |entry|.  A zero row keeps norm 0, and a
    row with a non-finite entry gets norm inf."""
    M = np.asarray(M, dtype=float)
    top = np.max(np.abs(M), axis=1, initial=0.0)
    finite = np.isfinite(top)
    scaled = M / np.where(finite & (top > 0.0), top, 1.0)[:, None]
    length = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    # a finite row can be longer than the largest float; inf / inf is nan
    with np.errstate(over="ignore", invalid="ignore"):
        return scaled / np.where(length > 0.0, length, 1.0)[:, None], np.where(finite, top * length, np.inf)


def slater_direction(J1, J2_active, iter_cap=50000):
    """(phi, True) with J1 phi = 0 and (J2_active phi)_i <= -1 if a direction
    reaches SLATER_MARGIN (module docstring), else (zeros, decided): one solve,
    whose lower_bound min_i(a_i . w) / |w| certifies -w/|w|.  None exists when
    the solve converged or its residual (which bounds every margin) is below
    SLATER_MARGIN, when an active row is zero, or when phi would overflow."""
    J2a = np.asarray(J2_active, dtype=float)
    a, n = J2a.shape
    if a == 0:
        return np.zeros(n), True
    unit, norms = unit_rows(J2a)
    if not np.all(norms > 0.0):
        return np.zeros(n), True
    J1 = np.zeros((0, n)) if J1 is None else np.asarray(J1, dtype=float).reshape(-1, n)
    Q = np.linalg.qr(J1.T)[0]
    PA = unit.T - Q @ (Q.T @ unit.T)
    result = solve_structured_ls(PA, iter_cap=iter_cap, stop_above=SLATER_MARGIN)
    if result.lower_bound >= SLATER_MARGIN:
        w = PA @ result.lam
        with np.errstate(over="ignore", divide="ignore"):  # checked just below
            phi = 0.0 - w / (float(np.min(unit @ w)) * float(np.min(norms)))  # 0.0 - keeps -0.0 out
        return (phi, True) if np.all(np.isfinite(phi)) else (np.zeros(n), True)
    return np.zeros(n), result.converged or result.residual < SLATER_MARGIN
