"""Problem definitions, evaluation, and finite differences.

A problem file is line-oriented UTF-8; '#' starts a comment.  Lines:

    dim INT            (exactly once)
    name IDENT         (optional)
    objective EXPR     (exactly once)
    eq EXPR            (repeatable; order defines the component index)
    ineq EXPR          (repeatable; the constraint is EXPR <= 0)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProblemParseError
from .expressions import Expression, evaluate, max_var_index, parse_expression, to_text

KINK_TOL = 1e-3

# Most floats of points evaluated in one batched call; a block holds at least
# one unit of work (a stencil, a direction's stepped points), so a call never
# needs more memory than one unit.
BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class ProblemDefinition:
    """A minimization problem: objective F, equalities G1(u)=0, inequalities G2(u)<=0."""

    n: int
    objective: Expression
    eq: tuple = ()
    ineq: tuple = ()
    name: str = "problem"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        for expr in (self.objective, *self.eq, *self.ineq):
            if max_var_index(expr) > self.n:
                raise ValueError("expression references a variable beyond the dimension")

    @property
    def m(self) -> int:
        return len(self.eq)

    @property
    def p(self) -> int:
        return len(self.ineq)


def as_point(u, n) -> np.ndarray:
    """Validate u as a finite point of dimension n."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"point has shape {u.shape}, expected ({n},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("point has non-finite coordinates")
    return u


# ---------------------------------------------------------------------------
# Parsing / printing
# ---------------------------------------------------------------------------

def parse_problem(text: str) -> ProblemDefinition:
    """Parse a problem file; raises ProblemParseError with line/col on failure."""
    dim = None
    name = "problem"
    objective = None
    eq = []
    ineq = []
    pending = []  # (expr, line) for the variable-range check once dim is known
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        parts = stripped.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        # column offset of `rest` within the raw line
        rest_offset = line.index(rest, indent + len(keyword)) if rest else indent + len(keyword)
        if keyword == "dim":
            if dim is not None:
                raise ProblemParseError("duplicate dim directive", lineno, indent + 1)
            try:
                dim = int(rest)
            except ValueError:
                raise ProblemParseError("dim requires an integer", lineno, rest_offset + 1)
            if dim < 1:
                raise ProblemParseError("dim must be at least 1", lineno, rest_offset + 1)
        elif keyword == "name":
            if not rest:
                raise ProblemParseError("name requires an identifier", lineno, indent + 1)
            name = rest.strip()
        elif keyword in ("objective", "eq", "ineq"):
            expr = parse_expression(rest, lineno, rest_offset)
            pending.append((expr, lineno))
            if keyword == "objective":
                if objective is not None:
                    raise ProblemParseError("duplicate objective directive", lineno, indent + 1)
                objective = expr
            elif keyword == "eq":
                eq.append(expr)
            else:
                ineq.append(expr)
        else:
            raise ProblemParseError(f"unknown directive {keyword!r}", lineno, indent + 1)
    if dim is None:
        raise ProblemParseError("missing dim directive", 0, 0)
    if objective is None:
        raise ProblemParseError("missing objective directive", 0, 0)
    for expr, lineno in pending:
        if max_var_index(expr) > dim:
            raise ProblemParseError("variable index out of range", lineno, 0)
    return ProblemDefinition(n=dim, objective=objective, eq=tuple(eq), ineq=tuple(ineq), name=name)


def to_problem_text(prob: ProblemDefinition) -> str:
    """Render a problem in the file grammar; re-parsing yields an identical problem."""
    lines = [f"name {prob.name}", f"dim {prob.n}", f"objective {to_text(prob.objective)}"]
    lines += [f"eq {to_text(e)}" for e in prob.eq]
    lines += [f"ineq {to_text(e)}" for e in prob.ineq]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_objective(prob: ProblemDefinition, u) -> float:
    """F(u) by tree evaluation; deterministic and pure."""
    u = as_point(u, prob.n)
    return float(evaluate(prob.objective, u))


def eval_objective_batch(prob: ProblemDefinition, points) -> np.ndarray:
    """F on a (..., n) batch of points."""
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != prob.n:
        raise ValueError("batch has wrong trailing dimension")
    return np.asarray(evaluate(prob.objective, points), dtype=float)


def eval_constraints(prob: ProblemDefinition, u):
    """(G1(u), G2(u)) as arrays of shapes (m,) and (p,)."""
    u = as_point(u, prob.n)
    eq_values = np.array([float(evaluate(e, u)) for e in prob.eq])
    ineq_values = np.array([float(evaluate(e, u)) for e in prob.ineq])
    return eq_values, ineq_values


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def default_step(u) -> float:
    u = np.asarray(u, dtype=float)
    return 1e-6 * (1.0 + float(np.max(np.abs(u), initial=0.0)))


def _stencil(points, h, n):
    """(..., 2n, n): each point + h*e_j, then each point - h*e_j."""
    eye = np.eye(n) * h
    return np.concatenate([points[..., None, :] + eye, points[..., None, :] - eye], axis=-2)


def _central_difference(values, h, n):
    """Gradients from the objective's values on _stencil(points, h, n).

    Overflow gives inf or nan without a numpy warning; callers check the
    gradients for finiteness.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (values[..., :n] - values[..., n:]) / (2.0 * h)


def _kink_stencil(points, h, n):
    """(rows, 2n+1, n): each point itself, then its _stencil.

    The point is taken as it is, not as point + 0.0, which would turn -0.0
    into +0.0.
    """
    return np.concatenate([points[:, None, :], _stencil(points, h, n)], axis=1)


def _kink_mismatches(values, h, n):
    """Per row, max over coordinates of |forward - backward quotient|, from
    the objective's values on _kink_stencil(points, h, n)."""
    f0 = values[:, :1]
    with np.errstate(over="ignore", invalid="ignore"):  # callers check the gradients
        fwd = (values[:, 1:n + 1] - f0) / h
        bwd = (f0 - values[:, n + 1:]) / h
        return np.max(np.abs(fwd - bwd), axis=1)


def finite_diff_gradient(prob: ProblemDefinition, u, h=None) -> np.ndarray:
    """Central-difference gradient of the objective, step h per coordinate."""
    u = as_point(u, prob.n)
    if h is None:
        h = default_step(u)
    if h <= 0:
        raise ValueError("step must be positive")
    return finite_diff_gradient_expr(prob.objective, u, h)


def finite_diff_gradient_expr(expr: Expression, u: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of one expression at the point u, step h per coordinate."""
    n = u.size
    return _central_difference(np.asarray(evaluate(expr, _stencil(u, h, n)), dtype=float), h, n)


def kink_avoiding_gradient(prob: ProblemDefinition, u, h):
    """Gradient sample with one-shot kink avoidance; kink_avoiding_gradients
    on the single point u.  Returns (gradient, point_used)."""
    u = as_point(u, prob.n)
    gradients, points_used = kink_avoiding_gradients(prob, u[None], h)
    return gradients[0], points_used[0]


def kink_avoiding_gradients(prob: ProblemDefinition, points, h):
    """Gradient samples with one-shot kink avoidance at each row of points.

    A point whose forward/backward quotients disagree by more than KINK_TOL
    is shifted by +h along the first coordinate and its central difference
    is taken there; otherwise the gradient comes from the stencil values
    the kink test already evaluated.  Phase 1 evaluates the kink stencils
    of all points, phase 2 the stencils of the shifted ones, each in blocks
    of at most BLOCK_FLOATS floats (one stencil at least).  Every row is
    bitwise equal to what its point alone gives.  Returns (gradients,
    points_used), both of shape (k, n).
    """
    n = prob.n
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"points have shape {points.shape}, expected (k, {n})")
    if not np.all(np.isfinite(points)):
        raise ValueError("point has non-finite coordinates")
    if h <= 0:
        raise ValueError("step must be positive")
    gradients = np.empty(points.shape)
    shift = np.empty(len(points), dtype=bool)
    rows = max(1, BLOCK_FLOATS // ((2 * n + 1) * n))
    for start in range(0, len(points), rows):
        block = slice(start, start + rows)
        values = eval_objective_batch(prob, _kink_stencil(points[block], h, n))
        shift[block] = _kink_mismatches(values, h, n) > KINK_TOL
        keep = ~shift[block]
        gradients[block][keep] = _central_difference(values[keep, 1:], h, n)
    shifted = np.flatnonzero(shift)
    points_used = points.copy()
    points_used[shifted, 0] += h
    rows = max(1, BLOCK_FLOATS // (2 * n * n))
    for start in range(0, len(shifted), rows):
        block = shifted[start:start + rows]
        values = eval_objective_batch(prob, _stencil(points_used[block], h, n))
        gradients[block] = _central_difference(values, h, n)
    return gradients, points_used
