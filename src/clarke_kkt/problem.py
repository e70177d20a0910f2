"""Problem definitions and their evaluation, with exact gradients.

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
from .expressions import (
    Expression,
    evaluate,
    evaluate_with_gradient,
    max_var_index,
    parse_expression,
    to_text,
)


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
    eq, ineq = [], []
    pending = []  # (expr, line) for the variable-range check once dim is known
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        keyword, rest = (stripped.split(None, 1) + [""])[:2]
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
            else:
                (eq if keyword == "eq" else ineq).append(expr)
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


def objective_gradient(prob: ProblemDefinition, u) -> np.ndarray:
    """Exact gradient of the objective at u, from its expression tree.

    At a kink it is the gradient of the piece that the tie rules of
    evaluate_with_gradient pick.
    """
    u = as_point(u, prob.n)
    return evaluate_with_gradient(prob.objective, u[None])[1][0]


def finite_diff_gradient(prob: ProblemDefinition, u, h=None) -> np.ndarray:
    """Central-difference gradient of the objective, step h per coordinate.

    Not used by the pipeline, which takes exact gradients from the tree; it
    is an independent check on them.
    """
    u = as_point(u, prob.n)
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(u), initial=0.0)))
    if h <= 0:
        raise ValueError("step must be positive")
    eye = np.eye(prob.n) * h
    values = eval_objective_batch(prob, np.concatenate([u + eye, u - eye]))
    with np.errstate(over="ignore", invalid="ignore"):  # callers check for finiteness
        return (values[:prob.n] - values[prob.n:]) / (2.0 * h)
