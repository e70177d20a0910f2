"""Expression trees, parser, printer, and vectorized evaluation.

Grammar (one expression; problem files are handled in problem.py):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ["-"] atom
    atom   := NUMBER | VAR | "(" expr ")"
            | "abs(" expr ")" | "max(" expr "," expr ")"
            | "min(" expr "," expr ")" | "pow(" expr "," INT ")"
    VAR    := "x" INT     (1-based variable index)

A leading "-" before a numeric literal folds into the literal, so the
printer/parser round trip is structurally exact for parsed trees.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationDomainError, ProblemParseError


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Abs:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*", "/"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class MaxOp:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class MinOp:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class PowOp:
    base: "Expression"
    exponent: int  # non-negative integer literal


Expression = Union[Const, Var, Neg, Abs, BinOp, MaxOp, MinOp, PowOp]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(expr, u):
    """Evaluate expr on u of shape (..., n); returns an array of shape (...).

    Pure and deterministic: equal inputs give bitwise-equal outputs, and a
    single point (shape (n,)) gets the value its row gets in a batch.
    Raises EvaluationDomainError on division by zero.  Overflow to inf and
    invalid results (nan) are returned without a numpy warning; callers
    check results for finiteness and report the cause themselves.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if u.ndim == 1:  # as a one-row batch: numpy scalar powers can round differently
            return _evaluate(expr, u[None])[0]
        return _evaluate(expr, u)


def _evaluate(expr, u):
    if isinstance(expr, Const):
        return np.full(u.shape[:-1], expr.value)
    if isinstance(expr, Var):
        if not 1 <= expr.index <= u.shape[-1]:
            raise EvaluationDomainError(
                f"variable x{expr.index} out of range for dimension {u.shape[-1]}"
            )
        return u[..., expr.index - 1]
    if isinstance(expr, Neg):
        return -_evaluate(expr.operand, u)
    if isinstance(expr, Abs):
        return np.abs(_evaluate(expr.operand, u))
    if isinstance(expr, BinOp):
        left = _evaluate(expr.left, u)
        right = _evaluate(expr.right, u)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if np.any(right == 0.0):
            raise EvaluationDomainError("division by zero during evaluation")
        return left / right
    if isinstance(expr, MaxOp):
        return np.maximum(_evaluate(expr.left, u), _evaluate(expr.right, u))
    if isinstance(expr, MinOp):
        return np.minimum(_evaluate(expr.left, u), _evaluate(expr.right, u))
    if isinstance(expr, PowOp):
        return _evaluate(expr.base, u) ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate_with_gradient(expr, points):
    """Values (k,) and exact gradients (k, n) of expr at the rows of points (k, n).

    One forward walk carries each node's value and gradient (Griewank and
    Walther 2008, ch. 3).  The values are bitwise equal to evaluate's, and
    each row is bitwise equal to what that row alone gives.  At an exact
    tie abs takes slope +1 and max/min take the left branch.  Raises
    ValueError on points that are not a finite (k, n) array and
    EvaluationDomainError on division by zero; overflow is quiet as in evaluate.
    """
    return evaluate_with_kinks(expr, points)[:2]


def evaluate_with_kinks(expr, points):
    """evaluate_with_gradient's output and a (k,) mask of the rows where an abs,
    max or min ties with one-sided gradients that differ (even if smoothed later)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points have shape {points.shape}, expected (k, n)")
    if not np.all(np.isfinite(points)):
        raise ValueError("point has non-finite coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        values, gradients, kinked = _forward(expr, points)
    return values, gradients + 0.0, kinked  # no -0.0 in reports


def _forward(expr, u):
    """(value, gradient, kinked) of expr at the rows of u; the value as _evaluate computes it."""
    if isinstance(expr, Const):
        return _evaluate(expr, u), np.zeros(u.shape), np.zeros(len(u), dtype=bool)
    if isinstance(expr, Var):
        value = _evaluate(expr, u)  # checks the index
        gradient = np.zeros(u.shape)
        gradient[:, expr.index - 1] = 1.0
        return value, gradient, np.zeros(len(u), dtype=bool)
    if isinstance(expr, Neg):
        value, gradient, kinked = _forward(expr.operand, u)
        return -value, -gradient, kinked
    if isinstance(expr, Abs):
        value, gradient, kinked = _forward(expr.operand, u)
        kinked = kinked | (value == 0.0) & np.any(gradient != 0.0, axis=1)
        return np.abs(value), np.where(value[:, None] < 0.0, -gradient, gradient), kinked
    if isinstance(expr, PowOp):
        value, gradient, kinked = _forward(expr.base, u)
        p = expr.exponent
        slope = p * value ** (p - 1) if p else np.zeros(len(u))  # value ** -1 fails at 0
        return value ** p, slope[:, None] * gradient, kinked
    if not isinstance(expr, (BinOp, MaxOp, MinOp)):
        raise TypeError(f"not an expression node: {expr!r}")
    left, dleft, kinked = _forward(expr.left, u)
    right, dright, right_kinked = _forward(expr.right, u)
    kinked = kinked | right_kinked
    if isinstance(expr, (MaxOp, MinOp)):
        kinked = kinked | (left == right) & np.any(dleft != dright, axis=1)
    if isinstance(expr, MaxOp):
        return np.maximum(left, right), np.where((left >= right)[:, None], dleft, dright), kinked
    if isinstance(expr, MinOp):
        return np.minimum(left, right), np.where((left <= right)[:, None], dleft, dright), kinked
    if expr.op == "+":
        return left + right, dleft + dright, kinked
    if expr.op == "-":
        return left - right, dleft - dright, kinked
    if expr.op == "*":
        return left * right, dleft * right[:, None] + left[:, None] * dright, kinked
    if np.any(right == 0.0):
        raise EvaluationDomainError("division by zero during evaluation")
    value = left / right
    return value, (dleft - value[:, None] * dright) / right[:, None], kinked


def max_var_index(expr) -> int:
    """Largest variable index referenced by expr (0 for constant expressions)."""
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Var):
        return expr.index
    if isinstance(expr, (Neg, Abs)):
        return max_var_index(expr.operand)
    if isinstance(expr, (BinOp, MaxOp, MinOp)):
        return max(max_var_index(expr.left), max_var_index(expr.right))
    if isinstance(expr, PowOp):
        return max_var_index(expr.base)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4


def _prec(expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if isinstance(expr, Neg):
        return _PREC_NEG
    if isinstance(expr, Const) and np.signbit(expr.value):
        return _PREC_NEG  # prints with a leading minus (-0.0 too), binds like a factor
    return _PREC_ATOM


def to_text(expr) -> str:
    """Render expr so that parse_expression(to_text(expr)) is structurally identical."""
    if isinstance(expr, Const):
        return repr(float(expr.value))
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Abs):
        return f"abs({to_text(expr.operand)})"
    if isinstance(expr, MaxOp):
        return f"max({to_text(expr.left)}, {to_text(expr.right)})"
    if isinstance(expr, MinOp):
        return f"min({to_text(expr.left)}, {to_text(expr.right)})"
    if isinstance(expr, PowOp):
        return f"pow({to_text(expr.base)}, {expr.exponent})"
    if isinstance(expr, Neg):
        inner = to_text(expr.operand)
        if _prec(expr.operand) < _PREC_ATOM:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        mine = _prec(expr)
        left = to_text(expr.left)
        if _prec(expr.left) < mine:
            left = f"({left})"
        right = to_text(expr.right)
        if _prec(expr.right) <= mine:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<name>abs|max|min|pow)"
    r"|(?P<sym>[-+*/(),])"
)
_INT_RE = re.compile(r"\d+")


def _tokenize(text, line, col_offset):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ProblemParseError(
                f"unexpected character {text[pos]!r}", line, col_offset + pos + 1
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(), col_offset + pos + 1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens, line, end_col):
        self.tokens = tokens
        self.line = line
        self.end_col = end_col
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ProblemParseError("unexpected end of expression", self.line, self.end_col)
        self.pos += 1
        return tok

    def _expect_sym(self, sym):
        tok = self._next()
        if tok[0] != "sym" or tok[1] != sym:
            raise ProblemParseError(f"expected {sym!r}, found {tok[1]!r}", self.line, tok[2])

    def expr(self, ops="+-"):
        """expr, or with ops "*/" a term: one left-associative loop over
        operands joined by ops.  A term's operand is a factor; a partial, not
        a lambda, keeps nesting depth at one frame per grammar level."""
        operand = self.factor if ops == "*/" else functools.partial(self.expr, "*/")
        node = operand()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "sym" or tok[1] not in ops:
                return node
            self._next()
            node = BinOp(tok[1], node, operand())

    def factor(self):
        tok = self._peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "-":
            self._next()
            node = self.atom()
            if isinstance(node, Const):
                return Const(-node.value)
            return Neg(node)
        return self.atom()

    def atom(self):
        tok = self._next()
        kind, text, col = tok
        if kind == "num":
            return Const(float(text))
        if kind == "var":
            index = int(text[1:])
            if index < 1:
                raise ProblemParseError("variable index out of range", self.line, col)
            return Var(index)
        if kind == "sym" and text == "(":
            node = self.expr()
            self._expect_sym(")")
            return node
        if kind == "name":
            self._expect_sym("(")
            first = self.expr()
            if text == "abs":
                self._expect_sym(")")
                return Abs(first)
            self._expect_sym(",")
            if text == "pow":
                etok = self._next()
                if etok[0] != "num" or _INT_RE.fullmatch(etok[1]) is None:
                    raise ProblemParseError(
                        "pow exponent must be a non-negative integer literal",
                        self.line,
                        etok[2],
                    )
                self._expect_sym(")")
                return PowOp(first, int(etok[1]))
            second = self.expr()
            self._expect_sym(")")
            return MaxOp(first, second) if text == "max" else MinOp(first, second)
        raise ProblemParseError(f"unexpected token {text!r}", self.line, col)


def parse_expression(text, line=1, col_offset=0) -> Expression:
    """Parse one expression string; line/col_offset locate it for error reports."""
    tokens = _tokenize(text, line, col_offset)
    if not tokens:
        raise ProblemParseError("empty expression", line, col_offset + 1)
    parser = _Parser(tokens, line, col_offset + len(text) + 1)
    node = parser.expr()
    extra = parser._peek()
    if extra is not None:
        raise ProblemParseError(f"unexpected token {extra[1]!r}", line, extra[2])
    return node
