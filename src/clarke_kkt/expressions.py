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

A tree's tape lists its nodes in post order, left operand first: the order of
an evaluation procedure (Griewank and Walther 2008).  Each walker is one loop
over the tape with a value stack, so no tree is too deep to walk.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationDomainError, ProblemParseError

MAX_NESTING = 100  # parenthesis depth; the recursive-descent parser takes 4 frames per level


def _post_order(root):
    """The nodes of the tree at root in post order, left operand first."""
    tape, stack = [], [root]
    while stack:  # visits root, right subtree, left subtree: the post order reversed
        node = stack.pop()
        if not isinstance(node, _Node):
            raise TypeError(f"not an expression node: {node!r}")
        tape.append(node)
        stack += [getattr(node, f) for f in ("operand", "base", "left", "right") if hasattr(node, f)]
    return tape[::-1]


class _Node:
    """Base of the node classes.  A root keeps its tape in its __dict__, which frozen
    dataclasses allow; a cache keyed by the tree would hash it, which recurses."""

    tape = functools.cached_property(_post_order)


def _tape(expr):
    """expr's tape; a root that is not a node raises as an operand does."""
    return expr.tape if isinstance(expr, _Node) else _post_order(expr)


@dataclass(frozen=True)
class Const(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 1-based


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Expression"


@dataclass(frozen=True)
class Abs(_Node):
    operand: "Expression"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of "+", "-", "*", "/"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class MaxOp(_Node):
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class MinOp(_Node):
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class PowOp(_Node):
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
    rows = u[None] if u.ndim == 1 else u  # a point as a one-row batch: numpy scalar powers round differently
    stack = []
    with np.errstate(over="ignore", invalid="ignore"):
        for node in _tape(expr):
            if isinstance(node, (Const, Var)):
                stack.append(_leaf(node, rows))
            elif isinstance(node, Neg):
                stack[-1] = -stack[-1]
            elif isinstance(node, Abs):
                stack[-1] = np.abs(stack[-1])
            elif isinstance(node, PowOp):
                stack[-1] = stack[-1] ** node.exponent
            else:
                right = stack.pop()
                stack[-1] = _combine(node, stack[-1], right)
    return stack[0][0] if u.ndim == 1 else stack[0]


def _leaf(node, u):
    """The value of a Const or Var node at the points u."""
    if isinstance(node, Const):
        return np.full(u.shape[:-1], node.value)
    if not 1 <= node.index <= u.shape[-1]:
        raise EvaluationDomainError(f"variable x{node.index} out of range for dimension {u.shape[-1]}")
    return u[..., node.index - 1]


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _combine(node, left, right):
    """The value of a BinOp, MaxOp or MinOp node from its operands' values."""
    if isinstance(node, (MaxOp, MinOp)):
        return (np.maximum if isinstance(node, MaxOp) else np.minimum)(left, right)
    if node.op == "/" and np.any(right == 0.0):
        raise EvaluationDomainError("division by zero during evaluation")
    return _ARITHMETIC[node.op](left, right)


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
    stack = []  # (value, gradient, kinked) of each operand not yet used
    with np.errstate(over="ignore", invalid="ignore"):
        for node in _tape(expr):
            if isinstance(node, (Const, Var)):
                value, gradient = _leaf(node, points), np.zeros(points.shape)
                kinked = np.zeros(len(points), dtype=bool)
                if isinstance(node, Var):
                    gradient[:, node.index - 1] = 1.0
            elif isinstance(node, (Neg, Abs, PowOp)):
                value, gradient, kinked = stack.pop()
                if isinstance(node, Neg):
                    value, gradient = -value, -gradient
                elif isinstance(node, Abs):
                    kinked = kinked | (value == 0.0) & np.any(gradient != 0.0, axis=1)
                    value, gradient = np.abs(value), np.where(value[:, None] < 0.0, -gradient, gradient)
                else:
                    p = node.exponent
                    slope = p * value ** (p - 1) if p else np.zeros(len(points))  # value ** -1 fails at 0
                    value, gradient = value ** p, slope[:, None] * gradient
            else:
                right, dright, right_kinked = stack.pop()
                left, dleft, kinked = stack.pop()
                value, kinked = _combine(node, left, right), kinked | right_kinked
                if isinstance(node, (MaxOp, MinOp)):
                    kinked = kinked | (left == right) & np.any(dleft != dright, axis=1)
                    keep_left = left >= right if isinstance(node, MaxOp) else left <= right
                    gradient = np.where(keep_left[:, None], dleft, dright)
                elif node.op in "+-":
                    gradient = dleft + dright if node.op == "+" else dleft - dright
                elif node.op == "*":
                    gradient = dleft * right[:, None] + left[:, None] * dright
                else:
                    gradient = (dleft - value[:, None] * dright) / right[:, None]
            stack.append((value, gradient, kinked))
    values, gradients, kinked = stack[0]
    return values, gradients + 0.0, kinked  # no -0.0 in reports


def max_var_index(expr) -> int:
    """Largest variable index referenced by expr (0 for constant expressions)."""
    return max((node.index for node in _tape(expr) if isinstance(node, Var)), default=0)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4


def to_text(expr) -> str:
    """Render expr so that parse_expression(to_text(expr)) is structurally identical."""
    stack = []  # (text, binding precedence) of each operand not yet printed
    for node in _tape(expr):
        if isinstance(node, Const):  # a leading minus (-0.0 too) binds like a factor
            item = repr(float(node.value)), _PREC_NEG if np.signbit(node.value) else _PREC_ATOM
        elif isinstance(node, Var):
            item = f"x{node.index}", _PREC_ATOM
        elif isinstance(node, Abs):
            item = f"abs({stack.pop()[0]})", _PREC_ATOM
        elif isinstance(node, PowOp):
            item = f"pow({stack.pop()[0]}, {node.exponent})", _PREC_ATOM
        elif isinstance(node, Neg):
            inner, prec = stack.pop()
            item = f"-({inner})" if prec < _PREC_ATOM else f"-{inner}", _PREC_NEG
        else:
            (right, right_prec), (left, left_prec) = stack.pop(), stack.pop()
            if isinstance(node, (MaxOp, MinOp)):
                item = f"{'max' if isinstance(node, MaxOp) else 'min'}({left}, {right})", _PREC_ATOM
            else:
                mine = _PREC_ADD if node.op in "+-" else _PREC_MUL
                left = f"({left})" if left_prec < mine else left
                right = f"({right})" if right_prec <= mine else right
                item = f"{left} {node.op} {right}", mine
        stack.append(item)
    return stack[0][0]


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
            if np.isinf(float(text)):
                raise ProblemParseError("number out of range", self.line, col)
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
    depth = 0
    for _, token, col in tokens:
        depth += (token == "(") - (token == ")")
        if depth > MAX_NESTING:
            raise ProblemParseError(f"parentheses nest more than {MAX_NESTING} deep", line, col)
    parser = _Parser(tokens, line, col_offset + len(text) + 1)
    node = parser.expr()
    extra = parser._peek()
    if extra is not None:
        raise ProblemParseError(f"unexpected token {extra[1]!r}", line, extra[2])
    return node
