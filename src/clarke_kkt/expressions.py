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

    Pure and deterministic: equal inputs give bitwise-equal outputs.
    Raises EvaluationDomainError on division by zero.  Overflow to inf and
    invalid results (nan) are returned without a numpy warning; callers
    check results for finiteness and report the cause themselves.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
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
    if isinstance(expr, Const) and expr.value < 0:
        return _PREC_NEG  # prints with a leading minus, binds like a factor
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

    def expr(self):
        node = self.term()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "sym" and tok[1] in "+-":
                self._next()
                node = BinOp(tok[1], node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "sym" and tok[1] in "*/":
                self._next()
                node = BinOp(tok[1], node, self.factor())
            else:
                return node

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
