"""Parser, printer, and evaluation tests for the expression language."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clarke_kkt.errors import EvaluationDomainError, ProblemParseError
from clarke_kkt.expressions import (
    Abs,
    BinOp,
    Const,
    MaxOp,
    MinOp,
    Neg,
    PowOp,
    Var,
    evaluate,
    evaluate_with_gradient,
    evaluate_with_kinks,
    parse_expression,
    to_text,
)


def test_parse_basic_tree():
    expr = parse_expression("abs(x1) + 2 * x2")
    assert expr == BinOp("+", Abs(Var(1)), BinOp("*", Const(2.0), Var(2)))


def test_parse_precedence_and_assoc():
    assert parse_expression("x1 - x2 - x1") == BinOp(
        "-", BinOp("-", Var(1), Var(2)), Var(1)
    )
    assert parse_expression("x1 + x2 * x1") == BinOp(
        "+", Var(1), BinOp("*", Var(2), Var(1))
    )


def test_parse_negative_literal_folds():
    assert parse_expression("-3") == Const(-3.0)
    assert parse_expression("x1 * -2.5") == BinOp("*", Var(1), Const(-2.5))


def test_parse_calls():
    assert parse_expression("max(x1, x2)") == MaxOp(Var(1), Var(2))
    assert parse_expression("pow(x1, 3)") == PowOp(Var(1), 3)


@pytest.mark.parametrize("text", [
    "",
    "x1 +",
    "max(x1)",
    "pow(x1, x2)",
    "pow(x1, -2)",
    "abs x1",
    "x0",
    "2 @ 3",
    "(x1",
])
def test_parse_errors(text):
    with pytest.raises(ProblemParseError):
        parse_expression(text)


def test_parse_error_reports_position():
    with pytest.raises(ProblemParseError) as exc_info:
        parse_expression("x1 + @", line=7)
    assert exc_info.value.line == 7
    assert exc_info.value.col == 6


@pytest.mark.parametrize("text,point,expected", [
    ("abs(x1)", [-3.0], 3.0),
    ("max(x1, x2)", [1.0, 2.0], 2.0),
    ("min(x1, x2)", [1.0, 2.0], 1.0),
    ("pow(x1, 2)", [-3.0], 9.0),
    ("pow(x1, 0)", [5.0], 1.0),
    ("x1 / x2", [6.0, 3.0], 2.0),
    ("-x1 + 2", [1.0], 1.0),
    ("7", [0.0], 7.0),
])
def test_evaluate(text, point, expected):
    value = evaluate(parse_expression(text), np.asarray(point))
    assert float(value) == expected


def test_division_by_zero_raises():
    with pytest.raises(EvaluationDomainError):
        evaluate(parse_expression("x1 / x1"), np.array([0.0]))


def test_evaluate_batch_shape():
    expr = parse_expression("max(x1, x2)")
    points = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(evaluate(expr, points), [2.0, 3.0, 0.0])


@pytest.mark.parametrize("text", [
    "x1 - (x2 - x1)",
    "x1 * (x2 + 1)",
    "-(x1 + x2)",
    "x1 - -x2",
    "pow(x1 - 1, 2) + pow(x2, 2)",
    "abs(x1) + x2 / 2 - max(x1, min(x2, 3))",
    "1e-06 * x1",
])
def test_print_parse_round_trip_is_structural(text):
    tree = parse_expression(text)
    assert parse_expression(to_text(tree)) == tree


_leaf = st.one_of(
    st.integers(1, 3).map(Var),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False).map(Const),
)


def _branch(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: BinOp(*t)),
        children.map(Abs),
        children.map(Neg),
        st.tuples(children, children).map(lambda t: MaxOp(*t)),
        st.tuples(children, children).map(lambda t: MinOp(*t)),
        st.tuples(children, st.integers(0, 4)).map(lambda t: PowOp(*t)),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _branch, max_leaves=12))
@example(Neg(Const(-0.0)))  # prints as -(-0.0), not as --0.0
def test_round_trip_evaluates_bitwise_identically(tree):
    # division is excluded from generation so evaluation is total
    reparsed = parse_expression(to_text(tree))
    rng = np.random.default_rng(0)
    points = rng.uniform(-5, 5, size=(100, 3))
    np.testing.assert_array_equal(evaluate(tree, points), evaluate(reparsed, points))


def _exact(expr, point):
    """expr at a point of Fractions, in exact rational arithmetic (no division)."""
    if isinstance(expr, Const):
        return Fraction(expr.value)
    if isinstance(expr, Var):
        return point[expr.index - 1]
    if isinstance(expr, Neg):
        return -_exact(expr.operand, point)
    if isinstance(expr, Abs):
        return abs(_exact(expr.operand, point))
    if isinstance(expr, PowOp):
        return _exact(expr.base, point) ** expr.exponent
    left, right = _exact(expr.left, point), _exact(expr.right, point)
    if isinstance(expr, MaxOp):
        return max(left, right)
    if isinstance(expr, MinOp):
        return min(left, right)
    return {"+": left + right, "-": left - right, "*": left * right}[expr.op]


def _degree(expr):
    """Degree bound of the polynomial pieces of expr."""
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Var):
        return 1
    if isinstance(expr, (Neg, Abs)):
        return _degree(expr.operand)
    if isinstance(expr, PowOp):
        return _degree(expr.base) * expr.exponent
    if isinstance(expr, BinOp) and expr.op == "*":
        return _degree(expr.left) + _degree(expr.right)
    return max(_degree(expr.left), _degree(expr.right))


def test_gradient_input_checks():
    expr = parse_expression("abs(x1) + x2")
    with pytest.raises(ValueError, match="shape"):
        evaluate_with_gradient(expr, [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_with_gradient(expr, [[1.0, np.nan]])
    values, gradients = evaluate_with_gradient(expr, np.zeros((0, 2)))
    assert values.shape == (0,) and gradients.shape == (0, 2)


def test_gradient_of_a_quotient_and_its_pole():
    expr = parse_expression("x1 / x2")
    values, gradients = evaluate_with_gradient(expr, [[3.0, 2.0]])
    assert values.tolist() == [1.5]
    assert gradients.tolist() == [[0.5, -0.75]]
    with pytest.raises(EvaluationDomainError):
        evaluate_with_gradient(expr, [[3.0, 2.0], [1.0, 0.0]])


@pytest.mark.parametrize("text, point, kinked", [
    ("abs(x1)", [0.0, 0.0], True),
    ("abs(x1)", [-0.0, 0.0], True),
    ("abs(x1)", [1e-300, 0.0], False),
    ("abs(x1 - x1)", [0.0, 0.0], False),  # a tie with no slope on either side
    ("max(x1, x2)", [1.0, 1.0], True),
    ("min(x2, x1)", [1.0, 1.0], True),
    ("max(x1, x2)", [1.0, 2.0], False),
    ("max(x1, x1)", [1.0, 1.0], False),
    ("x2 + 2 * max(x1, 0)", [0.0, 3.0], True),
    ("pow(abs(x1), 2)", [0.0, 0.0], True),  # smooth, but the marking stays conservative
])
def test_gradient_marks_kinks(text, point, kinked):
    expr = parse_expression(text)
    values, gradients, kinks = evaluate_with_kinks(expr, [point])
    assert kinks.tolist() == [kinked]
    plain = evaluate_with_gradient(expr, [point])
    assert values.tobytes() == plain[0].tobytes() and gradients.tobytes() == plain[1].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _branch, max_leaves=12))
@example(PowOp(Abs(Var(1)), 3))  # numpy's scalar cube rounds one of the points differently
def test_gradients_are_exact(tree):
    assume(_degree(tree) <= 64)  # keeps the exact arithmetic small
    points = np.random.default_rng(0).uniform(-5, 5, size=(6, 3))
    values, gradients, kinks = evaluate_with_kinks(tree, points)
    assert values.tobytes() == evaluate(tree, points).tobytes()
    for i in range(len(points)):
        row_values, row_gradients, row_kinks = evaluate_with_kinks(tree, points[i:i + 1])
        assert row_values.tobytes() == values[i:i + 1].tobytes()
        assert row_gradients.tobytes() == gradients[i:i + 1].tobytes()
        assert row_kinks.tolist() == kinks[i:i + 1].tolist()
        # the value eval_constraints reads from the 1-D point
        assert row_values.tobytes() == np.array([float(evaluate(tree, points[i]))]).tobytes()
    # against exact central differences, in each coordinate where the
    # forward and backward quotients agree (no kink within h of the point)
    h = Fraction(1, 2 ** 30)
    for point, value, gradient in zip(points, values, gradients):
        if not (np.isfinite(value) and np.all(np.isfinite(gradient))):
            continue
        exact = [Fraction(x) for x in point]
        f0 = _exact(tree, exact)
        for j, g in enumerate(gradient):
            up, down = list(exact), list(exact)
            up[j] += h
            down[j] -= h
            forward = (_exact(tree, up) - f0) / h
            backward = (f0 - _exact(tree, down)) / h
            tol = 1e-6 * (1.0 + abs(g))
            if abs(float(forward - backward)) <= tol:
                assert abs(g - float((forward + backward) / 2)) <= tol, (point, j)
