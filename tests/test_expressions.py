"""Parser, printer, and evaluation tests for the expression language."""
import functools
import sys
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
    max_var_index,
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


@pytest.mark.parametrize("text, col", [("1e999 * x1", 1), ("x1 - 1e400", 6), ("-1.8e308", 2)])
def test_literal_out_of_range_is_a_parse_error(text, col):
    # inf would print as `inf`, which does not parse
    with pytest.raises(ProblemParseError) as exc_info:
        parse_expression(text)
    assert exc_info.value.message == "number out of range"
    assert exc_info.value.col == col


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", fullmatch=True))
@example("1e999")
@example("1.7976931348623157e308")
@example("1e-400")
def test_every_parsed_literal_round_trips(literal):
    try:
        tree = parse_expression(f"{literal} * x1")
    except ProblemParseError as exc:
        assert np.isinf(float(literal)) and exc.message == "number out of range"
        return
    assert parse_expression(to_text(tree)) == tree


@pytest.mark.parametrize("text, col", [("(" * 100 + "x1" + ")" * 100, None),
                                       ("(" * 101 + "x1" + ")" * 101, 101),
                                       ("abs(" * 101 + "x1" + ")" * 101, 404),
                                       ("(" * 100 + "max(x1, x2)" + ")" * 100, 104)])
def test_parentheses_nest_at_most_max_nesting_deep(text, col):
    if col is None:
        assert max_var_index(parse_expression(text)) == 1
        return
    with pytest.raises(ProblemParseError) as exc_info:
        parse_expression(text, line=3)
    assert exc_info.value.message == "parentheses nest more than 100 deep"
    assert (exc_info.value.line, exc_info.value.col) == (3, col)


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


def test_deep_trees_walk_without_recursion():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    total = functools.reduce(lambda left, right: BinOp("+", left, right), [Abs(Var(1))] * depth)
    chain = functools.reduce(lambda node, _: Abs(node), range(depth), Var(2))
    points = np.array([[-1.5, 2.0], [0.0, -3.0]])
    assert evaluate(total, points).tolist() == [7500.0, 0.0]
    assert evaluate(chain, points).tolist() == [2.0, 3.0]
    values, gradients, kinks = evaluate_with_kinks(total, points)
    assert values.tolist() == [7500.0, 0.0]
    assert gradients.tolist() == [[-5000.0, 0.0], [5000.0, 0.0]]  # abs takes slope +1 at 0
    assert kinks.tolist() == [False, True]
    values, gradients, kinks = evaluate_with_kinks(chain, points)
    assert values.tolist() == [2.0, 3.0]
    assert gradients.tolist() == [[0.0, 1.0], [0.0, -1.0]]
    assert kinks.tolist() == [False, False]
    assert (max_var_index(total), max_var_index(chain)) == (1, 2)
    assert to_text(total) == " + ".join(["abs(x1)"] * depth)
    assert to_text(chain) == "abs(" * depth + "x2" + ")" * depth


@pytest.mark.parametrize("tree", [2.0, Abs(2.0), BinOp("+", Var(1), "x2"), MaxOp(None, Var(1))])
def test_a_non_node_raises_type_error_in_every_walk(tree):
    walks = [lambda t: evaluate(t, np.zeros((1, 2))), lambda t: evaluate_with_kinks(t, np.zeros((1, 2))),
             max_var_index, to_text]
    for walk in walks:
        with pytest.raises(TypeError, match="not an expression node"):
            walk(tree)


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
        # the value evaluate gives at the 1-D point, as eval_objective reads it
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


# --- oracle: the recursive walks the tape loops replaced ---------------------
# evaluate and evaluate_with_kinks loop over a tree's post-order tape; these
# recursive walks are the reference their values, gradients, kink marks and
# errors must equal bit for bit.

def _reference_evaluate(expr, u):
    if isinstance(expr, Const):
        return np.full(u.shape[:-1], expr.value)
    if isinstance(expr, Var):
        if not 1 <= expr.index <= u.shape[-1]:
            raise EvaluationDomainError(
                f"variable x{expr.index} out of range for dimension {u.shape[-1]}"
            )
        return u[..., expr.index - 1]
    if isinstance(expr, Neg):
        return -_reference_evaluate(expr.operand, u)
    if isinstance(expr, Abs):
        return np.abs(_reference_evaluate(expr.operand, u))
    if isinstance(expr, BinOp):
        left = _reference_evaluate(expr.left, u)
        right = _reference_evaluate(expr.right, u)
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
        return np.maximum(_reference_evaluate(expr.left, u), _reference_evaluate(expr.right, u))
    if isinstance(expr, MinOp):
        return np.minimum(_reference_evaluate(expr.left, u), _reference_evaluate(expr.right, u))
    if isinstance(expr, PowOp):
        return _reference_evaluate(expr.base, u) ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def _reference_forward(expr, u):
    if isinstance(expr, Const):
        return _reference_evaluate(expr, u), np.zeros(u.shape), np.zeros(len(u), dtype=bool)
    if isinstance(expr, Var):
        value = _reference_evaluate(expr, u)  # checks the index
        gradient = np.zeros(u.shape)
        gradient[:, expr.index - 1] = 1.0
        return value, gradient, np.zeros(len(u), dtype=bool)
    if isinstance(expr, Neg):
        value, gradient, kinked = _reference_forward(expr.operand, u)
        return -value, -gradient, kinked
    if isinstance(expr, Abs):
        value, gradient, kinked = _reference_forward(expr.operand, u)
        kinked = kinked | (value == 0.0) & np.any(gradient != 0.0, axis=1)
        return np.abs(value), np.where(value[:, None] < 0.0, -gradient, gradient), kinked
    if isinstance(expr, PowOp):
        value, gradient, kinked = _reference_forward(expr.base, u)
        p = expr.exponent
        slope = p * value ** (p - 1) if p else np.zeros(len(u))  # value ** -1 fails at 0
        return value ** p, slope[:, None] * gradient, kinked
    if not isinstance(expr, (BinOp, MaxOp, MinOp)):
        raise TypeError(f"not an expression node: {expr!r}")
    left, dleft, kinked = _reference_forward(expr.left, u)
    right, dright, right_kinked = _reference_forward(expr.right, u)
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


def _reference_kinks(expr, points):
    value, gradient, kinked = _reference_forward(expr, points)
    return value, gradient + 0.0, kinked


def _outcome(walk, tree, points):
    """The bytes of each array walk returns, or the type and message of its error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = walk(tree, points)
    except EvaluationDomainError as exc:
        return type(exc), str(exc)
    return [(part.shape, part.tobytes()) for part in (result if isinstance(result, tuple) else (result,))]


# x4 is out of range for the three columns drawn below; zeros and huge
# constants reach the division-by-zero check and the overflow paths
_oracle_leaf = st.one_of(
    st.integers(1, 4).map(Var),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False).map(Const),
    st.sampled_from([0.0, -0.0, 1e300]).map(Const),
)


def _oracle_branch(children):
    return st.one_of(
        _branch(children),
        st.tuples(st.just("/"), children, children).map(lambda t: BinOp(*t)),
    )


@settings(max_examples=400, deadline=None)
@given(
    st.recursive(_oracle_leaf, _oracle_branch, max_leaves=12),
    st.lists(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0]), min_size=3, max_size=3),
             min_size=1, max_size=4),
)
@example(BinOp("/", Var(4), BinOp("/", Var(1), Const(0.0))), [[1.0, 2.0, 3.0]])  # left error first
@example(MaxOp(Abs(Var(1)), Neg(Var(1))), [[0.0, 0.0, 0.0], [-0.0, 1.0, 1.0]])
def test_walks_equal_the_recursive_reference(tree, rows):
    points = np.array(rows)
    assert _outcome(evaluate, tree, points) == _outcome(_reference_evaluate, tree, points)
    assert _outcome(evaluate, tree, points[0]) == _outcome(
        lambda t, u: _reference_evaluate(t, u[None])[0], tree, points[0])
    assert _outcome(evaluate_with_kinks, tree, points) == _outcome(_reference_kinks, tree, points)
