"""Problem files, evaluation oracles, finite differences."""
import numpy as np
import pytest

from clarke_kkt.errors import EvaluationDomainError, ProblemParseError
from clarke_kkt.problem import (
    eval_constraints,
    eval_objective,
    finite_diff_gradient,
    kink_avoiding_gradient,
    kink_avoiding_gradients,
    parse_problem,
    to_problem_text,
)


def test_parse_minimal():
    prob = parse_problem("dim 1\nobjective abs(x1)")
    assert (prob.n, prob.m, prob.p) == (1, 0, 0)


def test_parse_with_constraints_and_comments():
    prob = parse_problem(
        "# sample\n"
        "name demo\n"
        "dim 2\n"
        "objective max(x1, x2)  # kinky\n"
        "eq x1 + x2\n"
        "ineq -x2\n"
    )
    assert prob.name == "demo"
    assert (prob.n, prob.m, prob.p) == (2, 1, 1)


@pytest.mark.parametrize("text", [
    "objective x1",                      # missing dim
    "dim 1",                             # missing objective
    "dim 1\nobjective abs(x2)",          # variable index out of range
    "dim 1\ndim 1\nobjective x1",        # duplicate dim
    "dim 1\nobjective x1\nobjective x1",
    "dim 0\nobjective x1",
    "dim 1\nfoo x1",
])
def test_parse_problem_errors(text):
    with pytest.raises(ProblemParseError):
        parse_problem(text)


def test_parse_error_location_in_file():
    with pytest.raises(ProblemParseError) as exc_info:
        parse_problem("dim 2\nobjective x1 + )")
    assert exc_info.value.line == 2


def test_problem_round_trip_evaluates_identically():
    text = (
        "name rt\ndim 3\n"
        "objective abs(x1) + max(x2, x3) * 0.5 - pow(x1, 2)\n"
        "eq x1 + x2 - x3\n"
        "ineq -x3 + 1\n"
    )
    prob = parse_problem(text)
    again = parse_problem(to_problem_text(prob))
    assert again == prob
    rng = np.random.default_rng(1)
    for point in rng.uniform(-5, 5, size=(100, 3)):
        assert eval_objective(again, point) == eval_objective(prob, point)
        for a, b in zip(eval_constraints(again, point), eval_constraints(prob, point)):
            np.testing.assert_array_equal(a, b)


def test_eval_objective_values():
    prob = parse_problem("dim 1\nobjective abs(x1)")
    assert eval_objective(prob, [-3.0]) == 3.0
    prob2 = parse_problem("dim 2\nobjective max(x1, x2)")
    assert eval_objective(prob2, [1.0, 2.0]) == 2.0


def test_eval_objective_domain_error():
    prob = parse_problem("dim 1\nobjective x1 / x1")
    with pytest.raises(EvaluationDomainError):
        eval_objective(prob, [0.0])


def test_eval_constraints():
    prob = parse_problem("dim 2\nobjective x1\neq x1 + x2\nineq -x2")
    eq_values, ineq_values = eval_constraints(prob, [1.0, -1.0])
    np.testing.assert_array_equal(eq_values, [0.0])
    np.testing.assert_array_equal(ineq_values, [1.0])


def test_eval_constraints_empty():
    prob = parse_problem("dim 2\nobjective x1")
    eq_values, ineq_values = eval_constraints(prob, [3.0, 4.0])
    assert eq_values.shape == (0,)
    assert ineq_values.shape == (0,)


def test_eval_is_pure():
    prob = parse_problem("dim 2\nobjective abs(x1) * x2 + 0.1")
    u = [0.123456789, -9.87]
    assert eval_objective(prob, u) == eval_objective(prob, u)


# --- finite differences -----------------------------------------------------

def test_gradient_of_square():
    # analytic derivative of x^2 at 1 is 2
    prob = parse_problem("dim 1\nobjective pow(x1, 2)")
    g = finite_diff_gradient(prob, [1.0], h=1e-6)
    assert abs(g[0] - 2.0) < 1e-6


def test_gradient_of_abs_off_kink():
    prob = parse_problem("dim 1\nobjective abs(x1)")
    g = finite_diff_gradient(prob, [0.5], h=1e-6)
    assert abs(g[0] - 1.0) < 1e-9


def test_gradient_of_constant():
    prob = parse_problem("dim 3\nobjective 7")
    np.testing.assert_array_equal(finite_diff_gradient(prob, [1.0, 2.0, 3.0]), np.zeros(3))


@pytest.mark.parametrize("h", [1e-8, 1e-6, 1e-4])
def test_gradient_of_affine_equals_coefficients(h):
    prob = parse_problem("dim 3\nobjective 2 * x1 - 3 * x2 + 0.5 * x3 + 4")
    g = finite_diff_gradient(prob, [0.3, -0.7, 1.1], h=h)
    np.testing.assert_allclose(g, [2.0, -3.0, 0.5], atol=1e-9)


def test_kink_detection_and_avoidance():
    prob = parse_problem("dim 1\nobjective abs(x1)")
    h = 1e-5
    _, used = kink_avoiding_gradient(prob, [0.5], h)
    assert used[0] == 0.5
    g, used = kink_avoiding_gradient(prob, [0.0], h)
    assert used[0] == h
    assert abs(g[0] - 1.0) < 1e-9



def test_kink_avoiding_gradient_equals_central_difference_at_point_used():
    prob = parse_problem("dim 2\nobjective abs(x1) + pow(x2, 3)")
    h = 1e-5
    for u, shifted in (([0.3, 0.2], False), ([0.0, 0.2], True)):
        g, used = kink_avoiding_gradient(prob, u, h)
        assert (not np.array_equal(used, u)) == shifted
        assert g.tobytes() == finite_diff_gradient(prob, used, h).tobytes()
    for h in (0.0, -1e-5):
        with pytest.raises(ValueError):
            kink_avoiding_gradient(prob, [0.3, 0.2], h)


def test_kink_avoiding_gradients_checks_its_input_before_evaluating():
    # a pole at 0: any evaluation would raise EvaluationDomainError
    prob = parse_problem("dim 2\nobjective 1 / x1 + x2")
    for h in (0.0, -1e-5):
        with pytest.raises(ValueError, match="step"):
            kink_avoiding_gradients(prob, np.zeros((3, 2)), h)
    with pytest.raises(ValueError, match="shape"):
        kink_avoiding_gradients(prob, np.zeros((3, 3)), 1e-5)
    with pytest.raises(ValueError, match="non-finite"):
        kink_avoiding_gradients(prob, [[1.0, 1.0], [np.inf, 1.0]], 1e-5)
