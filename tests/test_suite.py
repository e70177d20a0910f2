"""Ground-truth registry consistency checks."""
import numpy as np
import pytest

from clarke_kkt.kkt import constraint_walk
from clarke_kkt.problem import parse_problem, to_problem_text
from clarke_kkt.suite import FAMILIES, evaluate_entry, family_probe, family_text, registry


def feasible(prob, point):
    values = constraint_walk(prob, point)[0]
    eq_values, ineq_values = values[:prob.m], values[prob.m:]
    return np.max(np.abs(eq_values), initial=0.0) <= 1e-9 and np.max(ineq_values, initial=-1.0) <= 1e-9


def test_registry_has_five_entries():
    names = [entry.name for entry in registry()]
    assert names == ["P1", "P2", "P3", "P4", "P5"]


def test_minimizers_and_probes_are_feasible():
    for entry in registry():
        assert feasible(entry.problem, entry.minimizer)
        for point, _ in entry.nonstationary_probes:
            assert feasible(entry.problem, point)


def test_every_entry_has_notes():
    for entry in registry():
        assert entry.notes.strip()


def test_p5_documents_necessity_only():
    p5 = next(entry for entry in registry() if entry.name == "P5")
    assert "not" in p5.notes and "optimality" in p5.notes


def test_entries_round_trip_through_problem_files():
    for entry in registry():
        assert parse_problem(to_problem_text(entry.problem)) == entry.problem
        assert parse_problem(entry.problem_text) == entry.problem


def test_minimizers_are_stationary_with_expected_multipliers():
    for entry in registry():
        result = evaluate_entry(entry, seed=42)
        assert result["report"].verdict == "stationary", entry.name
        if entry.expected_z1 is not None:
            assert result["z1_error"] <= 0.05
        if entry.expected_z2 is not None:
            assert result["z2_error"] <= 0.05
        assert result["ok"], entry.name


def test_probes_exceed_registered_residual_bounds():
    for entry in registry():
        result = evaluate_entry(entry, seed=42)
        for probe in result["probes"]:
            assert probe["verdict"] == "not_stationary"
            assert probe["residual"] >= probe["lower_bound"] * 0.8


@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_members(family, n):
    text = family_text(family, n)
    prob = parse_problem(text)
    eqs, ineqs = {"A": (1, 0), "Q": (1, 0), "B": (0, 1), "M": (0, n), "E": (1, 2)}[family]
    lines = text.splitlines()
    assert (prob.name, prob.n) == (f"{family}{n}", n)
    assert sum(line.startswith("eq ") for line in lines) == prob.m == eqs
    assert sum(line.startswith("ineq ") for line in lines) == prob.p == ineqs
    probe = family_probe(family, n)
    assert len(probe) == n and all(type(v) is float for v in probe) and any(probe)
    assert feasible(prob, np.zeros(n)) and feasible(prob, probe)
    assert parse_problem(to_problem_text(prob)) == prob
