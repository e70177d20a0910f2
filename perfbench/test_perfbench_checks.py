"""Tests of the benchmark's own checkers and accounting.

A wrong expected value must count the operation as failed, and the known
fault kept in the solve workload must count as failed today.
"""
import json
from dataclasses import replace
from functools import partial

import pytest

import checks
import workloads


def by_label(ops, label):
    return next(op for op in ops if op.label == label)


@pytest.fixture(scope="module")
def sample_ops(tmp_path_factory):
    return workloads.prepare("sample", 3, tmp_path_factory.mktemp("sample"))


def test_correct_expectation_passes(sample_ops):
    tally = workloads.Tally()
    for label in ("analyze P2 at 0", "analyze P3 at 0", "analyze B5 at t*e_n"):
        op = by_label(sample_ops, label)
        tally.record(op, *workloads.execute(op))
    assert (len(tally.times), tally.failed, tally.unexpected) == (3, 0, 0)


@pytest.mark.parametrize("expect", [
    dict(verdict="stationary", z1=0.5, z1_tol=0.05),          # sign of z1 wrong
    dict(verdict="not_stationary"),                           # verdict wrong
    dict(verdict="stationary", z2=1.0, z2_tol=0.05),          # P2 has no inequality
])
def test_wrong_expected_value_counts_as_failed(sample_ops, expect):
    op = replace(by_label(sample_ops, "analyze P2 at 0"), check=partial(checks.analyze, **expect))
    tally = workloads.Tally()
    tally.record(op, *workloads.execute(op))
    assert (tally.failed, tally.unexpected) == (1, 1)


def test_known_fault_counts_as_failed(tmp_path):
    ops = workloads.prepare("solve", 5, tmp_path)
    known = [op for op in ops if op.known_fault]
    assert [op.label for op in known] == ["analyze P4 at minimizer, eps-stat 1e-4"]
    tally = workloads.Tally()
    tally.record(known[0], *workloads.execute(known[0]))
    assert (tally.failed, tally.unexpected) == (1, 0)


def test_exception_counts_as_failed():
    def boom():
        raise RuntimeError("boom")
    op = workloads.Op("boom", "library", boom, lambda output: [])
    seconds, problems = workloads.execute(op)
    assert problems and "boom" in problems[0]


def analyze_output(verdict="stationary", code=0, z1=(), z2=(), residual=0.0, slackness=0.0):
    cert = {"z1": list(z1), "z2": list(z2), "residual": residual, "slackness": slackness}
    return code, json.dumps({"verdict": verdict, "certificate": cert})


def test_analyze_checker():
    assert checks.analyze(analyze_output(z1=(2.0,)), "stationary", z1=2.0, z1_tol=0.01) == []
    assert checks.analyze(analyze_output(z1=(2.02,)), "stationary", z1=2.0, z1_tol=0.01)
    assert checks.analyze(analyze_output(code=3), "stationary")
    assert checks.analyze(analyze_output("not_stationary", 3, residual=0.7),
                          "not_stationary", residual_min=0.8)
    assert checks.analyze(analyze_output(z2=(1.0,), slackness=1e-3), "stationary",
                          z2=1.0, z2_tol=0.05, zero_slackness=True)
    assert checks.analyze(analyze_output(z1=(1.5,)), "stationary", z1_bound=1.0)
    assert checks.analyze((0, "not json"), "stationary")


def test_suite_checker():
    entries = [{"name": "P2", "z1": [-0.5]}, {"name": "P3", "z2": [1.0]}]
    good = (0, json.dumps({"ok": True, "entries": entries}))
    pins = {"P2": ("z1", -0.5, 0.05), "P3": ("z2", 1.0, 0.05)}
    assert checks.suite(good, pins) == []
    assert checks.suite(good, {**pins, "P2": ("z1", 0.5, 0.05)})
    assert checks.suite(good, {**pins, "P4": ("z1", 1.0, 0.01)})
    assert checks.suite((1, json.dumps({"ok": False, "entries": entries})), pins)


def properties_output(estimate, slack=0.0):
    homogeneity = {"name": "homogeneity", "cases": [
        {"lambda": lam, "estimate": lam * estimate, "scaled_base": lam * estimate,
         "tolerance": 1e-12}
        for lam in (0.5, 1.0, 2.0)]}
    subadditivity = {"name": "subadditivity", "cases": [
        {"combined": 1.0 + slack, "first": 0.5, "second": 0.5, "tolerance": 0.05}]}
    return 0, json.dumps({"ok": True, "reports": [homogeneity] + 20 * [subadditivity]})


def test_properties_checker():
    assert checks.properties(properties_output(1.0), n=1, along_axes=(1.0,)) == []
    assert checks.properties(properties_output(1.0), n=1, along_axes=(-1.0,))
    assert checks.properties(properties_output(1.0, slack=0.1), n=1, along_axes=(1.0,))
    assert checks.properties(properties_output(1.0), n=2, along_axes=(1.0, 1.0))


def test_membership_checker():
    assert checks.membership((True, -1.0), member=True) == []
    assert checks.membership((False, 1.0), member=False, gap=1.0) == []
    assert checks.membership((False, 1.2), member=False, gap=1.0)
    assert checks.membership((True, 0.0), member=False)


def test_passes_repeat_for_a_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.prepare(workload, 11, tmp_path / "a")
        second = workloads.prepare(workload, 11, tmp_path / "a")
        assert [op.label for op in first] == [op.label for op in second]
        argv = [[op.call.args for op in ops if op.kind == "cli"] for ops in (first, second)]
        assert argv[0] == argv[1]
    for pairs in (workloads.probes(s) for s in range(20)):
        assert all(i != j for family in ("Q", "A") for i, j in pairs[family].values())
