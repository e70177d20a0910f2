"""Checkers for the benchmark's operations.

Each checker takes the raw output of one operation and the values the
benchmark derived by hand, and returns the list of problems it found; an
empty list means the output is correct.  No expected value is read from the
program under test.
"""
from __future__ import annotations

import json
import math

# Exit codes documented by `clarke-kkt analyze`.
VERDICT_EXIT = {"stationary": 0, "not_stationary": 3}


def _load(text):
    # Python's json module accepts the -Infinity that `analyze --json` writes
    # for problems without inequalities, so the report can still be read.
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def _first(values):
    return values[0] if values else None


def _near(name, value, expected, tol):
    if value is None or not math.isfinite(value) or abs(value - expected) > tol:
        return [f"{name}={value!r}, expected {expected} +- {tol}"]
    return []


def analyze(result, verdict, z1=None, z1_tol=0.0, z1_bound=None, z2=None, z2_tol=0.0,
            zero_slackness=False, residual_min=None):
    """Check one `analyze --json` report.

    z1 and z2 pin the first multiplier to a value; z1_bound bounds |z1[0]|;
    residual_min is a lower bound on the certificate residual.
    """
    code, text = result
    payload, problems = _load(text)
    if payload is None:
        return problems
    if payload.get("verdict") != verdict:
        problems.append(f"verdict {payload.get('verdict')!r}, expected {verdict!r}")
    if code != VERDICT_EXIT[verdict]:
        problems.append(f"exit code {code}, expected {VERDICT_EXIT[verdict]}")
    cert = payload.get("certificate")
    if cert is None:
        return problems + ["report has no certificate"]
    first_z1 = _first(cert.get("z1"))
    if z1 is not None:
        problems += _near("z1", first_z1, z1, z1_tol)
    if z1_bound is not None and not (first_z1 is not None and abs(first_z1) <= z1_bound):
        problems.append(f"z1={first_z1!r}, expected |z1| <= {z1_bound}")
    if z2 is not None:
        problems += _near("z2", _first(cert.get("z2")), z2, z2_tol)
    if zero_slackness and cert["slackness"] != 0.0:
        problems.append(f"slackness={cert['slackness']!r}, expected 0")
    if residual_min is not None and not cert["residual"] >= residual_min:
        problems.append(f"residual={cert['residual']!r}, expected >= {residual_min}")
    return problems


def suite(result, multipliers):
    """Check `suite --json`: every entry ok, and the pinned multipliers.

    multipliers maps an entry name to (key, expected value, tolerance).
    """
    code, text = result
    payload, problems = _load(text)
    if payload is None:
        return problems
    if code != 0 or payload.get("ok") is not True:
        problems.append(f"suite not ok (exit code {code})")
    entries = {e["name"]: e for e in payload.get("entries", [])}
    for name, (key, expected, tol) in multipliers.items():
        problems += _near(f"{name} {key}", _first(entries.get(name, {}).get(key)), expected, tol)
    return problems


def properties(result, n, along_axes, axis_tol=0.05):
    """Check `check-properties --json` at a point of an n-dimensional problem.

    along_axes[i] is the generalized directional derivative along e_i,
    derived by hand; the lambda = 1 case of the i-th homogeneity report must
    estimate it within axis_tol * (1 + |value|).  Every homogeneity and
    subadditivity case must hold by the numbers in the report.
    """
    code, text = result
    payload, problems = _load(text)
    if payload is None:
        return problems
    if code != 0 or payload.get("ok") is not True:
        problems.append(f"properties not ok (exit code {code})")
    reports = payload.get("reports", [])
    homogeneity = [r for r in reports if r["name"] == "homogeneity"]
    subadditivity = [r for r in reports if r["name"] == "subadditivity"]
    if len(homogeneity) != n or len(subadditivity) != 20:
        return problems + [f"{len(homogeneity)} homogeneity and {len(subadditivity)} "
                           f"subadditivity reports, expected {n} and 20"]
    for i, (report, expected) in enumerate(zip(homogeneity, along_axes)):
        for case in report["cases"]:
            if not abs(case["estimate"] - case["scaled_base"]) <= case["tolerance"]:
                problems.append(f"homogeneity e{i + 1} lambda={case['lambda']} fails")
            if case["lambda"] == 1.0:
                problems += _near(f"estimate along e{i + 1}", case["estimate"], expected,
                                  axis_tol * (1.0 + abs(expected)))
    for report in subadditivity:
        case = report["cases"][0]
        slack = case["combined"] - case["first"] - case["second"]
        if not slack <= case["tolerance"]:
            problems.append(f"subadditivity slack {slack!r} > {case['tolerance']!r}")
    return problems


def membership(result, member, gap=None, gap_tol=0.05):
    """Check a `membership_test` result (member, worst_gap)."""
    got_member, worst_gap = result
    problems = []
    if bool(got_member) != member:
        problems.append(f"member={got_member!r}, expected {member}")
    if gap is not None:
        problems += _near("worst gap", worst_gap, gap, gap_tol)
    return problems
