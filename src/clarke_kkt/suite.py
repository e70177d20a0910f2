"""Built-in ground-truth problems with hand-derived certificates.

Each entry records a minimizer (or a documented stationary point), the
multipliers derived by hand, and feasible probe points that are provably
not stationary together with a lower bound on their certificate residual.
The scaled families (FAMILIES, family_text, family_probe) give a problem
file and one feasible non-minimizer per member, without certificates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kkt import verify_stationarity
from .problem import ProblemDefinition, parse_problem

MULTIPLIER_TOL = 0.05  # largest accepted error of a recovered multiplier
PROBE_SLACK = 0.8  # a probe's residual must reach this share of its lower bound


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    problem_text: str
    problem: ProblemDefinition
    minimizer: tuple
    expected_z1: Optional[tuple]
    expected_z2: Optional[tuple]
    nonstationary_probes: tuple  # of (point, residual lower bound)
    notes: str


def _entry(name, text, minimizer, expected_z1, expected_z2, probes, notes):
    return SuiteEntry(
        name=name,
        problem_text=text,
        problem=parse_problem(text),
        minimizer=tuple(minimizer),
        expected_z1=None if expected_z1 is None else tuple(expected_z1),
        expected_z2=None if expected_z2 is None else tuple(expected_z2),
        nonstationary_probes=tuple((tuple(pt), float(lb)) for pt, lb in probes),
        notes=notes,
    )


def registry():
    """The five ground-truth entries, in fixed order."""
    return [
        _entry(
            "P1",
            "name P1\ndim 1\nobjective abs(x1)\n",
            (0.0,),
            None,
            None,
            (((0.5,), 1.0),),
            "Unconstrained |x1|; the subgradient set at 0 is [-1, 1], so the "
            "zero vector is a convex combination of sampled gradients +-1 and "
            "the residual vanishes. At 0.5 the only gradient is 1.",
        ),
        _entry(
            "P2",
            "name P2\ndim 2\nobjective max(x1, x2)\neq x1 + x2\n",
            (0.0, 0.0),
            (-0.5,),
            None,
            (((1.0, -1.0), 0.7071067811865476),),
            "max(x1,x2) on the line x1+x2=0. Subgradients at the kink are the "
            "hull of (1,0) and (0,1); lam=(1/2,1/2) and z1=-1/2 solve "
            "u* + z1*(1,1) = 0. At (1,-1) the objective is smooth with "
            "gradient (1,0) and min_z1 |(1,0)+z1(1,1)| = 1/sqrt(2).",
        ),
        _entry(
            "P3",
            "name P3\ndim 2\nobjective abs(x1) + x2\nineq -x2\n",
            (0.0, 0.0),
            None,
            (1.0,),
            (((0.0, 1.0), 1.0),),
            "abs(x1)+x2 with x2 >= 0 (written -x2 <= 0). Subgradients at the "
            "origin are [-1,1] x {1}; z2=1 cancels the second coordinate via "
            "(0,1) + z2*(0,-1) = 0 and the constraint is active, so the "
            "slackness is exactly 0. At (0,1) the constraint is inactive and "
            "the best hull point (0,1) leaves residual 1.",
        ),
        _entry(
            "P4",
            "name P4\ndim 2\nobjective pow(x1 - 1, 2) + pow(x2, 2)\neq x1 + x2\n",
            (0.5, -0.5),
            (1.0,),
            None,
            (((1.0, -1.0), 1.4142135623730951),),
            "Smooth control problem. Gradient at (1/2,-1/2) is (-1,-1) and "
            "z1=1 solves (-1,-1) + z1*(1,1) = 0. At (1,-1) the gradient is "
            "(0,-2) and min_z1 |(0,-2)+z1(1,1)| = sqrt(2).",
        ),
        _entry(
            "P5",
            "name P5\ndim 1\nobjective -abs(x1)\n",
            (0.0,),
            None,
            None,
            (),
            "Necessary-not-sufficient demonstration: 0 is a local maximum of "
            "-|x1|, yet the generalized derivative at 0 is |phi| in every "
            "direction, so 0 lies in the subgradient set [-1,1] and the "
            "certificate reports stationary. A stationarity verdict must not "
            "be read as optimality.",
        ),
    ]


# Scaled families, each minimized at 0: A_n and Q_n minimize sum |x_i| and
# sum (x_i - 1)^2 on sum x_i = 0, B_n |x_1| + ... + |x_{n-1}| + x_n on
# x_n >= 0, M_n sum (|x_i| - 2 x_i) on x <= 0, and E_n is A_n on x_1 >= 0,
# x_2 <= x_1.  A, Q and E need n >= 2.
FAMILIES = "AQBME"


def _sum(terms):
    return " + ".join(terms)


def family_text(family, n):
    """The problem file of family member <family><n>."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    if family == "A":
        body = f"objective {_sum(f'abs({x})' for x in xs)}\neq {_sum(xs)}\n"
    elif family == "Q":
        body = f"objective {_sum(f'pow({x} - 1, 2)' for x in xs)}\neq {_sum(xs)}\n"
    elif family == "B":
        body = f"objective {_sum([f'abs({x})' for x in xs[:-1]] + [xs[-1]])}\nineq -{xs[-1]}\n"
    elif family == "M":
        body = f"objective {_sum(f'abs({x}) - 2 * {x}' for x in xs)}\n" + "".join(f"ineq {x}\n" for x in xs)
    else:  # E
        body = f"objective {_sum(f'abs({x})' for x in xs)}\neq {_sum(xs)}\nineq -x1\nineq x2 - x1\n"
    return f"name {family}{n}\ndim {n}\n{body}"


def family_probe(family, n):
    """A feasible point of <family><n> other than its minimizer 0."""
    point = [0.0] * n
    if family in "AQE":
        point[0], point[1] = 1.0, -1.0
    elif family == "B":
        point[-1] = 0.7
    else:  # M
        point[0] = -1.0
    return tuple(point)


def evaluate_entry(entry: SuiteEntry, **verify_kwargs):
    """Run the full pipeline on one entry and compare against its ground truth.

    verify_kwargs go to every `verify_stationarity` call.  Returns a dict with
    the minimizer report, multiplier discrepancies, probe residuals, and an
    overall ok flag.
    """
    report = verify_stationarity(entry.problem, np.asarray(entry.minimizer), **verify_kwargs)
    ok = report.verdict == "stationary"
    z1_err = None
    z2_err = None
    if report.certificate is not None:
        if entry.expected_z1 is not None:
            z1_err = float(np.max(np.abs(report.certificate.z1 - np.asarray(entry.expected_z1))))
            ok = ok and z1_err <= MULTIPLIER_TOL
        if entry.expected_z2 is not None:
            z2_err = float(np.max(np.abs(report.certificate.z2 - np.asarray(entry.expected_z2))))
            ok = ok and z2_err <= MULTIPLIER_TOL
    probes = []
    for point, lower_bound in entry.nonstationary_probes:
        probe_report = verify_stationarity(entry.problem, np.asarray(point), **verify_kwargs)
        residual = None if probe_report.certificate is None else probe_report.certificate.residual
        probe_ok = (
            probe_report.verdict == "not_stationary"
            and residual is not None
            and residual >= lower_bound * PROBE_SLACK
        )
        ok = ok and probe_ok
        probes.append({
            "point": list(point),
            "lower_bound": lower_bound,
            "residual": residual,
            "verdict": probe_report.verdict,
            "ok": probe_ok,
        })
    return {
        "name": entry.name,
        "report": report,
        "z1_error": z1_err,
        "z2_error": z2_err,
        "probes": probes,
        "ok": ok,
    }
