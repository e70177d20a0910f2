"""Run a fixed list of CLI commands in-process and write what each one reports.

    python tools/report_corpus.py OUT.json

The output maps each command (problem files shown as {NAME}) to its exit
code, its stdout and its stderr.  Timings are the only part of a report that
is not deterministic, so they are removed: the `timings` key of JSON output
and the time column of the human `suite` table.  The commands import the
package from the `src` next to this script, so running the script of two
checkouts and comparing the outputs with `cmp` shows whether a change moves
any report.  Every command prints each Python warning it raises, whatever
ran before it; the script still writes the output, but exits 1 and names
the commands if any stderr holds one.  Needs only the standard library and
numpy.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clarke_kkt import cli, suite  # noqa: E402

WARNING = re.compile(r"(?m)^.*:\d+: \w*Warning: ")


# P1-P5 as the suite defines them, and the points each one is analyzed at
SUITE_TEXT = {entry.name: entry.problem_text for entry in suite.registry()}
SUITE_POINTS = {
    "P1": ["0", "0.5", "1e-3", "-1e-3"],
    "P2": ["0,0", "1,-1"],
    "P3": ["0,0", "0,1"],
    "P4": ["0.5,-0.5", "1,-1"],
    "P5": ["0"],
}

# name: (problem file, point)
EDGE_CASES = {
    "kinked_ineq": ("dim 1\nobjective x1\nineq abs(x1)\n", "0"),
    "kinked_eq": ("dim 2\nobjective x1 + x2\neq abs(x1) + x2\n", "0,0"),
    "kinked_inactive": ("dim 1\nobjective x1\nineq abs(x1) - 1\nineq max(x1, -x1) - 1\n", "0"),
    "kinked_active_max": ("dim 1\nobjective x1\nineq abs(x1) - 1\nineq max(x1, -x1) - 1\n", "1"),
    "domain_objective": ("dim 1\nobjective 1 / x1\n", "0"),
    "domain_eq": ("dim 1\nobjective abs(x1)\neq 1 / x1\n", "0"),
    "domain_ineq": ("dim 1\nobjective abs(x1)\nineq 1 / x1\n", "0"),
    "nonfinite_jacobian": ("dim 2\nobjective abs(x1)\nineq 1e200 * (1e200 * x2)\n", "0,0"),
    "overflow_objective": ("dim 1\nobjective pow(x1, 400)\n", "10"),
    "overflow_eq": ("dim 1\nobjective abs(x1)\neq pow(x1, 400) - 1\n", "10"),
    "overflow_ineq": ("dim 1\nobjective abs(x1)\nineq pow(x1, 400) - pow(x1, 400)\n", "10"),
    "constant_objective": ("dim 2\nobjective 3\neq x1 - x2\n", "0,0"),
    "dependent_rows": ("dim 2\nobjective abs(x1)\neq x1\neq 2 * x1\n", "0,0"),
    "slater_box_edge": ("dim 2\nobjective -0.0008 * x1 - 0.000331 * x2\n"
                        "ineq 0.0008 * x1 + 0.000331 * x2\n", "0,0"),
    "slater_box_corner": ("dim 2\nobjective -0.0006 * x1 - 0.0006 * x2\n"
                          "ineq 0.0006 * x1 + 0.0006 * x2\nineq 0.0007 * x1 + 0.0003 * x2\n", "0,0"),
    "scaled_rows": ("dim 1\nobjective x1\nineq -0.02 * x1\nineq -1.6 * x1\n", "0"),
    "infeasible": (SUITE_TEXT["P2"], "1,0"),
    "active_and_inactive": ("dim 2\nobjective abs(x1) + x2\nineq -x2\nineq x1 - 5\neq x1 - x1 * x2\n", "0,0"),
    "deep_sum": ("dim 1\nobjective " + " + ".join(["abs(x1)"] * 2000) + "\n", "0"),
    "deep_parens": ("dim 1\nobjective " + "(" * 101 + "x1" + ")" * 101 + "\n", "0"),
}

# abs(x1) near its kink at 0, where the default sampling ball (radius
# 1e-3 (1 + |u|)) reaches across the kink from every one of these points
NEAR_KINK = ("dim 1\nobjective abs(x1)\n", ["1e-4", "5e-4", "-1e-3", "5e-7"])

# check-properties beyond P1-P5, as (problem, point).  pow(x1, 400) near its
# overflow: at 5.5 only a coarser level's maximum overflows when scaled by
# |10 * e_1|, at 5.74 and 5.78 only a coarser level's stepped points
# overflow, and at 5.8 the finest level's maximum overflows when scaled.
# abs(x1) at 1e7 and 2**27, where the estimator's radii and steps scale by
# the binade of 1 + |u|.  A20 at 0 fills several blocks of the estimator's
# buffer.
PROPERTY_CASES = [
    ("overflow_objective", "5.74"),
    ("overflow_objective", "5.78"),
    ("overflow_objective", "5.8"),
    ("A20", ",".join(["0"] * 20)),
    ("near_kink", "1e7"),
    ("near_kink", "134217728"),
    ("overflow_objective", "5.5"),
]

MALFORMED = {
    "bad_char": "dim 1\nobjective x1 $ 2\n",
    "missing_dim": "objective x1\n",
    "duplicate_objective": "dim 1\nobjective x1\nobjective x1\n",
    "unknown_directive": "dim 1\n  bound x1\n",
    "pow_exponent": "dim 1\nobjective pow(x1, 1.5)\n",
    "unexpected_end": "dim 1\nobjective (x1 +\n",
    "trailing_token": "dim 1\nobjective x1 x1\n",
    "var_out_of_range": "dim 1\nobjective x2\n",
    "missing_paren": "dim 2\nobjective max(x1 x2)\n",
    "bad_dim": "dim two\nobjective x1\n",
}

REJECTED_OPTIONS = [
    ["analyze", "{P3}", "--at", "0,0", "--levels", "3"],
    ["suite", "--eps-mem", "0.1"],
    ["check-properties", "{P3}", "--at", "0,0", "--eps-stat", "1e-3"],
    ["analyze", "{P3}", "--at", "0,0", "--eps-stat", "nan"],
    ["suite", "--active-tol=-inf"],
    ["check-properties", "{P3}", "--at", "0,0", "--eps-sub", "inf"],
    ["analyze", "{P3}", "--at", "0,0", "--eps-stat", "-1"],
    ["analyze", "{P3}", "--at", "0,0", "--active-tol", "-1"],
    ["suite", "--eps-stat=-1e-3"],
    ["check-properties", "{P3}", "--at", "0,0", "--eps-sub", "-1"],
    ["analyze", "{P3}", "--at", "0,0", "--sd-radius", "0"],
    ["analyze", "{P3}", "--at", "0,0", "--sd-radius=-0.0"],
    ["analyze", "{P3}", "--at", "0,0", "--sd-radius", "abc"],
    ["suite", "--sd-count", "0"],
    ["suite", "--sd-count", "1.5"],
    ["analyze", "{P3}", "--at", "0,0", "--seed", "-1"],
    ["suite", "--seed", "x"],
    ["check-properties", "{P3}", "--at", "0,0", "--seed=-1"],
    ["check-properties", "{P3}", "--at", "0,0", "--levels", "two"],
    ["analyze", "{P3}"],
]


def commands():
    """(argv template, environment) pairs, in a fixed order."""
    cmds = []
    for seed in ("1", "7", "42", "99"):
        cmds.append(["suite", "--json", "--seed", seed])
        cmds.append(["suite", "--json", "--seed", seed, "--sd-count", "1"])
    cmds.append(["suite"])
    cmds.append(["suite", "--export", "{TMP}/export"])
    for name, points in SUITE_POINTS.items():
        for point in points:
            cmds.append(["analyze", "{%s}" % name, "--at=" + point, "--json"])
            cmds.append(["analyze", "{%s}" % name, "--at=" + point])
        cmds.append(["check-properties", "{%s}" % name, "--at=" + points[0], "--json"])
        cmds.append(["check-properties", "{%s}" % name, "--at=" + points[0]])
    cmds.append(["analyze", "{P4}", "--at", "0.5,-0.5", "--eps-stat", "1e-4", "--json"])
    cmds.append(["analyze", "{P4}", "--at", "0.5,-0.5", "--eps-stat", "1e-4"])
    cmds.append(["analyze", "{P1}", "--at", "-1e-3", "--json"])
    for family in suite.FAMILIES:
        for n in (2, 5, 20):
            name = f"{family}{n}"
            for point in (",".join(["0"] * n), ",".join(repr(v) for v in suite.family_probe(family, n))):
                cmds.append(["analyze", "{%s}" % name, "--at=" + point, "--json"])
                cmds.append(["analyze", "{%s}" % name, "--at=" + point])
    for name, (_, point) in EDGE_CASES.items():
        cmds.append(["analyze", "{%s}" % name, "--at=" + point, "--json"])
        cmds.append(["analyze", "{%s}" % name, "--at=" + point])
    for point in NEAR_KINK[1]:
        cmds.append(["analyze", "{near_kink}", "--at=" + point, "--json"])
        cmds.append(["analyze", "{near_kink}", "--at=" + point])
    for name, point in PROPERTY_CASES:
        cmds.append(["check-properties", "{%s}" % name, "--at=" + point, "--json"])
        cmds.append(["check-properties", "{%s}" % name, "--at=" + point])
    for name in MALFORMED:
        cmds.append(["analyze", "{%s}" % name, "--at", "0", "--json"])
    cmds.append(["analyze", "{TMP}/missing.prob", "--at", "0"])
    cmds.append(["analyze", "{P2}", "--at", "1,2,3"])
    cmds.extend(REJECTED_OPTIONS)
    cmds.append(["analyze", "{P1}", "--at", "0", "--json", "--seed", "9" * 400])
    cmds = [(argv, {}) for argv in cmds]
    cmds.append((["analyze", "{P1}", "--at", "0", "--json"], {cli.SEED_ENV: "-2"}))
    cmds.append((["suite", "--json"], {cli.SEED_ENV: "7"}))
    return cmds


def _problem_files(tmp):
    files = {"TMP": str(tmp)}
    texts = dict(SUITE_TEXT)
    texts.update({f"{family}{n}": suite.family_text(family, n)
                  for family in suite.FAMILIES for n in (2, 5, 20)})
    texts.update({name: text for name, (text, _) in EDGE_CASES.items()})
    texts.update(MALFORMED)
    texts["near_kink"] = NEAR_KINK[0]
    for name, text in texts.items():
        path = tmp / f"{name}.prob"
        path.write_text(text, encoding="utf-8")
        files[name] = str(path)
    return files


def _strip_timings(argv, text):
    text = re.sub(r', "timings": \{(?:[^{}]|\{[^{}]*\})*\}', "", text)  # one nested object deep
    if argv[0] == "suite" and "--json" not in argv:
        text = re.sub(r"(?m)\d+\.\d\d *$", "", text)
    return text


def run(argv, env):
    """Exit code, stdout and stderr of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")  # the default filter prints a warning once per location
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    os.environ.pop(cli.SEED_ENV, None)
    corpus = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = _problem_files(Path(tmp))
        for template, env in commands():
            command = [token.format(**files) for token in template]
            code, stdout, stderr = run(command, env)
            key = " ".join([f"{k}={v}" for k, v in env.items()] + template)
            corpus[key] = {
                "exit": code,
                "stdout": _strip_timings(command, stdout).replace(tmp, "{TMP}"),
                "stderr": stderr.replace(tmp, "{TMP}"),
            }
    Path(argv[0]).write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(corpus)} commands written to {argv[0]}")
    warned = [key for key, report in corpus.items() if WARNING.search(report["stderr"])]
    for key in warned:
        print(f"Python warning on stderr: {key}", file=sys.stderr)
    return 1 if warned else 0


if __name__ == "__main__":
    sys.exit(main())
