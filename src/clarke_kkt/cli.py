"""Command-line front end.

Commands and the options each one reads (all take --json):
    analyze <file> --at v1,...,vn   stationarity verdict for one candidate point
                                    --seed --eps-stat --active-tol --sd-radius --sd-count
    suite [--export DIR]            run the built-in ground-truth suite
                                    --seed --eps-stat --active-tol --sd-radius --sd-count
    check-properties <file> --at .. estimator property checks at a point
                                    --seed --levels --samples --eps-sub

A point may start with '-' after a space (`--at -1,1`) when the option is
spelled out in full; an abbreviation of --at takes such a point only
after `=`.

Without --seed the seed comes from $CLARKE_KKT_SEED, else 42; either must
be a nonnegative integer.  A command rejects an option it does not read,
float options must be finite, --eps-stat, --active-tol and --eps-sub must be
nonnegative, and --sd-radius and --sd-count must be positive.  A rejected
option, an unreadable or malformed input file or a failed `suite --export`
write exits 2.

Exit codes for analyze: 0 stationary, 3 not stationary, 4 infeasible,
5 constraint qualification failed, 2 input or processing error (verdict
`error`, also when the objective or a constraint is undefined or
non-finite at the point).
JSON output is strict RFC 8259 JSON, schema-stable and byte-reproducible
for a fixed seed, except for the timings field; its `config` echoes the
command's own options.

A certificate's `residual` is the smallest multiplier residual the solver
found, an upper bound on the true minimum over the sampled hull.  Its
`residual_lower_bound` is a proven lower bound on that minimum (0 when
nothing is proven): a `not_stationary` verdict with
`residual_lower_bound > eps_stat` holds however long the solver would run.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ClarkeKKTError, ProblemParseError
from .gendir import GenDirConfig, check_properties
from .kkt import DEFAULT_ACTIVE_TOL, DEFAULT_EPS_STAT, verify_stationarity
from .problem import parse_problem
from .suite import evaluate_entry, registry

# Not called here: the benchmark's tracer patches these two names on this
# module, so they stay importable from cli.
from .gendir import check_homogeneity, check_subadditivity  # noqa: F401

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_STATIONARY = 3
EXIT_INFEASIBLE = 4
EXIT_CQ_FAILED = 5

_VERDICT_EXIT = {
    "stationary": EXIT_OK,
    "not_stationary": EXIT_NOT_STATIONARY,
    "infeasible": EXIT_INFEASIBLE,
    "cq_failed": EXIT_CQ_FAILED,
    "error": EXIT_INPUT_ERROR,
}

SEED_ENV = "CLARKE_KKT_SEED"


def _bounded(kind, positive):
    """An argparse type: text read as a float (finite) or an int, which must
    be positive, or nonnegative when not `positive`.  An int is never turned
    into a float, so an integer of any size is checked exactly."""
    noun = "number" if kind is float else "integer"
    sign = "positive" if positive else "nonnegative"

    def check(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if not (value > 0 if positive else value >= 0):
            raise argparse.ArgumentTypeError(f"not a {sign} {noun}: {text!r}")
        return value
    return check


_nonnegative_int = _bounded(int, positive=False)


# Every option a command can declare; each default is the library's own.
OPTIONS = {
    "seed": dict(type=_nonnegative_int, default=None,
                 help=f"sampling seed (default: ${SEED_ENV}, else {GenDirConfig.seed})"),
    "levels": dict(type=int, default=GenDirConfig.levels,
                   help="finest sampling level; the checks sample it alone"),
    "samples": dict(type=int, default=GenDirConfig.samples_per_level),
    "eps_stat": dict(type=_bounded(float, positive=False), default=DEFAULT_EPS_STAT),
    "active_tol": dict(type=_bounded(float, positive=False), default=DEFAULT_ACTIVE_TOL),
    "eps_sub": dict(type=_bounded(float, positive=False), default=None),
    "sd_radius": dict(type=_bounded(float, positive=True), default=None),
    "sd_count": dict(type=_bounded(int, positive=True), default=None),
}
# The options each command reads, in the order its JSON `config` lists them.
VERDICT_OPTIONS = ("seed", "eps_stat", "active_tol", "sd_radius", "sd_count")
COMMAND_OPTIONS = {
    "analyze": VERDICT_OPTIONS,
    "suite": VERDICT_OPTIONS,
    "check-properties": ("seed", "levels", "samples", "eps_sub"),
}


def _add_options(parser, command):
    parser.add_argument("--json", action="store_true", dest="as_json")
    for name in COMMAND_OPTIONS[command]:
        parser.add_argument("--" + name.replace("_", "-"), **OPTIONS[name])


def _config(args):
    """The command's own option values, keyed by option name."""
    return {name: getattr(args, name) for name in COMMAND_OPTIONS[args.command]}


def _env_seed():
    env = os.environ.get(SEED_ENV)
    if env is None:
        return GenDirConfig.seed
    try:
        return _nonnegative_int(env)
    except argparse.ArgumentTypeError:
        raise ClarkeKKTError(f"{SEED_ENV}={env!r} is not a nonnegative integer") from None


def _parse_point(text, n):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}")
    if len(values) != n:
        raise ValueError(f"point has {len(values)} coordinates, problem dimension is {n}")
    point = np.asarray(values)
    if not np.all(np.isfinite(point)):
        raise ValueError("point has non-finite coordinates")
    return point


def _load_problem(path):
    return parse_problem(Path(path).read_text(encoding="utf-8"))


def _emit_json(obj, out):
    try:
        text = json.dumps(obj, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:  # a nan or infinity, which RFC 8259 JSON cannot hold
        raise ClarkeKKTError(f"cannot write the report as JSON: {exc}") from None
    out.write(text + "\n")


def cmd_analyze(args, out) -> int:
    cfg = _config(args)
    try:
        prob = _load_problem(args.file)
        point = _parse_point(args.at, prob.n)
    except (ProblemParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    start = time.perf_counter()
    report = verify_stationarity(prob, point, **cfg)
    elapsed = time.perf_counter() - start
    if args.as_json:
        payload = {
            "version": __version__,
            "problem": prob.name,
            "point": point.tolist(),
            "config": cfg,
            **report.to_dict(),
            "timings": {"analyze_s": elapsed, "stages": report.stage_s},
        }
        _emit_json(payload, out)
    else:
        out.write(f"problem   : {prob.name}\n")
        out.write(f"point     : {point.tolist()}\n")
        out.write(f"feasible  : eq_norm={report.feasibility[0]:.3e} "
                  f"max_ineq={report.feasibility[1]:.3e}\n")
        if report.cq is not None:
            out.write(f"cq        : rank={report.cq.j1_rank} onto={report.cq.j1_onto} "
                      f"slater_ok={report.cq.slater_ok} kink_free={report.cq.kink_free} "
                      f"active={list(report.cq.active_set)}\n")
        if report.certificate is not None:
            cert = report.certificate
            out.write(f"residual  : {cert.residual:.6e}\n")
            out.write(f"lower bnd : {cert.residual_lower_bound:.6e}\n")
            out.write(f"z1        : {cert.z1.tolist()}\n")
            out.write(f"z2        : {cert.z2.tolist()}\n")
            out.write(f"slackness : {cert.slackness:.6e}\n")
        if report.failed_stage is not None:
            out.write(f"failed at : {report.failed_stage}: {report.message}\n")
        out.write(f"verdict   : {report.verdict}\n")
    return _VERDICT_EXIT[report.verdict]


def cmd_suite(args, out) -> int:
    cfg = _config(args)
    if args.export is not None:
        export_dir = Path(args.export)
        try:
            export_dir.mkdir(parents=True, exist_ok=True)
            entries = registry()
            for entry in entries:
                (export_dir / f"{entry.name}.prob").write_text(entry.problem_text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        out.write(f"exported {len(entries)} problems to {export_dir}\n")
        return EXIT_OK
    entries = []
    timings = {}
    all_ok = True
    for entry in registry():
        start = time.perf_counter()
        result = evaluate_entry(entry, **cfg)
        timings[entry.name] = time.perf_counter() - start
        all_ok = all_ok and result["ok"]
        report = result["report"]
        cert = report.certificate
        entries.append({
            "name": entry.name,
            "verdict": report.verdict,
            "residual": None if cert is None else cert.residual,
            "z1": None if cert is None else list(cert.z1),
            "z2": None if cert is None else list(cert.z2),
            "z1_error": result["z1_error"],
            "z2_error": result["z2_error"],
            "probes": result["probes"],
            "ok": result["ok"],
        })
    if args.as_json:
        payload = {
            "version": __version__,
            "config": cfg,
            "entries": entries,
            "ok": all_ok,
            "timings": timings,
        }
        _emit_json(payload, out)
    else:
        out.write(f"{'entry':<6}{'verdict':<16}{'residual':<14}{'z1':<20}{'z2':<20}"
                  f"{'ok':<6}{'time_s':<8}\n")
        for row in entries:
            residual = "-" if row["residual"] is None else f"{row['residual']:.3e}"
            z1 = "-" if not row["z1"] else ",".join(f"{v:.3f}" for v in row["z1"])
            z2 = "-" if not row["z2"] else ",".join(f"{v:.3f}" for v in row["z2"])
            out.write(f"{row['name']:<6}{row['verdict']:<16}{residual:<14}{z1:<20}{z2:<20}"
                      f"{str(row['ok']):<6}{timings[row['name']]:<8.2f}\n")
        out.write(f"overall: {'ok' if all_ok else 'FAILED'}\n")
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_check_properties(args, out) -> int:
    cfg = _config(args)
    try:
        prob = _load_problem(args.file)
        point = _parse_point(args.at, prob.n)
        gendir_cfg = GenDirConfig(levels=args.levels, samples_per_level=args.samples,
                                  seed=args.seed)
    except (ProblemParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    start = time.perf_counter()
    reports = check_properties(prob, point, gendir_cfg, args.eps_sub)
    elapsed = time.perf_counter() - start
    all_ok = all(r.passed for r in reports)
    if args.as_json:
        payload = {
            "version": __version__,
            "problem": prob.name,
            "point": point.tolist(),
            "config": cfg,
            "reports": [r.to_dict() for r in reports],
            "ok": all_ok,
            "timings": {"check_properties_s": elapsed},
        }
        _emit_json(payload, out)
    else:
        for report in reports:
            out.write(f"{report.name:<15}{'pass' if report.passed else 'FAIL':<6}"
                      f"worst={report.worst:.3e} tol={report.tolerance:.3e}\n")
        out.write(f"overall: {'ok' if all_ok else 'FAILED'}\n")
    return EXIT_OK if all_ok else EXIT_FAILURE


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args makes a fresh
    namespace on every call, so reusing the parser is safe."""
    parser = argparse.ArgumentParser(prog="clarke-kkt",
                                     description="Nonsmooth stationarity certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="verdict for a candidate point of a problem file")
    analyze.add_argument("file")
    analyze.add_argument("--at", required=True, help="comma-separated point coordinates")
    _add_options(analyze, "analyze")
    analyze.set_defaults(func=cmd_analyze)

    suite = sub.add_parser("suite", help="run the built-in ground-truth suite")
    suite.add_argument("--export", default=None, metavar="DIR",
                       help="write the suite problem files and exit")
    _add_options(suite, "suite")
    suite.set_defaults(func=cmd_suite)

    props = sub.add_parser("check-properties", help="estimator property checks at a point")
    props.add_argument("file")
    props.add_argument("--at", required=True)
    _add_options(props, "check-properties")
    props.set_defaults(func=cmd_check_properties)
    return parser


def _join_point_values(argv):
    """argv with `--at -1,1` joined into `--at=-1,1`.

    argparse reads a token such as -1,1 or -1e-3 as an unknown option rather
    than as the value of --at.  No option starts with '-' and a digit or '.',
    so such a token right after --at is the point.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] == "--at" and re.match(r"-[\d.]", token):
            joined[-1] = "--at=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_point_values(argv))
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.func(args, sys.stdout)
    except ClarkeKKTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
