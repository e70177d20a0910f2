"""Per-layer tracing from outside the package.

`Tracer.install` replaces the package's public functions, at the module
attributes their callers look them up by, with wrappers that record a span
(name, start, end, parent span, operation) and count the work each call did.
`uninstall` puts the originals back.  `expressions.evaluate` is wrapped only
where the problem module calls it, so its recursion is not traced and every
evaluate span is a top-level call.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

from clarke_kkt import cli, gendir, kkt, problem, subdiff, suite

ROOT_SPANS = {"cli": "cli.main", "library": "bench.call"}


def _ls(counts, args, result):
    counts["solver.ls_iterations"] += result.iterations
    counts["solver.ls_converged"] += bool(result.converged)


def _sample(counts, args, result):
    counts["subdiff.gradients"] += len(result.points)


def _kink(counts, args, result):
    counts["subdiff.kink_shifts"] += not np.array_equal(result[1], args[1])


def _evaluate(counts, args, result):
    shape = np.shape(args[1])
    counts["expressions.evaluate_points"] += math.prod(shape[:-1])


# (module, attribute, span name, counter) for every traced call site.
HOOKS = (
    (cli, "parse_problem", "problem.parse", None),
    (cli, "verify_stationarity", "kkt.verify", None),
    (cli, "registry", "suite.registry", None),
    (cli, "evaluate_entry", "suite.evaluate_entry", None),
    (cli, "check_homogeneity", "gendir.check_homogeneity", None),
    (cli, "check_subadditivity", "gendir.check_subadditivity", None),
    (suite, "parse_problem", "problem.parse", None),
    (suite, "verify_stationarity", "kkt.verify", None),
    (kkt, "check_constraint_qualification", "kkt.cq", None),
    (kkt, "jacobians", "kkt.jacobians", None),
    (kkt, "slater_direction", "solver.slater", None),
    (kkt, "solve_structured_ls", "solver.ls", _ls),
    (kkt, "sample_subdifferential", "subdiff.sample", _sample),
    (subdiff, "kink_avoiding_gradient", "subdiff.kink_gradient", _kink),
    (subdiff, "membership_test", "subdiff.membership", None),
    (subdiff, "estimate_gen_dir_deriv", "gendir.estimate", None),
    (gendir, "estimate_gen_dir_deriv", "gendir.estimate", None),
    (problem, "evaluate", "expressions.evaluate", _evaluate),
)

# Per-layer metrics and their units; see `Tracer.metrics`.
METRICS = {
    "solver.ls_s": "s/op",
    "solver.ls_calls": "count/op",
    "solver.ls_iterations": "count/op",
    "solver.ls_converged_ratio": "ratio",
    "solver.slater_s": "s/op",
    "solver.slater_calls": "count/op",
    "subdiff.sample_s": "s/op",
    "subdiff.gradients": "count/op",
    "subdiff.kink_shift_ratio": "ratio",
    "subdiff.membership_s": "s/op",
    "expressions.evaluate_calls": "count/op",
    "expressions.evaluate_points": "count/op",
    "expressions.evaluate_s": "s/op",
    "gendir.estimate_s": "s/op",
    "gendir.estimate_calls": "count/op",
    "kkt.cq_s": "s/op",
    "kkt.jacobians_s": "s/op",
    "kkt.jacobians_calls": "count/op",
    "problem.parse_s": "s/op",
    "cli.self_s": "s/op",
    "trace.overhead_s": "s/op",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (span id, parent id or -1, operation, name id, start, end)
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._op = -1
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _exit(self, name_id, span_id, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self._op, name_id, start, end))

    @contextlib.contextmanager
    def operation(self, op):
        """Root span of one operation; its spans share one operation id."""
        self._op += 1
        name_id = self._name_id(ROOT_SPANS[op.kind])
        opened = self._enter()
        try:
            yield
        finally:
            self._exit(name_id, *opened)

    def _wrap(self, name, fn, count):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name_id, *opened)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        for module, attr, name, count in HOOKS:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self):
        """(inclusive seconds, calls, self seconds) per span name."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, calls, own = Counter(), Counter(), Counter()
        for span_id, _, _, name_id, start, end in self.spans:
            name = self.names[name_id]
            inclusive[name] += end - start
            calls[name] += 1
            own[name] += end - start - child[span_id]
        return inclusive, calls, own

    def layer_shares(self):
        """Self time per layer (the span name's prefix) as a share of all operation time."""
        inclusive, _, own = self.totals()
        total = sum(inclusive[n] for n in ROOT_SPANS.values())
        shares = Counter()
        for name, seconds in own.items():
            shares[name.split(".")[0]] += seconds / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def metrics(self, ops, overhead_s):
        """Per-layer metrics per traced operation; ratios over their own base."""
        inclusive, calls, own = self.totals()
        c = self.counts
        values = {
            "solver.ls_s": inclusive["solver.ls"] / ops,
            "solver.ls_calls": calls["solver.ls"] / ops,
            "solver.ls_iterations": c["solver.ls_iterations"] / ops,
            "solver.ls_converged_ratio": c["solver.ls_converged"] / max(calls["solver.ls"], 1),
            "solver.slater_s": inclusive["solver.slater"] / ops,
            "solver.slater_calls": calls["solver.slater"] / ops,
            "subdiff.sample_s": inclusive["subdiff.sample"] / ops,
            "subdiff.gradients": c["subdiff.gradients"] / ops,
            "subdiff.kink_shift_ratio": c["subdiff.kink_shifts"] / max(c["subdiff.gradients"], 1),
            "subdiff.membership_s": inclusive["subdiff.membership"] / ops,
            "expressions.evaluate_calls": calls["expressions.evaluate"] / ops,
            "expressions.evaluate_points": c["expressions.evaluate_points"] / ops,
            "expressions.evaluate_s": inclusive["expressions.evaluate"] / ops,
            "gendir.estimate_s": inclusive["gendir.estimate"] / ops,
            "gendir.estimate_calls": calls["gendir.estimate"] / ops,
            "kkt.cq_s": inclusive["kkt.cq"] / ops,
            "kkt.jacobians_s": inclusive["kkt.jacobians"] / ops,
            "kkt.jacobians_calls": calls["kkt.jacobians"] / ops,
            "problem.parse_s": inclusive["problem.parse"] / ops,
            "cli.self_s": own["cli.main"] / ops,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def dump(self):
        """Spans and counts in a JSON-ready form."""
        return {
            "names": self.names,
            "span_fields": ["id", "parent", "operation", "name", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
