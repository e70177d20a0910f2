"""The module attributes an external tracer patches by name.

A benchmark tracer wraps these functions where their callers look them up,
and reads two fields of the solver's result; renaming or dropping any of
them would silently zero its per-layer metrics.
"""
import dataclasses

import pytest

from clarke_kkt import cli, gendir, kkt, problem, subdiff, suite
from clarke_kkt.solver import StructuredLSResult

TRACED = {
    cli: ("parse_problem", "verify_stationarity", "registry", "evaluate_entry",
          "check_homogeneity", "check_subadditivity"),
    suite: ("parse_problem", "verify_stationarity"),
    kkt: ("check_constraint_qualification", "jacobians", "slater_direction",
          "solve_structured_ls", "sample_subdifferential"),
    subdiff: ("kink_avoiding_gradient", "membership_test", "estimate_gen_dir_deriv"),
    gendir: ("estimate_gen_dir_deriv",),
    problem: ("evaluate",),
}


@pytest.mark.parametrize("module, attr", [(m, a) for m, attrs in TRACED.items() for a in attrs],
                         ids=lambda x: getattr(x, "__name__", x))
def test_traced_attribute_resolves_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


def test_structured_ls_result_has_traced_fields():
    fields = {f.name for f in dataclasses.fields(StructuredLSResult)}
    assert {"iterations", "converged"} <= fields
