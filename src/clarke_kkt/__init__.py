"""Numerical toolkit for sampled generalized derivatives and nonsmooth
multiplier certificates on R^n."""

__version__ = "0.1.0"

from .errors import (
    ClarkeKKTError,
    CQIndeterminateError,
    EstimationFailureError,
    EvaluationDomainError,
    ProblemParseError,
)
from .expressions import parse_expression, to_text
from .gendir import (
    GenDirConfig,
    GenDirEstimate,
    PropertyReport,
    check_homogeneity,
    check_properties,
    check_subadditivity,
    estimate_gen_dir_deriv,
    estimate_gen_dir_derivs,
)
from .kkt import (
    ConstraintQualificationReport,
    MultiplierCertificate,
    StationarityReport,
    check_constraint_qualification,
    jacobians,
    verify_stationarity,
)
from .problem import (
    ProblemDefinition,
    eval_objective,
    finite_diff_gradient,
    parse_problem,
    to_problem_text,
)
from .solver import StructuredLSResult, slater_direction, solve_structured_ls
from .subdiff import SubdifferentialApprox, membership_test, sample_subdifferential
from .suite import SuiteEntry, registry

__all__ = [
    "ClarkeKKTError",
    "CQIndeterminateError",
    "EstimationFailureError",
    "EvaluationDomainError",
    "ProblemParseError",
    "parse_expression",
    "to_text",
    "GenDirConfig",
    "GenDirEstimate",
    "PropertyReport",
    "check_homogeneity",
    "check_properties",
    "check_subadditivity",
    "estimate_gen_dir_deriv",
    "estimate_gen_dir_derivs",
    "ConstraintQualificationReport",
    "MultiplierCertificate",
    "StationarityReport",
    "check_constraint_qualification",
    "jacobians",
    "verify_stationarity",
    "ProblemDefinition",
    "eval_objective",
    "finite_diff_gradient",
    "parse_problem",
    "to_problem_text",
    "StructuredLSResult",
    "slater_direction",
    "solve_structured_ls",
    "SubdifferentialApprox",
    "membership_test",
    "sample_subdifferential",
    "SuiteEntry",
    "registry",
]
