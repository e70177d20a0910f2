"""Exception types shared across the package."""


class ClarkeKKTError(Exception):
    """Base class for all package-specific errors."""


class ProblemParseError(ClarkeKKTError):
    """Raised when a problem file or expression fails to parse.

    Carries the 1-based line and column of the offending token
    (column 0 when no column is meaningful, e.g. semantic errors).
    """

    def __init__(self, message, line=0, col=0):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class EvaluationDomainError(ClarkeKKTError):
    """Raised when expression evaluation leaves the valid domain (division by zero)."""


class EstimationFailureError(ClarkeKKTError):
    """Raised when a sampled estimator produces a non-finite quotient."""


class CQIndeterminateError(ClarkeKKTError):
    """Raised when a capped Slater solve neither finds a direction nor rules one out."""
