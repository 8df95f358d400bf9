"""Exception types shared across the package."""

from __future__ import annotations


class RobustPlanError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RobustPlanError):
    """Structured input-validation failure.

    Carries the name of the offending field (dotted/indexed path such as
    ``"upper_probs[0]"``) so callers — the CLI in particular — can report
    exactly which part of the input is bad, and the message without it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class AmbiguitySetEmpty(RobustPlanError):
    """The forecast constraints admit no probability distribution."""


class ConvergenceFailure(RobustPlanError):
    """The exchange method ran out of rounds above the violation tolerance.

    Attributes:
        solution: best iterate reached (a PlanningSolution).
        residual: the worst remaining constraint violation (positive number).
    """

    def __init__(self, message: str, solution=None, residual: float | None = None):
        self.solution = solution
        self.residual = residual
        super().__init__(message)


class NumericalFailure(RobustPlanError):
    """The LP solver broke down (pivot cap hit, or an internal check failed)."""


class ContractViolation(RobustPlanError):
    """A pluggable component (a refinement oracle) broke its behaviour contract."""
