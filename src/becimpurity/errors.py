"""Exception taxonomy shared by the whole package, and its scalar validator."""

import math
import numbers

__all__ = [
    "BecImpurityError",
    "DomainError",
    "ParameterDomainError",
    "SingularityError",
    "PerturbativeBreakdownError",
    "ConfigurationError",
    "NumericalError",
]


class BecImpurityError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BecImpurityError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterDomainError(DomainError):
    """A physical parameter violates its positivity or finiteness constraint."""


class SingularityError(DomainError):
    """Evaluation was requested exactly at a singular point."""


class PerturbativeBreakdownError(DomainError):
    """A perturbative result was requested outside its validity window."""


class ConfigurationError(BecImpurityError):
    """Invalid run configuration: files, grids, tolerances, resource budgets."""


class NumericalError(BecImpurityError):
    """A numerical routine failed to meet its tolerance contract.

    Carries the best available value and the achieved error estimate so the
    caller can decide whether the partial result is still useful.
    """

    def __init__(self, message: str, value=None, est_error=None):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


def _require(value, name: str, *, positive: bool = True, error=DomainError) -> float:
    """Return value as a float if it is a finite real scalar > 0 (>= 0 unless positive).

    Python and numpy ints and floats qualify; anything else, arrays included,
    raises error(f"{name} must be positive and finite, got {value!r}"), with
    "nonnegative" for positive=False. This is the one statement of that rule.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if math.isfinite(x) and (x > 0.0 if positive else x >= 0.0):
        return x
    kind = "positive" if positive else "nonnegative"
    raise error(f"{name} must be {kind} and finite, got {value!r}")
