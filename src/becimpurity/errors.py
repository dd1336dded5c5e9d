"""Exception taxonomy shared by the whole package."""

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
