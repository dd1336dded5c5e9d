"""Exception taxonomy shared by the whole package, and the rules every module applies.

Four rules are stated here and nowhere else:

- _require: a parameter is a finite real scalar, positive, nonnegative or
  of either sign;
- _require_1d: an input of one value or many is a float or a 1-D array;
- _real_array: an input is a real scalar or an array of bools, ints or
  floats, as a float array, or None for the caller to refuse;
- _in_float_range: a computed result is finite, else NumericalError at the
  first entry, in loop order, that leaves the float range.
"""

import math
import numbers

import numpy as np

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


def _require(value, name: str, *, kind: str = "positive", error=DomainError) -> float:
    """Return value as a float if it is a finite real scalar of the kind asked for.

    kind is "positive" (> 0), "nonnegative" (>= 0) or "signed" (any sign).
    Python and numpy ints and floats qualify, a bool as 0.0 or 1.0;
    anything else, arrays included, raises error with the message "<name>
    must be <kind> and finite, got <value!r>", or "<name> must be finite,
    got <value!r>" for "signed". This is the one statement of that rule.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if math.isfinite(x) and (kind == "signed" or x > 0.0 or (kind == "nonnegative" and x == 0.0)):
        return x
    sign = "" if kind == "signed" else f"{kind} and "
    raise error(f"{name} must be {sign}finite, got {value!r}")


def _require_1d(values, plural: str) -> None:
    """Refuse an array of 2 or more dimensions where a float or a 1-D array of plural is taken."""
    if isinstance(values, np.ndarray) and values.ndim > 1:
        raise DomainError(f"{plural} must be a float or a 1-D array, got shape {values.shape}")


def _real_array(value):
    """value as a float array if it is a real scalar or an array of bools, ints or floats.

    Anything else gives None, which each caller refuses with its own
    message: numeric strings, ragged nestings, and an int beyond the float
    range included.
    """
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf" or isinstance(value, numbers.Real):
            return np.asarray(arr, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an int beyond the float range
        pass
    return None


def _in_float_range(at, *stages):
    """The last stage's values, a float when 0-d; NumericalError where a stage is not finite.

    stages are (values, message) pairs of one shape, in the order a loop
    over the entries would compute them, and at labels those entries,
    broadcast to that shape. At the first entry in C order where some
    stage is not finite, the earliest such stage's message is raised, its
    one {!r} filled with float(at) there.
    """
    finite = np.isfinite(np.array([values for values, _ in stages]))
    if not finite.all():
        bad = ~finite.reshape(len(stages), -1)
        entry = bad.any(axis=0).argmax()
        at = np.broadcast_to(at, np.shape(stages[0][0])).flat[entry]
        raise NumericalError(stages[bad[:, entry].argmax()][1].format(float(at)))
    values = stages[-1][0]
    return float(values) if np.ndim(values) == 0 else values
