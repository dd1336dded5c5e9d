"""Energy-momentum bookkeeping for excitation emission by a moving impurity.

The central object is the frequency mismatch

    omega(p, x) = eps(p) + p**2/(2M) - q_i*p*x/M

for emitting an excitation of momentum p at direction cosine x relative to
the incoming impurity momentum q_i. Emission is possible only where omega
has a root with |x| <= 1, which requires q_i above the critical momentum
q_c = M*c; below it the impurity moves without dissipation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import _as_momentum, dispersion
from .errors import DomainError, _in_float_range, _real_array, _require, _require_1d
from .params import SystemParams, derive

__all__ = [
    "EmissionWindow",
    "omega",
    "max_emission_momentum",
    "emission_window",
]

_P_MAX_RANGE = "largest emitted momentum at q_i = {!r} leaves the float range"


@dataclass(frozen=True)
class EmissionWindow:
    """Kinematically allowed emission region at one initial momentum or an array of them."""

    q_i: float
    p_max: float             # largest emitted momentum, 0 unless dissipative
    cos_theta_max: float     # cone boundary q_c/q_i, clipped to [0, 1]
    dissipative: bool        # q_i > q_c


def omega(p, x, q_i: float, params: SystemParams):
    """Frequency mismatch for emission at direction cosine x; vectorized.

    Raises NumericalError when it leaves the float range.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    p = _as_momentum(p)
    xarr = _real_array(x)
    if xarr is None or not np.all(np.abs(xarr) <= 1):  # also rejects nan
        raise DomainError("direction cosine must lie in [-1, 1]")
    with np.errstate(over="ignore", invalid="ignore"):
        out = dispersion(p, params) + p * p / (2.0 * params.M) - q_i * p * xarr / params.M
    return _in_float_range(p, (out, "frequency mismatch at p = {!r} leaves the float range"))


def _p_max(q, params: SystemParams):
    """Largest emitted momentum at each validated momentum of the array q; nan past the float range.

    The one window rule, shared by max_emission_momentum and the closed rates.
    """
    q_c = derive(params).q_c
    r = params.M / params.m
    with np.errstate(over="ignore", invalid="ignore"):
        # the factored gap is exact near threshold (Sterbenz), where q*q - q_c*q_c cancels
        gap = np.maximum((q - q_c) * (q + q_c), 0.0)
        radicand = q_c * q_c + r * r * gap
        root = np.where(np.isfinite(radicand), np.sqrt(radicand), np.hypot(q_c, r * np.sqrt(gap)))
        # doubling is exact, so 2*(gap/x) is 2*gap/x short of subnormals, without its overflow
        return 2.0 * (gap / (q + root))


def max_emission_momentum(q_i, params: SystemParams):
    """Largest excitation momentum the impurity can emit; 0 when subcritical.

    Uses the rationalized root of omega(p, x=1) = 0, with r = M/m,

        p_max = 2*gap / (q_i + sqrt(q_c**2 + r**2*gap)),  gap = (q_i - q_c)*(q_i + q_c).

    It is exact for every mass ratio and reduces smoothly to gap/q_i at
    r = 1, where the textbook quadratic solution degenerates to 0/0. The
    factored gap is exact as q_i -> q_c+, where q_i**2 - q_c**2 cancels.
    Where r**2*gap overflows, the square root is hypot(q_c, r*sqrt(gap)).
    q_i is a float or a 1-D array. Raises NumericalError at the first
    momentum whose gap, and with it the root, leaves the float range.
    """
    q, pack = _momenta(q_i)
    p_max = _p_max(q, params)
    return pack(_in_float_range(q, (p_max, _P_MAX_RANGE)))


def _listed(values, plural: str, entry, accepts):
    """values as a float array of entry(v), a float or a raise, over its entries, and their pack.

    values is a float or a 1-D array, list or tuple (errors._require_1d, as plural); a float
    array where accepts(values) holds throughout is taken whole. The pack gives a float (or
    bool) for a scalar and an array otherwise.
    """
    _require_1d(values, plural)
    if not (isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim == 1):
        return np.array([entry(values)]), np.ndarray.item
    if isinstance(values, np.ndarray) and values.dtype.kind == "f" and accepts(values).all():
        return values.astype(float), np.asarray
    entries = values.tolist() if isinstance(values, np.ndarray) else values
    return np.array([entry(v) for v in entries]), np.asarray


def _entries(values, name: str, plural: str):
    """values as _listed gives them, each entry held to errors._require (nonnegative) as name."""
    return _listed(values, plural, lambda v: _require(v, name, kind="nonnegative"),
                   lambda x: (x >= 0) & (x < np.inf))


def _subcritical(values, params: SystemParams, what: str):
    """Momenta as _listed gives them, each a real scalar with |q_i| < q_c: the one subcritical rule.

    The first other entry (nan, or one errors._real_array does not take as 0-d) raises
    DomainError "<what> is defined for |q_i| < q_c = <q_c>, got <entry!r>", a real one as a float.
    """
    q_c = derive(params).q_c

    def entry(v):
        x = _real_array(v)
        v = float(x) if x is not None and x.ndim == 0 else v
        if isinstance(v, float) and abs(v) < q_c:
            return v
        raise DomainError(f"{what} is defined for |q_i| < q_c = {q_c}, got {v!r}")

    return _listed(values, "initial momenta", entry, lambda x: np.abs(x) < q_c)


def _momenta(q_i):
    """Initial momenta as a float array and their pack; see _entries."""
    return _entries(q_i, "initial momentum", "initial momenta")


def emission_window(q_i, params: SystemParams) -> EmissionWindow:
    """Assemble the emission window for initial momentum q_i, a float or a 1-D array."""
    q, pack = _momenta(q_i)
    q_c = derive(params).q_c
    return EmissionWindow(
        q_i=pack(q),
        p_max=pack(max_emission_momentum(q, params)),
        cos_theta_max=pack(q_c / np.maximum(q, q_c)),  # 1 unless dissipative
        dissipative=pack(q > q_c),
    )
