"""Energy-momentum bookkeeping for excitation emission by a moving impurity.

The central object is the frequency mismatch

    omega(p, x) = eps(p) + p**2/(2M) - q_i*p*x/M

for emitting an excitation of momentum p at direction cosine x relative to
the incoming impurity momentum q_i. Emission is possible only where omega
has a root with |x| <= 1, which requires q_i above the critical momentum
q_c = M*c; below it the impurity moves without dissipation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import _as_momentum, dispersion
from .errors import DomainError, NumericalError
from .params import SystemParams, derive

__all__ = [
    "EmissionWindow",
    "omega",
    "resonance_cos",
    "max_emission_momentum",
    "emission_window",
    "finite_time_kernel",
]

# below this |omega*t| the oscillatory kernel switches to its series form
_KERNEL_SERIES_CUT = 1e-4


@dataclass(frozen=True)
class EmissionWindow:
    """Kinematically allowed emission region for a given initial momentum."""

    q_i: float
    p_max: float             # largest emitted momentum, 0 unless dissipative
    cos_theta_max: float     # cone boundary q_c/q_i, clipped to [0, 1]
    dissipative: bool        # q_i > q_c


def _check_qi(q_i: float) -> float:
    if not (np.isfinite(q_i) and q_i >= 0):
        raise DomainError(f"initial momentum must be nonnegative and finite, got {q_i!r}")
    return float(q_i)


def omega(p, x, q_i: float, params: SystemParams):
    """Frequency mismatch for emission at direction cosine x; vectorized."""
    q_i = _check_qi(q_i)
    parr = _as_momentum(p)
    xarr = np.asarray(x, dtype=float)
    if not np.all(np.abs(xarr) <= 1):  # also rejects nan
        raise DomainError("direction cosine must lie in [-1, 1]")
    M = params.M
    out = dispersion(parr, params) + parr * parr / (2.0 * M) - q_i * parr * xarr / M
    return out if np.ndim(out) else float(out)


def resonance_cos(p: float, q_i: float, params: SystemParams):
    """Direction cosine solving omega = 0 at momentum p, or None.

    Returns x0 = M*(eps(p) + p**2/2M)/(q_i*p) when x0 <= 1; otherwise None,
    meaning momentum p cannot be emitted in any direction. x0 is always
    positive: emission happens into the forward cone only.
    """
    if not (np.isfinite(p) and p > 0):
        raise DomainError(f"momentum must be positive, got {p!r}")
    if not (np.isfinite(q_i) and q_i > 0):
        raise DomainError(f"initial momentum must be positive, got {q_i!r}")
    x0 = params.M * (dispersion(p, params) + p * p / (2.0 * params.M)) / (q_i * p)
    # tolerate roundoff at the window edge where x0 = 1 exactly
    if x0 <= 1.0 + 1e-12:
        return min(x0, 1.0)
    return None


def max_emission_momentum(q_i: float, params: SystemParams) -> float:
    """Largest excitation momentum the impurity can emit; 0 when subcritical.

    Uses the rationalized root of omega(p, x=1) = 0,

        p_max = 2*(q_i**2 - q_c**2) / (q_i + sqrt(q_c**2 + r**2*(q_i**2 - q_c**2))),

    with r = M/m. This form is exact for every mass ratio and reduces
    smoothly to (q_i**2 - q_c**2)/q_i at r = 1, where the textbook quadratic
    solution degenerates to 0/0. Raises NumericalError when q_i**2 leaves the
    float range and the root with it.
    """
    q_i = _check_qi(q_i)
    d = derive(params)
    gap = q_i * q_i - d.q_c * d.q_c
    if gap <= 0.0:
        return 0.0
    r = params.M / params.m
    p_max = 2.0 * gap / (q_i + math.sqrt(d.q_c * d.q_c + r * r * gap))
    if not math.isfinite(p_max):
        raise NumericalError(f"largest emitted momentum at q_i = {q_i!r} leaves the float range")
    return p_max


def emission_window(q_i: float, params: SystemParams) -> EmissionWindow:
    """Assemble the emission window for initial momentum q_i."""
    q_i = _check_qi(q_i)
    d = derive(params)
    dissipative = q_i > d.q_c
    cos_max = min(1.0, d.q_c / q_i) if dissipative else 1.0
    return EmissionWindow(
        q_i=q_i,
        p_max=max_emission_momentum(q_i, params),
        cos_theta_max=cos_max,
        dissipative=dissipative,
    )


def finite_time_kernel(omega_val, t: float):
    """Squared finite-time amplitude 4*sin(omega*t/2)**2 / omega**2.

    Continuous at omega = 0 with value t**2; for |omega*t| below 1e-4 the
    series t**2 * (1 - (omega*t)**2/12) is used, accurate to ~1e-17 there.
    Bounded by min(t**2, 4/omega**2) everywhere. Vectorized over omega_val.
    """
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"time must be nonnegative and finite, got {t!r}")
    w = np.asarray(omega_val, dtype=float)
    z = w * t
    small = np.abs(z) < _KERNEL_SERIES_CUT
    w_safe = np.where(small, 1.0, w)
    out = np.where(
        small,
        t * t * (1.0 - z * z / 12.0),
        4.0 * np.sin(0.5 * z) ** 2 / (w_safe * w_safe),
    )
    return out if out.ndim else float(out)
