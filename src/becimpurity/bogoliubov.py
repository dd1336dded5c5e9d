"""Excitation spectrum of the condensate and the impurity coupling weight.

All functions are pure in (p, params) and accept either scalars or numpy
arrays of momentum magnitudes; scalars in, floats out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .params import SystemParams, derive

__all__ = [
    "BogoliubovCoefficients",
    "dispersion",
    "transform_coefficients",
    "coupling_weight",
]


@dataclass(frozen=True)
class BogoliubovCoefficients:
    """Diagonalizing transformation at one momentum: alpha**2 - beta**2 = 1."""

    mu: float
    alpha: float
    beta: float


def _as_momentum(p):
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise DomainError("momentum magnitude must be nonnegative and finite")
    return arr


def _excitation_energy(params: SystemParams):
    """eps(p) for momenta already validated by _as_momentum.

    2m and 2mc are computed once, so quadrature integrands can call the
    returned function on every panel without re-deriving the sound speed.
    """
    two_m = 2.0 * params.m
    two_mc = two_m * derive(params).c

    def eps(p):
        return p / two_m * np.hypot(p, two_mc)

    return eps


def dispersion(p, params: SystemParams):
    """Excitation energy at momentum magnitude p.

    Equals sqrt((p**2/2m) * (p**2/2m + 2*n*U0)): linear (sound-like) with
    slope c at small p, free-particle-like p**2/2m + n*U0 at large p, and
    exactly 0 at p = 0. Written as (p/2m)*hypot(p, 2mc) so neither regime
    loses precision.
    """
    eps = _excitation_energy(params)(_as_momentum(p))
    return eps if eps.ndim else float(eps)


def transform_coefficients(p, params: SystemParams) -> BogoliubovCoefficients:
    """Transformation coefficients mu, alpha, beta at momentum p > 0.

    mu = -(eps + p**2/2m + n*U0)/(n*U0) is below -1 for every p > 0;
    alpha = mu/sqrt(mu**2 - 1) and beta = 1/sqrt(mu**2 - 1). The sign
    convention (mu and alpha negative) is part of the public contract.
    """
    arr = _as_momentum(p)
    if np.any(arr == 0):
        raise SingularityError("transformation coefficients are singular at p = 0")
    nU0 = params.n * params.U0
    # s = -(1 + mu) > 0; mu**2 - 1 factors as s*(s + 2) with no cancellation
    s = (dispersion(arr, params) + arr * arr / (2.0 * params.m)) / nU0
    mu = -(1.0 + s)
    root = np.sqrt(s * (s + 2.0))
    alpha = mu / root
    beta = 1.0 / root
    if arr.ndim:
        return BogoliubovCoefficients(mu=mu, alpha=alpha, beta=beta)
    return BogoliubovCoefficients(mu=float(mu), alpha=float(alpha), beta=float(beta))


def coupling_weight(p, params: SystemParams):
    """Volume-independent squared impurity-excitation vertex.

    w(p) = g**2 * n * p**2 / (2*m*eps(p)); the finite-box oracle divides by
    the box volume to recover the per-mode coupling. Continuously extended to
    w(0) = 0 (w grows like g**2*n*p/(2*m*c) at small p).
    """
    arr = _as_momentum(p)
    out = np.zeros_like(arr)
    mask = arr > 0
    if np.any(mask):
        pm = arr[mask]
        eps = dispersion(pm, params)
        out[mask] = params.g**2 * params.n * pm * pm / (2.0 * params.m * eps)
    return out if out.ndim else float(out)
