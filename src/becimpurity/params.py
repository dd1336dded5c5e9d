"""Physical inputs in reduced units and the derived scales everyone consumes.

Conventions: hbar = 1 throughout. With the default construction (every field
equal to 1) the sound speed is 1, so momenta read in units of m*c and energies
in units of m*c**2; all documented example numbers assume that normalization.
All containers are frozen after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import ParameterDomainError, _require

__all__ = [
    "SystemParams",
    "DerivedQuantities",
    "derive",
    "renormalized_coupling",
]


@dataclass(frozen=True)
class DerivedQuantities:
    """Secondary scales computed once from a SystemParams."""

    c: float      # speed of sound, sqrt(n*U0/m)
    q_c: float    # critical impurity momentum, M*c
    m_r: float    # impurity-boson reduced mass


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs of the model.

    m, M, n, U0 must be positive (a repulsive condensate with a real sound
    speed). The impurity-boson interaction may be given either as the bare
    coupling ``g`` or as the s-wave scattering length ``a``; whichever is
    omitted is derived to first Born order, g = 2*pi*a/m_r. When both are
    supplied they are kept independent (the rate formulas use g, the
    renormalized energy formulas use a) and a warning is emitted if they
    disagree grossly.
    """

    m: float = 1.0
    M: float = 1.0
    n: float = 1.0
    U0: float = 1.0
    g: float | None = None
    a: float | None = None

    def __post_init__(self):
        for name in ("m", "M", "n", "U0"):
            value = _require(getattr(self, name), name, error=ParameterDomainError)
            object.__setattr__(self, name, value)
        for name in ("g", "a"):
            value = getattr(self, name)
            if value is not None:
                value = _require(value, name, kind="signed", error=ParameterDomainError)
                object.__setattr__(self, name, value)
        if self.g is None and self.a is None:
            raise ParameterDomainError("set at least one of g (bare coupling) or a (scattering length)")
        d = derive(self)
        for name, value, inputs in (
            ("c = sqrt(n*U0/m)", d.c, f"n = {self.n!r}, U0 = {self.U0!r} and m = {self.m!r}"),
            ("q_c = M*c", d.q_c, f"M = {self.M!r} and c = {d.c!r}"),
            ("2*m*c", 2.0 * self.m * d.c, f"m = {self.m!r} and c = {d.c!r}"),
        ):
            if not 0.0 < value < math.inf:
                raise ParameterDomainError(f"{name} with {inputs} leaves the float range")
        m_r = d.m_r
        if self.g is None or self.a is None:
            if self.g is None:
                name, value, born = "g", 2.0 * math.pi * self.a / m_r, f"2*pi*a/m_r with a = {self.a!r}"
            else:
                name, value, born = "a", self.g * m_r / (2.0 * math.pi), f"g*m_r/(2*pi) with g = {self.g!r}"
            if not math.isfinite(value):
                raise ParameterDomainError(f"{name} = {born} and m_r = {m_r!r} leaves the float range")
            object.__setattr__(self, name, value)
        elif self.g != 0.0:
            born = 2.0 * math.pi * self.a / m_r
            if abs(self.g - born) / abs(self.g) > 0.5:
                warnings.warn(
                    f"g={self.g} and a={self.a} disagree with the Born relation "
                    f"g = 2*pi*a/m_r = {born}; keeping both as given",
                    stacklevel=2,
                )


def derive(params: SystemParams) -> DerivedQuantities:
    """Compute the derived scales; pure and deterministic.

    c = sqrt(n*U0/m) is formed from the separate roots where n*U0 or
    n*U0/m is not a normal float, so c is inf or 0 only where its value is.
    m_r = mM/(m + M) is formed as small/(1 + small/big) from the smaller and
    larger mass, which stays in range for every pair of positive masses.
    """
    m, M, n, U0 = params.m, params.M, params.n, params.U0
    ratio = n * U0 / m
    if sys.float_info.min <= min(n * U0, ratio) and ratio < math.inf:
        c = math.sqrt(ratio)
    else:
        c = math.sqrt(n) * math.sqrt(U0) / math.sqrt(m)
    small, big = sorted((m, M))
    m_r = small / (1.0 + small / big)
    return DerivedQuantities(c=c, q_c=M * c, m_r=m_r)


def renormalized_coupling(a: float, m_r: float, cutoff: float) -> float:
    """Cutoff-regularized impurity-boson coupling to second order in a.

    Returns (2*pi*a/m_r) * (1 + (2*a/pi)*cutoff): the first Born value plus
    the counterterm that cancels the linear large-momentum divergence of the
    second-order energy. Affine in the cutoff by construction.
    """
    a = _require(a, "a", kind="signed", error=ParameterDomainError)
    m_r = _require(m_r, "m_r", error=ParameterDomainError)
    cutoff = _require(cutoff, "cutoff", kind="nonnegative")
    return (2.0 * math.pi * a / m_r) * (1.0 + (2.0 * a / math.pi) * cutoff)
