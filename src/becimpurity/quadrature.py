"""Adaptive Gauss-Kronrod integration and finite-difference stencils.

Everything here is deterministic by construction: the interval queue breaks
error ties by insertion order, node evaluation is vectorized with a fixed
layout, and neither randomness nor wall clock enters the algorithm, so
identical inputs produce bit-identical outputs.

Integrands must accept a numpy array of abscissae and return an array of the
same shape. Interval endpoints are never evaluated (all nodes are interior),
which makes integrable endpoint singularities usable if the caller keeps them
off the nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError

__all__ = [
    "QuadratureConfig",
    "integrate",
    "integrate_semi_infinite",
    "second_derivative",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (standard published constants; polynomial exactness through degree 22 is
# pinned by the test suite).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending nodes
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_GAUSS = np.concatenate((_WG[:-1], _WG[::-1]))           # matches _NODES[1::2]

_EPS = float(np.finfo(float).eps)
_INITIAL_PANELS = 8


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and budget contract for the adaptive integrators.

    The target accuracy is max(abs_tol, rel_tol*|integral|); at least one of
    the two tolerances must be positive. ``max_subdivisions`` caps the number
    of interval bisections after the initial uniform partition.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol >= 0 and self.abs_tol >= 0):
            raise ConfigurationError("tolerances must be nonnegative")
        if self.rel_tol == 0 and self.abs_tol == 0:
            raise ConfigurationError("at least one of rel_tol, abs_tol must be positive")
        if not (isinstance(self.max_subdivisions, int) and self.max_subdivisions >= 1):
            raise ConfigurationError(f"max_subdivisions must be a positive integer, got {self.max_subdivisions!r}")


def _eval_panel(f, a: float, b: float):
    """One Gauss-Kronrod pass over [a, b]: (estimate, error_estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = center + half * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError("integrand must return an array matching its input shape")
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise NumericalError(f"integrand returned a non-finite value near x = {bad}")
    k15 = half * float(_W_KRONROD @ y)
    g7 = half * float(_W_GAUSS @ y[1::2])
    resabs = half * float(_W_KRONROD @ np.abs(y))
    mean = k15 / (b - a)
    resasc = half * float(_W_KRONROD @ np.abs(y - mean))
    err = abs(k15 - g7)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # never report an estimate below the roundoff floor of the panel
    err = max(err, 50.0 * _EPS * resabs)
    return k15, err


def integrate(f: Callable, a: float, b: float, cfg: QuadratureConfig | None = None):
    """Adaptively integrate f over the finite interval [a, b].

    Returns (value, error_estimate). Raises NumericalError, carrying the best
    value and its estimate, if the subdivision budget is exhausted before the
    tolerance contract is met.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")

    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    heap = []
    seq = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _eval_panel(f, lo, hi)
        heapq.heappush(heap, (-err, seq, lo, hi, val))
        seq += 1

    splits = 0
    while True:
        total = 0.0
        total_err = 0.0
        for item in heap:
            total += item[4]
            total_err += -item[0]
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= target:
            return total, total_err
        if splits >= cfg.max_subdivisions:
            raise NumericalError(
                f"subdivision budget ({cfg.max_subdivisions}) exhausted: "
                f"error estimate {total_err:.3e} above target {target:.3e}",
                value=total,
                est_error=total_err,
            )
        _, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for piece in ((lo, mid), (mid, hi)):
            val, err = _eval_panel(f, *piece)
            heapq.heappush(heap, (-err, seq, piece[0], piece[1], val))
            seq += 1
        splits += 1


def integrate_semi_infinite(f: Callable, a: float, cfg: QuadratureConfig | None = None):
    """Integrate f over [a, inf) for integrands with f(p)*p**2 -> 0.

    The rational map p = a + t/(1-t) carries [a, inf) to t in [0, 1); the
    decay contract keeps the transformed integrand bounded near t = 1.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    if not np.isfinite(a):
        raise DomainError("lower bound must be finite")

    def transformed(t):
        one_minus = 1.0 - t
        p = a + t / one_minus
        return f(p) / one_minus**2

    return integrate(transformed, 0.0, 1.0, cfg)


def second_derivative(f: Callable, x0: float, h: float) -> float:
    """Five-point central second derivative, truncation error O(h**4)."""
    if not (np.isfinite(h) and h > 0):
        raise DomainError(f"step h must be positive and finite, got {h!r}")
    num = (
        -f(x0 - 2.0 * h)
        + 16.0 * f(x0 - h)
        - 30.0 * f(x0)
        + 16.0 * f(x0 + h)
        - f(x0 + 2.0 * h)
    )
    return num / (12.0 * h * h)
