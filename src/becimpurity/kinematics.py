"""Energy-momentum bookkeeping for excitation emission by a moving impurity.

The central object is the frequency mismatch

    omega(p, x) = eps(p) + p**2/(2M) - q_i*p*x/M

for emitting an excitation of momentum p at direction cosine x relative to
the incoming impurity momentum q_i. Emission is possible only where omega
has a root with |x| <= 1, which requires q_i above the critical momentum
q_c = M*c; below it the impurity moves without dissipation. The window is
formed in v = q_i/q_c and r = m/M, with 2mc applied last (_window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import _as_momentum, _scale, dispersion
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


def _window(q, params: SystemParams, *units):
    """(v, prod(units)*s_max) at each validated momentum of the array q: v = q/q_c, s_max = p_max/2mc.

    The one window rule: s_max, the root of hypot(s, 1) + r*s = v with r = m/M, is
    G/(v*r + hypot(r, sqrt(G))), G = (v - 1)*(v + 1), v - 1 = (q - q_c)/q_c exact near threshold
    (Sterbenz). Where a plain value is not a normal float, the rule runs in frexp parts, v as its
    (mantissa, k) pair (a bogoliubov._scale factor), and the denominator over 2**(k + j).
    """
    q_c = derive(params).q_c
    try:  # the plain rule, which has the bits of the parts below where numpy flags no error
        with np.errstate(all="raise"):
            v, r = q / q_c, np.float64(params.m) / params.M
            G = np.maximum((q - q_c) / q_c, 0.0) * (v + 1.0)
            s_max = G / (v * r + np.hypot(r, np.sqrt(G)))
    except FloatingPointError:
        (fm, em), (fM, eM) = np.frexp(params.m), np.frexp(params.M)
        j = max(em - eM - 1022, 0)  # r/2**j is a float for every mass ratio
        r = np.ldexp(fm / fM, em - eM - j)
        with np.errstate(over="ignore", invalid="ignore"):
            (fq, up), (fc, down), (fg, e_gap) = np.frexp(q), np.frexp(q_c), np.frexp(np.maximum(q - q_c, 0.0))
            v, k, gap, e_gap = fq / fc, up - down, fg / fc, e_gap - down  # the frexp parts' quotients
            above, e_above = np.frexp(np.ldexp(v, np.minimum(k, 0)) + np.ldexp(1.0, -np.maximum(k, 0)))
            e = e_gap + e_above + np.maximum(k, 0)  # v + 1 over 2**max(k, 0), a float for every v
            root = np.ldexp(np.sqrt(np.ldexp(gap * above, e & 1)), (e >> 1) - k - j)  # sqrt(G)/2**(k + j)
            over, e_over = np.frexp(v * r + np.hypot(np.ldexp(r, -k), root))
            # an exact 0 below threshold, where the denominator may underflow to 0 too
            v, s_max = (v, k), (np.where(gap > 0.0, gap * above / over, 0.0), e - k - j - e_over)
    with np.errstate(over="ignore"):
        return v, _scale(*units, s_max)


def _p_max(q, params: SystemParams):
    """p_max = 2mc*s_max at each validated momentum of the array q (_window); inf past the float range."""
    return _window(q, params, 2.0, params.m, derive(params).c)[1]


def max_emission_momentum(q_i, params: SystemParams):
    """Largest excitation momentum the impurity can emit; 0 when subcritical.

    p_max = 2mc*s_max, s_max the rationalized root of omega(p, x=1) = 0 (_window): exact
    for every mass ratio and as q_i -> q_c+. q_i is a float or a 1-D array. Raises
    NumericalError at the first momentum whose p_max leaves the float range.
    """
    q, pack = _momenta(q_i)
    return pack(_in_float_range(q, (_p_max(q, params), _P_MAX_RANGE)))


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
