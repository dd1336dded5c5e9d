"""Excitation spectrum of the condensate and the impurity coupling weight.

All functions are pure in (p, params) and accept either scalars or numpy
arrays of momentum magnitudes; scalars in, floats out. A result that leaves
the float range raises NumericalError instead of coming back as inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError, _in_float_range, _real_array
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


# the tail of each out-of-range message here, naming the momentum
_AT_P = " at p = {!r} leaves the float range"


def _as_momentum(p):
    arr = _real_array(p)
    if arr is None or not ((arr >= 0) & (arr < np.inf)).all():  # also rejects nan
        raise DomainError("momentum magnitude must be nonnegative and finite")
    return arr


def _energy_scales(params: SystemParams):
    """(2m, 2mc): eps(p) = p/2m * hypot(p, 2mc) and S(p) = p/hypot(p, 2mc)."""
    two_m = 2.0 * params.m  # as 0-d float64 arrays, which a ufunc takes without converting
    return np.array(two_m), np.array(two_m * derive(params).c)


def _structure_factor(two_mc):
    """S(p) = p/hypot(p, 2mc) = p**2/(2m*eps(p)), the condensate's static structure factor.

    two_mc is the second of _energy_scales(params), passed in so a caller
    that also needs 2m forms the scales once. The Feynman relation: S grows
    like p/2mc from S(0) = 0 and tends to 1. It is in [0, 1] for every
    finite p, also where p**2 and eps overflow, since SystemParams keeps 2mc
    positive and finite.
    """
    return lambda p: p / np.hypot(p, two_mc)


def _pow(v: float, n: int) -> float:
    """v**n by C pow, as float ** takes it, and inf where math.pow raises OverflowError.

    np.float64 ** is the same pow but gives inf there, with the warning the
    caller's np.errstate allows.
    """
    try:
        return math.pow(v, n)
    except OverflowError:
        return float(np.float64(v) ** n)


def _log1p(v: float) -> float:
    """log1p(v) by libm, and numpy's -inf at -1 or nan below it, where math.log1p raises."""
    try:
        return math.log1p(v)
    except ValueError:
        return float(np.log1p(v))


def _libm(fn):
    """fn applied entry by entry, in the shape of its input: a float for a float.

    The one route of a transcendental function or a power to an output.
    numpy picks its ufunc loops by CPU at import, and its AVX-512 loops
    round arcsinh, log1p, log and power differently from its baseline ones.
    fn takes one entry's Python float and calls the platform libm instead:
    math.asinh, math.log (of positive inputs), _log1p and _pow, whose bits
    are those of numpy's baseline loops. It returns a float, and the map
    returns float64 arrays. The basic operations, sqrt and hypot around it
    stay numpy's: their bits do not depend on the CPU.
    """
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: ufunc(x).astype(np.float64) if np.ndim(x) else ufunc(x)


def _scale(*factors, over=()):
    """prod(factors)/prod(over), left to right: plainly, or on frexp mantissas.

    The one route of a dimensional scale to an output. Where numpy flags an
    overflow or underflow in the plain expression, the mantissas are
    multiplied and the exponents summed, with one ldexp: the same bits where
    the partial results are normal, inf or 0 only where the value leaves the
    float range, exact under powers of two and on every CPU. A factor may be
    a (mantissa, exponent) pair. Elementwise, under the caller's errstate.
    """
    def plain(values):
        product = np.float64(1.0)
        for x in values:
            product = product * (np.ldexp(*x) if isinstance(x, tuple) else x)
        return product

    def parts(values):
        mantissa, exponent = np.float64(1.0), 0
        for x in values:  # math.frexp gives a float's parts without a numpy call
            f, e = x if isinstance(x, tuple) else math.frexp(x) if isinstance(x, float) else np.frexp(x)
            mantissa, exponent = mantissa * f, exponent + e
        return mantissa, exponent

    try:
        with np.errstate(over="raise", under="raise"):
            return plain(factors) / plain(over)
    except FloatingPointError:
        (top, up), (bottom, down) = map(parts, (factors, over))
        return np.ldexp(top / bottom, up - down)


def _odd_taylor_tail(weight, first: int, last: int):
    """series(z), the sum over odd j from first to last of weight(j) * u**(j - first) / j!.

    Every cancelling closed form of the package is u**first times such a
    series in a rapidity u: for the rates p = 2mc*sinh(u/2) and
    eps = m*c**2*sinh(u), for I0 and I1 the mass ratio is cosh(u/2) or
    cos(u/2). series is a Horner polynomial in z, highest power first:
    z = u*u gives the hyperbolic function, z = -u*u its trigonometric twin.
    The coefficients are weight(j)/j! from exact factorials.
    """
    coeffs = [weight(j) / math.factorial(j) for j in range(last, first - 1, -2)]
    head, rest = coeffs[0], coeffs[1:]

    def series(z):
        y = head
        for c in rest:
            y = y * z + c
        return y

    return series


# (sinh(u) - u)/u**3, used below u = 1: the closed transition rate, and I0
_sinh_series = _odd_taylor_tail(lambda j: 1.0, 3, 19)
# ((2 + cosh(u))*u - 3*sinh(u))/u**5, used below u = 3: the numerator of I1
_mass_series = _odd_taylor_tail(lambda j: j - 3.0, 5, 31)


def dispersion(p, params: SystemParams):
    """Excitation energy at momentum magnitude p.

    Equals sqrt((p**2/2m) * (p**2/2m + 2*n*U0)): linear (sound-like) with
    slope c at small p, free-particle-like p**2/2m + n*U0 at large p, and
    exactly 0 at p = 0. Written as (p/2m)*hypot(p, 2mc) so neither regime
    loses precision.
    """
    arr = _as_momentum(p)
    two_m, two_mc = _energy_scales(params)
    with np.errstate(over="ignore"):
        eps = arr / two_m * np.hypot(arr, two_mc)
    return _in_float_range(arr, (eps, "excitation energy" + _AT_P))


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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # s = -(1 + mu) > 0; mu**2 - 1 factors as s*(s + 2) with no cancellation,
        # and its root is taken factor by factor, so it is in range wherever s is
        s = (dispersion(arr, params) + arr * arr / (2.0 * params.m)) / nU0
        mu = -(1.0 + s)
        root = np.sqrt(s) * np.sqrt(s + 2.0)
        alpha = mu / root
        beta = 1.0 / root
    return BogoliubovCoefficients(
        mu=_in_float_range(arr, (mu, "transformation coefficient mu" + _AT_P)),
        alpha=_in_float_range(arr, (alpha, "transformation coefficient alpha" + _AT_P)),
        beta=_in_float_range(arr, (beta, "transformation coefficient beta" + _AT_P)),
    )


def coupling_weight(p, params: SystemParams):
    """Volume-independent squared impurity-excitation vertex.

    w(p) = g**2 * n * S(p), with S the static structure factor
    p**2/(2*m*eps(p)) = p/hypot(p, 2mc); the finite-box oracle divides by the
    box volume to recover the per-mode coupling. w(0) = 0, w grows like
    g**2*n*p/(2*m*c) at small p and tends to g**2*n, so it is in range for
    every finite p wherever g**2*n is.
    """
    arr = _as_momentum(p)
    _, two_mc = _energy_scales(params)
    with np.errstate(over="ignore"):
        # g enters twice, never as g*g, so w(0) = 0 at every g
        w = params.n * _structure_factor(two_mc)(arr) * params.g * params.g
    return _in_float_range(arr, (w, "coupling weight" + _AT_P))
