"""Renormalized impurity energy shift, effective mass, and the two special
functions they need.

The bare second-order energy diverges linearly with the momentum cutoff;
re-expressing the contact coupling through the physical scattering length a
cancels the divergence. The quadrature route integrates the subtracted form,
(4*m*m_r - integrand) up to the cutoff, which folds the counterterm (the
integrand's large-p limit) under the integral sign; after the prefactor
n*a**2/(m*m_r**2) it is the same term, 4*n*a**2*cutoff/m_r, that
params.renormalized_coupling adds to the mean-field shift.

Both numerical routes integrate in the condensate's own momentum scale.
The shift's integrand is written once in s = p/2mc (_shift_integrand), in
v = q_i/q_c and r = m/M alone. Subtracted, it is near its s = 0 value
below the crossover momentum 2mc of the dispersion and falls like 1/s**2
above it, so the shift maps s = t/(1 - t) (quadrature._rational_map) and
integrates t over [0, t_cut], t_cut the image of cutoff/2mc: 8 initial
panels settle it at any cutoff, where 8 uniform panels of p bisected
their first one up to 12 times at a cutoff of 4000. The scales
4*m**2*2mc and n*a**2/(m*m_r**2) come in last, so the shift follows a
change of units exactly. The scale is 2mc, not mc: at M = 1e-3 m the
stencil mass on shifts mapped in mc is 2.8e-3 off the closed correction,
in 2mc 4.1e-5. The quadrature mass's curvature integrand
(_curvature_integrand) is written in the same s and r, where its integral
over the half line is I1(m/M) itself, so that route and the closed one
share their prefactor and differ only in how they get I1.

Everything is parameterized by a; the bare coupling never appears here.
Subcritical momenta only: above the critical momentum the energy denominator
crosses zero and a principal-value treatment would be needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bogoliubov import _libm, _log1p, _mass_series, _pow, _scale, _sinh_series
from .errors import PerturbativeBreakdownError, _in_float_range, _require
from .kinematics import _subcritical
from .params import SystemParams, derive
from .quadrature import (
    _rational_image,
    _rational_map,
    integrate,
    integrate_semi_infinite,
    second_derivative,
)

__all__ = [
    "SpectrumPoint",
    "MassResult",
    "I0",
    "I1",
    "mean_field_shift",
    "energy_shift_closed",
    "energy_shift_quadrature",
    "effective_mass_closed",
    "effective_mass_quadrature",
    "effective_mass_finite_difference",
    "energy_spectrum",
]

_DEFAULT_TOL = 1e-12
_FD_CUTOFF = 4000.0  # the stencil's cutoff, in units of mc


@dataclass(frozen=True)
class SpectrumPoint:
    """One point of the subcritical impurity spectrum.

    components holds the momentum-independent pieces: the mean-field shift
    (first order in a) and the condensate-fluctuation shift (second order).
    Each point holds its own dict.
    """

    q_i: float
    energy: float
    components: dict


@dataclass(frozen=True)
class MassResult:
    """Effective mass and the dimensionless correction M/M_ef - 1.

    correction is negative for repulsive coupling (the dressed impurity is
    heavier). method is one of {"closed", "quadrature", "finite_difference"}.
    """

    M_ef: float
    correction: float
    method: str


def _rapidity(x: float):
    """(u, z, s, d) at a mass ratio x != 1, shared by I0 and I1.

    u = 2*acosh(x) above 1 and 2*acos(x) below it, z = u*u or -u*u to match
    (see bogoliubov._odd_taylor_tail), s = sqrt(|x*x - 1|) without squaring
    x, so in range for every finite x, and d = x - 1.
    """
    d = x - 1.0
    s = math.sqrt(abs(d)) * math.sqrt(x + 1.0)
    if x > 1.0:
        u = 2.0 * math.acosh(x)
        return u, u * u, s, d
    u = 2.0 * math.acos(x)
    return u, -u * u, s, d


def I0(x: float) -> float:
    """First fluctuation integral as a function of the mass ratio m/M.

    Strictly decreasing on (0, inf) with I0(0+) = pi/2, I0(1) = 4/3 and
    I0(inf) = 1. In the rapidity u of _rapidity, I0 = x/d - u/(2*d*s) on
    both sides of the equal-mass point, where it cancels like 0/0. That is
    (sinh(u) - u)/(2*d*s) above it and (u - sin(u))/(2*|d|*s) below it, and
    below u = 1 the numerator is its odd Taylor tail instead. Exact to
    rounding for every positive finite x.
    """
    x = _require(x, "mass ratio")
    if x == 1.0:
        return 4.0 / 3.0
    u, z, s, d = _rapidity(x)
    if u < 1.0:
        return _pow(u, 3) * _sinh_series(z) / (2.0 * abs(d) * s)
    return x / d - u / (2.0 * d * s)


def I1(y: float) -> float:
    """Second fluctuation integral (effective-mass weight) vs the mass ratio.

    Strictly decreasing with I1(0+) = pi/4, I1(1) = 2/15 and I1(inf) = 0.
    In the rapidity u of _rapidity, I1 = ((1 + 2*y*y)*u - 6*y*s)/(4*s**5),
    written with s divided out first so that no step overflows; below u = 3
    the numerator (2 + cosh(u))*u - 3*sinh(u) (or its trigonometric twin)
    is its odd Taylor tail instead. Exact to rounding for every positive
    finite y, and 0.0 only where the true value underflows.
    """
    y = _require(y, "mass ratio")
    if y == 1.0:
        return 2.0 / 15.0
    u, z, s, _ = _rapidity(y)
    if u < 3.0:
        return _pow(u, 5) * _mass_series(z) / (4.0 * s**5)
    return _scaled_I1(u, s, y) / (4.0 * s) / (s * s)


def _scaled_I1(u: float, s: float, y: float) -> float:
    """4*s**3*I1(y) from _rapidity's u and s, for u >= 3: finite for every finite y."""
    r = y / s
    return u * (1.0 / (s * s) + 2.0 * r * r) - 6.0 * r


def mean_field_shift(params: SystemParams) -> float:
    """First-order energy shift 2*pi*n*a/m_r; NumericalError where it leaves the float range."""
    shift = 2.0 * math.pi * params.n * params.a / derive(params).m_r
    return _in_float_range(params.a, (shift, "mean-field shift at a = {!r} leaves the float range"))


def energy_shift_closed(params: SystemParams) -> float:
    """Renormalized impurity energy at rest, second order in a.

    E(0) = (2*pi*n*a/m_r) * (1 + (4*a*m*c/pi) * I0(m/M)); the fluctuation
    part is positive for repulsive a. Raises NumericalError where E(0), or
    the mean-field shift before it, leaves the float range.
    """
    d = derive(params)
    correction = 4.0 * params.a * params.m * d.c / math.pi * I0(params.m / params.M)
    energy = mean_field_shift(params) * (1.0 + correction)
    return _in_float_range(
        params.a, (energy, "closed-form energy shift at a = {!r} leaves the float range"))


def _denominators(s, r: float):
    """(h, w) = (hypot(s, 1), h + r*s): eps = 2mc**2*s*h and eps + p**2/2M = 2mc**2*s*w."""
    h = np.hypot(s, 1.0)
    return h, h + r * s


def _shift_integrand(s, v: float, r: float):
    """The second-order integrand over 4*m**2, in s = p/2mc, v = q_i/q_c and r = m/M.

    With u = v/w it is s**2/(h*w) at rest and s**2*(log1p(u) - log1p(-u))/(2*v*h)
    in motion (h, w of _denominators), vectorized over s; the log pair makes
    negating v an exact (bitwise) symmetry, so the spectrum is even in q_i by
    construction. Its large-s limit is 1/(1 + r).
    """
    h, w = _denominators(s, r)
    if v == 0.0:
        return s * s / (h * w)
    return s * s * _logs(v / w) / (2.0 * v * h)


def _curvature_integrand(s, r: float):
    """s**2/(h*w**3), h and w of _denominators: its integral over s >= 0 is I1(r).

    The cube is w*w*w, so no libm loop chooses its bits; where it overflows,
    for a light impurity, the integrand is 0.
    """
    h, w = _denominators(s, r)
    return s * s / (h * (w * w * w))


# the libm calls of the integrands here, entry by entry (see bogoliubov._libm)
_logs = _libm(lambda u: _log1p(u) - _log1p(-u))


def energy_shift_quadrature(q_i: float, params: SystemParams, cutoff: float) -> float:
    """Mean-field plus cutoff-renormalized fluctuation shift at momentum q_i.

    The fluctuation part is the subtracted integral up to the cutoff, with
    no large-constant cancellation, and converges to the closed form like
    1/cutoff. It is integrated in t = s/(1 + s), s = p/2mc, on [0, t_cut]
    with t_cut the image of the cutoff, so that its initial panels follow
    the crossover at p = 2mc whatever the cutoff: every cutoff converges,
    the largest ones at t_cut = 1, the cutoff-free shift. A non-finite
    integrand is reported at its node in t. The prefactor
    n*a**2/(m*m_r**2) and the integral meet in bogoliubov._scale, so neither
    overflows short of the shift. Raises NumericalError where the shift
    leaves the float range.
    """
    # q_i as the one entry of a list: an array q_i is an offending entry
    q_i = _subcritical([q_i], params, "energy shift")[0].item()
    d = derive(params)
    cutoff = _require(cutoff, "cutoff")
    m, m_r = params.m, d.m_r
    v, r = q_i / d.q_c, m / params.M
    two_mc = 2.0 * m * d.c
    limit = 1.0 / (1.0 + r)  # large-s limit of the integrand
    subtracted = _rational_map(lambda s: limit - _shift_integrand(s, v, r), 0.0)
    # for a light impurity r*s overflows to inf and the integrand to 0
    with np.errstate(over="ignore"):
        val, _ = integrate(subtracted, 0.0, _rational_image(cutoff / two_mc), _DEFAULT_TOL)
    # the prefactor n*a**2/(m*m_r**2) times 4*m**2*2mc*val, by bogoliubov._scale
    a = params.a
    with np.errstate(over="ignore"):
        fluctuation = _scale(a, a, params.n, over=(m, m_r, m_r), times=(4.0, m, m, two_mc, val))
    energy = mean_field_shift(params) + fluctuation
    return _in_float_range(q_i, (energy, "energy shift at q_i = {!r} leaves the float range"))


def effective_mass_closed(params: SystemParams) -> MassResult:
    """Closed-form dressed mass M_ef = M / (1 - sigma), with

    sigma = (16/3) * (n*a**2/(M*c)) * (m/m_r)**2 * I1(m/M).

    Where I1(m/M) leaves the normal floats (m/M above about 2.2e103) while
    (m/m_r)**2 = (1 + m/M)**2 grows as fast, sigma is formed instead as
    (4/3) * (n*a**2/(m*c)) * (y/s) * ((1 + y)/s)**2 * (4*s**3*I1(y)) with
    y = m/M and s = sqrt(y*y - 1), whose factors all stay near their
    large-y limits.
    """
    ratio = params.m / params.M
    i1 = I1(ratio)
    if i1 >= sys.float_info.min:
        sigma = _mass_sigma(params, i1)
    else:
        a = params.a
        u, _, s, _ = _rapidity(ratio)
        x = (1.0 + ratio) / s
        sigma = (
            (4.0 / 3.0) * params.n * (a * a) / (params.m * derive(params).c)
            * (ratio / s) * (x * x) * _scaled_I1(u, s, ratio)
        )
    sigma = _in_float_range(
        ratio, (sigma, "closed-form mass correction at m/M = {!r}: its factors leave the float range"))
    return _mass_from_sigma(sigma, params, "closed")


def _mass_sigma(params: SystemParams, i1: float) -> float:
    """sigma = (16/3) * (n*a**2/(M*c)) * (m/m_r)**2 * i1: the mass prefactor of both routes.

    For i1 = I1(m/M) a normal float; M*c = q_c is positive and normal (SystemParams).
    """
    d = derive(params)
    a, x = params.a, params.m / d.m_r
    return (16.0 / 3.0) * params.n * (a * a) / (params.M * d.c) * (x * x) * i1


def _mass_from_sigma(sigma: float, params: SystemParams, method: str) -> MassResult:
    """MassResult from sigma = 1 - M/M_ef, once sigma is finite and below 0.5 in magnitude."""
    message = f"{method} mass correction at m/M = {{!r}} leaves the float range"
    sigma = _in_float_range(params.m / params.M, (sigma, message))
    if abs(sigma) >= 0.5:
        raise PerturbativeBreakdownError(
            f"mass correction magnitude {abs(sigma):.3g} is not perturbative (>= 0.5)"
        )
    return MassResult(M_ef=params.M / (1.0 - sigma), correction=-sigma, method=method)


def effective_mass_quadrature(params: SystemParams, tol: float = _DEFAULT_TOL) -> MassResult:
    """Dressed mass from the curvature integral of the second-order energy.

    1/M_ef = 1/M - (2/3) * (n*a**2/(m*m_r**2*M**2)) * K with
    K = int_0^inf p**6 / (eps * (eps + p**2/2M)**3) dp. In s = p/2mc,
    K = (16*m**4/2mc) * int_0^inf s**2/(h*w**3) ds (_curvature_integrand),
    and that integral is I1(m/M): this route is the closed one with I1 taken
    by quadrature, integrated in the rational map t = s/(1 + s) of
    integrate_semi_infinite, and sigma = 1 - M/M_ef is the closed route's
    prefactor (_mass_sigma) times it. Where the integral is not a normal
    float (m/M from about 1e103) it raises NumericalError, as where sigma
    leaves the float range.
    """
    r = params.m / params.M
    # for a light impurity w**3 overflows to inf and the integrand to 0
    with np.errstate(over="ignore"):
        i1, _ = integrate_semi_infinite(lambda s: _curvature_integrand(s, r), 0.0, tol)
    sigma = _mass_sigma(params, i1) if i1 >= sys.float_info.min else math.nan
    return _mass_from_sigma(sigma, params, "quadrature")


def effective_mass_finite_difference(params: SystemParams) -> MassResult:
    """Dressed mass from a five-point stencil on the subtracted energy.

    The curvature of the fluctuation part at q_i = 0, taken with step
    0.01*q_c, gives 1/M_ef - 1/M; the constant of the cutoff _FD_CUTOFF*mc
    cancels in the stencil, leaving an O(1/cutoff) residue in the curvature
    itself (about 5e-4 relative); in these scales the correction is the same
    in every unit. The stencil takes three shifts, not five: E(q) is even
    bit for bit, as the vanishing_linear_term check measures, so E(h) and
    E(2h) are the E(-h) and E(-2h) already formed.
    """
    d = derive(params)
    h, cutoff = 0.01 * d.q_c, _FD_CUTOFF * params.m * d.c
    shifts = {}  # by |q|, formed at the q first asked for: -2h, -h, 0

    def shift(q):
        if abs(q) not in shifts:
            shifts[abs(q)] = energy_shift_quadrature(q, params, cutoff)
        return shifts[abs(q)]

    d2 = second_derivative(shift, 0.0, h)
    return _mass_from_sigma(-params.M * d2, params, "finite_difference")


def energy_spectrum(q_list, params: SystemParams) -> list[SpectrumPoint]:
    """Quadratic subcritical spectrum E(q_i) = E(0) + q_i**2/(2*M_ef).

    Built from the closed forms; even in q_i. q_list is a float or a 1-D
    array, list or tuple, held to kinematics._subcritical.
    """
    momenta, _ = _subcritical(q_list, params, "spectrum")
    e0 = energy_shift_closed(params)
    mf = mean_field_shift(params)
    mass = effective_mass_closed(params)
    return [
        SpectrumPoint(q_i=q, energy=e0 + q * q / (2.0 * mass.M_ef),
                      components={"mean_field": mf, "fluctuation": e0 - mf})
        for q in momenta.tolist()
    ]
