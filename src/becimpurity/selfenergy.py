"""Renormalized impurity energy shift, effective mass, and the two special
functions they need.

The bare second-order energy diverges linearly with the momentum cutoff;
re-expressing the contact coupling through the physical scattering length a
cancels the divergence. The quadrature route integrates the subtracted form,
(divergence_rate - integrand) up to the cutoff, which folds the counterterm
4*m*m_r (the integrand's large-p limit) under the integral sign; after the
prefactor n*a**2/(m*m_r**2) it is the same term, 4*n*a**2*cutoff/m_r, that
params.renormalized_coupling adds to the mean-field shift.

Everything is parameterized by a; the bare coupling never appears here.
Subcritical momenta only: above the critical momentum the energy denominator
crosses zero and a principal-value treatment would be needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bogoliubov import (
    _excitation_energy,
    _libm,
    _log1p,
    _mass_tail,
    _pow,
    _recoil_energy,
    _sinh_tail,
)
from .errors import PerturbativeBreakdownError, _in_float_range, _require
from .kinematics import _subcritical
from .params import SystemParams, derive
from .quadrature import integrate, integrate_semi_infinite, second_derivative

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
_FD_CUTOFF = 4000.0


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
        return _sinh_tail(u, z) / (2.0 * abs(d) * s)
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
        return _mass_tail(u, z) / (4.0 * s**5)
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


def _shift_integrand(p, q_i: float, params: SystemParams, eps):
    """Angular-resolved second-order integrand, vectorized over p.

    eps is bogoliubov._excitation_energy(params). At q_i = 0 the integrand
    reduces to p**4/(eps*(eps + p**2/2M)); the general form is written with
    log1p so that negating q_i is an exact (bitwise) symmetry, which makes
    the spectrum even in q_i by construction.
    """
    eps_p = eps(p)
    w0 = _recoil_energy(p, eps_p, params)
    if q_i == 0.0:
        return _quartic(p) / (eps_p * w0)
    u = p * q_i / (params.M * w0)
    cube, logs = _cube_and_logs(p, u)
    return (cube / eps_p) * (params.M / (2.0 * q_i)) * logs


# the libm calls of the integrands here, entry by entry (see bogoliubov._libm)
_quartic = _libm(lambda p: _pow(p, 4))
_cube_and_logs = _libm(lambda p, u: (_pow(p, 3), _log1p(u) - _log1p(-u)), nin=2, nout=2)
_sixth_and_cube = _libm(lambda p, w: (_pow(p, 6), _pow(w, 3)), nin=2, nout=2)


def energy_shift_quadrature(q_i: float, params: SystemParams, cutoff: float) -> float:
    """Mean-field plus cutoff-renormalized fluctuation shift at momentum q_i.

    The fluctuation part is the subtracted integral up to the cutoff, with
    no large-constant cancellation, and converges to the closed form like
    1/cutoff. Raises NumericalError where the shift leaves the float range,
    as it does for an impurity lighter than about 1e-156 m at a = 0.01.
    """
    # q_i as the one entry of a list: an array q_i is an offending entry
    q_i = _subcritical([q_i], params, "energy shift")[0].item()
    d = derive(params)
    cutoff = _require(cutoff, "cutoff")
    m, m_r = params.m, d.m_r
    # a numpy square gives inf, not OverflowError, where a**2 overflows; a
    # numpy divisor gives inf (or nan, where a**2 underflows too), not
    # ZeroDivisionError, where m*m_r*m_r underflows to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pref = float(params.n * np.float64(params.a) ** 2 / np.float64(m * m_r * m_r))
    divergence_rate = 4.0 * m * m_r  # large-p limit of the integrand
    eps = _excitation_energy(params)
    # for a light impurity eps*w0 overflows to inf and the integrand to 0;
    # past the float range integrate raises at the first non-finite node
    with np.errstate(over="ignore", invalid="ignore"):
        val, _ = integrate(
            lambda p: divergence_rate - _shift_integrand(p, q_i, params, eps), 0.0, cutoff,
            _DEFAULT_TOL)
    energy = mean_field_shift(params) + pref * val
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
    d = derive(params)
    ratio = params.m / params.M
    i1 = I1(ratio)
    a = params.a
    if i1 >= sys.float_info.min:
        x = params.m / d.m_r
        sigma = (16.0 / 3.0) * params.n * (a * a) / (params.M * d.c) * (x * x) * i1
    else:
        u, _, s, _ = _rapidity(ratio)
        x = (1.0 + ratio) / s
        sigma = (
            (4.0 / 3.0) * params.n * (a * a) / (params.m * d.c)
            * (ratio / s) * (x * x) * _scaled_I1(u, s, ratio)
        )
    sigma = _in_float_range(
        ratio, (sigma, "closed-form mass correction at m/M = {!r}: its factors leave the float range"))
    return _mass_from_sigma(sigma, params, "closed")


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
    K = int_0^inf p**6 / (eps * (eps + p**2/2M)**3) dp; the integrand decays
    like 1/p**2, handled by the rational tail transform. sigma = 1 - M/M_ef
    is formed with one power of M, (2/3) * n*a**2*K/(m*m_r**2*M), so that it
    does not underflow to 0 for a heavy impurity (M from about 1e155).
    """
    d = derive(params)
    eps = _excitation_energy(params)

    def curvature_integrand(p):
        eps_p = eps(p)
        sixth, recoil_cube = _sixth_and_cube(p, _recoil_energy(p, eps_p, params))
        return sixth / (eps_p * recoil_cube)

    # for a light impurity the recoil cube overflows to inf and the integrand
    # to 0; past the float range integrate raises at the first non-finite node
    with np.errstate(over="ignore", invalid="ignore"):
        K, _ = integrate_semi_infinite(curvature_integrand, 0.0, tol)
    m, m_r, M = params.m, d.m_r, params.M
    # a numpy square gives inf, not OverflowError, where a**2 overflows; a numpy
    # divisor gives inf or nan, not ZeroDivisionError, where it underflows to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sigma = (2.0 / 3.0) * params.n * np.float64(params.a) ** 2 / np.float64(m * m_r * m_r * M) * K
    return _mass_from_sigma(sigma, params, "quadrature")


def effective_mass_finite_difference(params: SystemParams) -> MassResult:
    """Dressed mass from a five-point stencil on the subtracted energy.

    The curvature of the fluctuation part at q_i = 0, taken with step
    0.01*q_c, gives 1/M_ef - 1/M; the constant of the cutoff _FD_CUTOFF cancels
    in the stencil, leaving an O(1/cutoff) residue in the curvature itself
    (about 5e-4 relative). The stencil takes three shifts, not five: E(q) is
    even bit for bit, as the vanishing_linear_term check measures, so E(h)
    and E(2h) are the E(-h) and E(-2h) already formed.
    """
    h = 0.01 * derive(params).q_c
    shifts = {}  # by |q|, formed at the q first asked for: -2h, -h, 0

    def shift(q):
        if abs(q) not in shifts:
            shifts[abs(q)] = energy_shift_quadrature(q, params, _FD_CUTOFF)
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
