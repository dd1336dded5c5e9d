"""Golden-rule transition and energy dissipation rates.

Three independent routes compute the same physics and must agree:

- closed forms obtained from the analytic angular and radial integrals;
- adaptive quadrature of the differential emission spectrum;
- a finite-box lattice sum with Lorentzian-broadened energy conservation
  (the thermodynamic-limit integral done backwards).

Below the critical momentum q_c every rate is exactly zero by branch, not by
cancellation, so the dissipationless regime is a structural guarantee.

The closed and quadrature rates, the density and the asymptotes work in v = q_i/q_c,
r = m/M and s_max = p_max/2mc, and hand every unit to bogoliubov._scale last: a rate
is 0 or raises only where its value, or s_max, leaves the float range.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bogoliubov import _as_momentum, _libm, _scale, _sinh_series, _structure_factor
from .errors import ConfigurationError, DomainError, NumericalError, _in_float_range, _require
from .kinematics import _entries, _momenta, _p_max, _subcritical, _window, max_emission_momentum
from .params import SystemParams, derive
from .quadrature import _DEFAULT_REL_TOL, _check_rel_tol, integrate

__all__ = [
    "RateResult",
    "BoxOracleConfig",
    "emission_spectral_density",
    "transition_rate",
    "transition_rate_quadrature",
    "transition_rate_asymptotic",
    "box_rate",
    "survival_probability",
    "survival_lower_bound",
]

_TINY = 1e-300
_S_MAX_RANGE = "emission window s_max = p_max/2mc at q_i = {!r} leaves the float range"


@dataclass(frozen=True)
class RateResult:
    """Rates at one initial momentum, or at each of an array of them.

    The fields are floats for one momentum and arrays for an array. method
    is one of {"closed", "quadrature", "box"}; est_error is the relative
    numerical error estimate of that method (0 for closed forms).
    smallness = gamma_T/(q_i**2/2M) is the dimensionless perturbative
    diagnostic: results are trustworthy only while it stays well below 1.
    """

    q_i: float
    gamma_T: float
    gamma_E: float
    method: str
    est_error: float
    smallness: float


@dataclass(frozen=True)
class BoxOracleConfig:
    """Finite-box discretization: side L, Lorentzian width eta, momentum cap.

    p_cut must exceed the emission window of the momentum under study
    (checked per call); max_points guards against accidentally huge lattices.
    The box routes divide by the volume L**3, so it must be a positive float.
    """

    L: float = 60.0
    eta: float = 0.05
    p_cut: float = 3.0
    max_points: int = 100_000_000

    def __post_init__(self):
        for name in ("L", "eta", "p_cut"):
            value = _require(getattr(self, name), name, error=ConfigurationError)
            object.__setattr__(self, name, value)
        try:
            volume = self.L**3
        except OverflowError:
            volume = math.inf
        if not 0.0 < volume < math.inf:
            raise ConfigurationError(f"box volume L**3 with L = {self.L!r} leaves the float range")
        points = self.max_points
        if isinstance(points, bool) or not (isinstance(points, numbers.Integral) and points >= 1):
            raise ConfigurationError(f"max_points must be a positive integer, got {points!r}")
        object.__setattr__(self, "max_points", int(points))


def _rate_result(q, pack, params: SystemParams, method: str, gamma_T, gamma_E, est_error, stages=()):
    """RateResult over the momenta q, or NumericalError where a value leaves the float range.

    smallness = gamma_T/(q**2/2M) is 0 where q or gamma_T is. stages are the route's own
    (values, message) checks, run before the smallness and the energy rate (errors._in_float_range).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # x/0 at q = 0
        smallness = np.where((q == 0.0) | (gamma_T == 0.0), 0.0, _scale(gamma_T, 2.0, params.M, over=(q, q)))
    _in_float_range(q, *stages, (smallness, "smallness at q_i = {!r} leaves the float range"),
                    (gamma_E, "energy dissipation rate at q_i = {!r} leaves the float range"))
    return RateResult(pack(q), pack(gamma_T), pack(gamma_E), method, pack(est_error), pack(smallness))


def _scaled_rates(params: SystemParams, v, s_max, transition, energy):
    """(gamma_T, gamma_E) from their radial factors, exact zeros outside the window (s_max = 0).

    gamma_T = n*g**2*m**2*c/(2*pi*v) * prod(transition) and gamma_E =
    n*g**2*(m*c)**3/(pi*v) * prod(energy), v as kinematics._window gives it (a float or a
    pair), every unit through bogoliubov._scale.
    """
    n, g, m, c, window = params.n, params.g, params.m, derive(params).c, s_max > 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # 0/0 at q_i = 0
        return (np.where(window, _scale(n, g, g, m, m, c, *transition, over=(2.0 * math.pi, v)), 0.0),
                np.where(window, _scale(n, g, g, m, c, m, c, m, c, *energy, over=(math.pi, v)), 0.0))


def emission_spectral_density(p, q_i: float, params: SystemParams):
    """Differential transition rate per emitted momentum, dGamma_T/dp.

    Equals n*M*g**2/(4*pi*m*q_i) * p**3/eps(p) inside the emission window
    (0, p_max) and 0 outside; identically 0 for subcritical q_i. Vectorized
    over p. It is formed as n*g**2/(2*pi*c*v) * p*S(p), v = q_i/q_c and S
    the structure factor, by bogoliubov._scale. Raises NumericalError where
    the density leaves the float range.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    arr = _as_momentum(p)
    out = np.zeros_like(arr)
    p_max = max_emission_momentum(q_i, params)
    mask = (arr > 0) & (arr < p_max)
    if np.any(mask):
        d, x, v = derive(params), arr[mask], _window(np.array(q_i), params)[0]  # v, a float or a pair
        S = _structure_factor(2.0 * params.m * d.c)(x)
        with np.errstate(over="ignore"):
            density = _scale(params.n, params.g, params.g, x, S, over=(2.0 * math.pi, d.c, v))
        out[mask] = _in_float_range(
            q_i, (density, "emission spectral density at q_i = {!r} leaves the float range"))
    return out if out.ndim else float(out)


def transition_rate(q_i, params: SystemParams) -> RateResult:
    """Closed-form rates: exact radial integrals of the emission spectrum.

    With v = q_i/q_c, s_max = p_max/2mc (kinematics._window), u = 2*asinh(s_max),

        gamma_T = n*g**2*m**2*c/(2*pi*v) * (sinh(u) - u)
        gamma_E = n*g**2*(m*c)**3/(pi*v) * s_max**4

    gamma_E is an identity: the eps(p) weight integrates in closed form.
    Below u = 1, sinh(u) - u is u**3 times its odd series
    (bogoliubov._sinh_series, shared with selfenergy.I0); at and above it,
    s_max*h*(2 - u/(s_max*h)) with h = hypot(s_max, 1). u three times, or
    s_max four times, goes to bogoliubov._scale with the units: a rate is 0
    or raises only where it, or s_max first, leaves the float range; both
    are exact to rounding up to threshold and exactly zero at or below it.
    q_i is a float or a 1-D array; each entry is bit-identical to the float call.
    """
    q, pack = _momenta(q_i)
    v, s = _window(q, params)
    u, h = _libm(lambda x: 2.0 * math.asinh(x))(s), np.hypot(s, 1.0)
    series = u < 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # u/(s*h) is nan at s = 0, where the series is read
        sinh_excess = (np.where(series, _sinh_series(u * u), s), np.where(series, u, h),
                       np.where(series, u, 2.0 - u / (s * h)), np.where(series, u, 1.0))
    gamma_T, gamma_E = _scaled_rates(params, v, s, sinh_excess, (s, s, s, s))
    return _rate_result(q, pack, params, "closed", gamma_T, gamma_E, np.zeros_like(q), [(s, _S_MAX_RANGE),
        (np.maximum(gamma_T, gamma_E), "closed-form rates at q_i = {!r} leave the float range")])


def _transition_shape(power):
    """x -> x/hypot(power, 1/x) = x**2/hypot(x*power, 1): s**2/hypot(s, 1) over power**2, in x = s/power."""
    power, one = np.array(power), np.array(1.0)  # 0-d arrays, which a ufunc takes without converting
    return lambda x: x / np.hypot(power, one / x)


def transition_rate_quadrature(q_i, params: SystemParams, tol: float = _DEFAULT_REL_TOL) -> RateResult:
    """Rates by adaptive integration over the emission window.

    4 times the integrals of s**2/hypot(s, 1) and s**3 over (0, s_max),
    s = p/2mc, are the sinh(u) - u and s_max**4 of transition_rate, and go
    through its scale. They run in x = s/2**k, 2**(3k) and 2**(4k) in the
    scale, with k the exponent of s_max to the nearest multiple of 128, at
    most 896 (2**1024 is not a float): normal floats at every s_max, and the
    bits of the integrals in s wherever those are normal. est_error is the
    larger relative error estimate of the two. Subcritical momenta integrate nothing.

    q_i is a float or a 1-D array, each entry bit-identical to the float
    call; the gamma_T integral runs once per k (once for every s_max from
    2**-64 to 2**64), the gamma_E one once. Errors come in this order: every
    momentum is validated and every window built, then the s_max check, the
    gamma_T integral and the gamma_E one raise at their first failing
    momentum, then the first momentum whose gamma_T, smallness or gamma_E does.
    """
    q, pack = _momenta(q_i)
    _check_rel_tol(tol)
    v, s_max = _window(q, params)
    _in_float_range(q, (s_max, _S_MAX_RANGE))
    power = np.ldexp(1.0, np.clip(128 * np.round(np.frexp(s_max)[1] / 128), -1024, 896).astype(int))
    f = s_max / power  # exact: power is a power of two
    window = s_max > 0.0  # a supercritical q_i whose gap underflows has s_max = 0
    val_t, err_t, val_e, err_e = np.zeros((4, q.size))
    try:
        for scale in sorted(set(power[window].tolist())):  # np.unique would import numpy.ma
            rows = window & (power == scale)
            val_t[rows], err_t[rows] = integrate(_transition_shape(scale), 0.0, f[rows], tol)
    except NumericalError:
        for i in np.flatnonzero(window).tolist():  # raise where a loop over the momenta would
            integrate(_transition_shape(power[i]), 0.0, f[i], tol)
        raise
    if window.any():
        val_e[window], err_e[window] = integrate(lambda x: x * x * x, 0.0, f[window], tol)
    est = np.maximum(err_t / np.maximum(np.abs(val_t), _TINY),
                     err_e / np.maximum(np.abs(val_e), _TINY))
    gamma_T, gamma_E = _scaled_rates(params, v, s_max, (4.0, val_t) + (power,) * 3, (4.0, val_e) + (power,) * 4)
    return _rate_result(q, pack, params, "quadrature", gamma_T, gamma_E, est, [
        (gamma_T, "transition rate at q_i = {!r} leaves the float range")])


def transition_rate_asymptotic(q_i: float, params: SystemParams, regime: str) -> float:
    """Asymptotic transition rate in a named regime; no validity check.

    regime "threshold": (2*n*g**2/(3*pi*m*c**2)) * (q_i - q_c)**3, the cubic
    onset just above the critical momentum. regime "high_momentum":
    n*g**2*q_i*m_r**2/(pi*M), with m_r = m*M/(m + M) the reduced mass: the
    sound-speed-independent large-q_i law. Both are formed by
    bogoliubov._scale. The caller decides where each expansion applies.
    Raises NumericalError when the rate leaves the float range.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    d, n, g = derive(params), params.n, params.g
    gap = q_i - d.q_c
    terms = {"threshold": ((2.0, n, g, g, gap, gap, gap), (3.0 * math.pi, params.m, d.c, d.c)),
             "high_momentum": ((n, g, g, q_i, d.m_r, d.m_r), (math.pi, params.M))}
    if regime not in tuple(terms):  # compared with ==, so an unhashable regime is refused too
        raise DomainError(f"unknown regime {regime!r}; expected 'threshold' or 'high_momentum'")
    with np.errstate(over="ignore"):
        rate = _scale(*terms[regime][0], over=terms[regime][1])
    return _in_float_range(q_i, (rate, f"{regime} rate at q_i = {{!r}} leaves the float range"))


def _lattice_args(q_i, params: SystemParams, cfg: BoxOracleConfig):
    """The gate of the box routes: the lattice kernel arguments that precede q_i.

    Raises, in this order, at the first momentum of q_i (a float or an
    array) whose emission window p_cut does not cover or whose p_max leaves
    the float range, then if the lattice exceeds the point budget.
    """
    q = np.atleast_1d(q_i)
    missed = np.flatnonzero(~(cfg.p_cut > _p_max(q, params)))  # inf past the float range too
    if missed.size:
        p_max = max_emission_momentum(float(q[missed[0]]), params)  # raises past the float range
        raise ConfigurationError(
            f"p_cut = {cfg.p_cut} does not cover the emission window (p_max = {p_max})"
        )
    dk = 2.0 * math.pi / cfg.L
    n_max = math.ceil(cfg.p_cut / dk)
    n_points = (2 * n_max + 1) ** 3
    if n_points > cfg.max_points:
        raise ConfigurationError(
            f"lattice would hold {n_points} points, above the budget {cfg.max_points}; "
            "reduce L*p_cut or raise max_points"
        )
    return (
        n_max,
        dk,
        cfg.p_cut * cfg.p_cut,
        params.m,
        params.M,
        params.n * params.U0,
        params.g * params.g * params.n,
    )


def box_rate(q_i, params: SystemParams, cfg: BoxOracleConfig) -> RateResult:
    """Finite-box oracle for the golden-rule rates.

    Sums w(p)/L**3 * 2*eta/(omega**2 + eta**2) over the momentum lattice
    p = (2*pi/L)*(integer triple), |p| <= p_cut, origin excluded: the energy
    delta realized as a Lorentzian of width eta. Converges to the continuum
    rates for L -> inf followed by eta -> 0. est_error is estimated from a
    second pass with doubled eta (the leading error is eta-linear); that
    pass forms only the transition sum, since est_error reads gamma_T alone.

    q_i is a float or a 1-D array; each entry is bit-identical to the float
    call. The lattice is summed in one pass per eta over all momenta, so two
    kernel calls serve the whole array. Errors come as a loop over the
    momenta would raise them: at the first failing momentum, its window
    (p_max in range and covered by p_cut), then the lattice budget, then
    its rates.
    """
    q, pack = _momenta(q_i)
    missed = np.flatnonzero(~(cfg.p_cut > _p_max(q, params)))
    if missed.size:  # a loop raises at the momenta before the first missed window, then there
        box_rate(q[:missed[0]], params, cfg)
    if not q.size:  # no momenta, no lattice
        return _rate_result(q, pack, params, "box", q, q, q)
    args = _lattice_args(q, params, cfg)
    vol = cfg.L**3
    s_t, s_e = _kernels.lorentzian_sums(*args, q, cfg.eta)
    (s_t2,) = _kernels.lorentzian_sums(*args, q, 2.0 * cfg.eta, _energy=False)
    # past the float range these are inf or nan, and _rate_result raises
    with np.errstate(over="ignore", invalid="ignore"):
        gamma_T = 2.0 * cfg.eta / vol * s_t
        gamma_E = 2.0 * cfg.eta / vol * s_e
        gamma_T2 = 4.0 * cfg.eta / vol * s_t2
        est = np.abs(gamma_T2 - gamma_T) / np.maximum(np.abs(gamma_T), _TINY)
    return _rate_result(q, pack, params, "box", gamma_T, gamma_E, est)


def survival_probability(q_i: float, params: SystemParams, cfg: BoxOracleConfig, t):
    """Probability that the impurity has not yet emitted after time t.

    First-order expression 1 - sum_p w(p)/L**3 * kernel(omega(p), t) on the
    box lattice, with the exact finite-time kernel (no broadening). Every
    term is nonnegative, so the value is at most 1; it is clamped at 0, where
    first-order perturbation theory has broken down, with a warning for each
    clamped time. t is a float or a 1-D array of times (a list or tuple too),
    each held to the scalar nonnegative rule, and the result is a float or an
    array to match, each entry bit-identical to its float call. One lattice
    pass serves every time.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    times, pack = _entries(t, "time", "times")
    depletion = _kernels.finite_time_sum(*_lattice_args(q_i, params, cfg), q_i, times) / cfg.L**3
    raw = 1.0 - depletion
    clamped = raw < 0.0
    for time, lost in zip(times[clamped].tolist(), depletion[clamped].tolist()):
        warnings.warn(
            f"first-order depletion {lost} exceeds 1 at t = {time}; "
            "clamping survival to 0, result not perturbatively reliable",
            stacklevel=2,
        )
    return pack(np.where(clamped, 0.0, raw))


def survival_lower_bound(q_i: float, params: SystemParams, cfg: BoxOracleConfig) -> float:
    """Time-independent floor 1 - sum_p 4*w(p)/(L**3 * omega(p)**2).

    Valid for subcritical q_i only, where omega > 0 on every lattice mode:
    the oscillatory kernel never exceeds 4/omega**2, so survival can never
    drop below this value at any time (no secular decay). May be negative
    for strong coupling, in which case it is true but uninformative.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    _subcritical(q_i, params, "survival bound")
    return 1.0 - _kernels.inverse_square_sum(*_lattice_args(q_i, params, cfg), q_i) / cfg.L**3
