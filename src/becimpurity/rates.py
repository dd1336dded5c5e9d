"""Golden-rule transition and energy dissipation rates.

Three independent routes compute the same physics and must agree:

- closed forms obtained from the analytic angular and radial integrals;
- adaptive quadrature of the differential emission spectrum;
- a finite-box lattice sum with Lorentzian-broadened energy conservation
  (the thermodynamic-limit integral done backwards).

Below the critical momentum q_c every rate is exactly zero by branch, not by
cancellation, so the dissipationless regime is a structural guarantee.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bogoliubov import _as_momentum, _energy_scales, _sinh_tail, _structure_factor
from .errors import ConfigurationError, DomainError, _in_float_range, _require
from .kinematics import _P_MAX_RANGE, _entries, _momenta, _p_max, _subcritical, max_emission_momentum
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


_PREFACTOR_RANGE = "rate prefactor at q_i = {!r} leaves the float range"


def _rate_result(q, pack, params: SystemParams, method: str, gamma_T, gamma_E, est_error, stages=()):
    """RateResult over the momenta q, or NumericalError where a value leaves the float range.

    smallness = gamma_T/(q**2/2M) is 0 where q or gamma_T is. stages are the
    route's own (values, message) checks, which a loop over the momenta runs
    before the smallness and the energy rate (see errors._in_float_range).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # gamma_T == 0 also covers a supercritical q_i whose kinetic energy underflows
        smallness = np.where((q == 0.0) | (gamma_T == 0.0), 0.0, gamma_T / (q * q / (2.0 * params.M)))
    _in_float_range(q, *stages, (smallness, "smallness at q_i = {!r} leaves the float range"),
                    (gamma_E, "energy dissipation rate at q_i = {!r} leaves the float range"))
    return RateResult(pack(q), pack(gamma_T), pack(gamma_E), method, pack(est_error), pack(smallness))


def _g2_last(rate, g: float):
    """rate(g**2), or rate(1.0)*g*g where that is inf; elementwise, and inf where both are.

    Where the expression as written overflows, dividing before multiplying in
    g*g keeps a finite value in range. np.float64 ** has the bits of float **
    (both are C pow) but gives inf where float ** raises OverflowError.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = rate(np.float64(g) ** 2)
        return np.where(np.isinf(value), rate(1.0) * g * g, value)


def _density_prefactor(q, params: SystemParams):
    """n*M*g**2/(4*pi*m*q) at each momentum q, the scale of both routes; inf past the float range."""
    n, M, m = params.n, params.M, params.m
    return _g2_last(lambda g2: n * M * g2 / (4.0 * math.pi * m * q), params.g)


def _emission_shape(params: SystemParams):
    """p -> 2m*S(p)*p, which equals p**3/eps(p): the emission spectrum over its prefactor.

    With S the structure factor, the shape stays finite where p**3
    overflows (p from about 1e103), so the density needs no second form.
    2m*S, at most 2m and at most p/c, is formed before the factor p, so a
    heavy boson's 2m*p cannot overflow where the shape does not.
    """
    two_m, two_mc = _energy_scales(params)
    S = _structure_factor(two_mc)
    return lambda p: two_m * S(p) * p


def emission_spectral_density(p, q_i: float, params: SystemParams):
    """Differential transition rate per emitted momentum, dGamma_T/dp.

    Equals n*M*g**2/(4*pi*m*q_i) * p**3/eps(p) inside the emission window
    (0, p_max) and 0 outside; identically 0 for subcritical q_i. Vectorized
    over p. Raises NumericalError where the density leaves the float range.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    arr = _as_momentum(p)
    out = np.zeros_like(arr)
    p_max = max_emission_momentum(q_i, params)
    mask = (arr > 0) & (arr < p_max)
    if np.any(mask):
        pref = _in_float_range(q_i, (_density_prefactor(q_i, params), _PREFACTOR_RANGE))
        with np.errstate(over="ignore"):
            density = pref * _emission_shape(params)(arr[mask])
        out[mask] = _in_float_range(
            q_i, (density, "emission spectral density at q_i = {!r} leaves the float range"))
    return out if out.ndim else float(out)


def transition_rate(q_i, params: SystemParams) -> RateResult:
    """Closed-form rates: exact radial integrals of the emission spectrum.

    With pref = n*M*g**2/(4*pi*m*q_i), k = 2*m*c and t = asinh(p_max/k),

        gamma_T = pref * (m*k**2/2) * (sinh(2t) - 2t)
        gamma_E = pref * p_max**4/4

    gamma_E is an identity, not an approximation: the eps(p) weight integrates
    in closed form. With u = 2t, sinh(u) - u takes its odd Taylor tail below
    u = 1 (bogoliubov._sinh_tail, shared with selfenergy.I0); at and above
    it the radial factor is the one form m*(p_max*hypot(k, p_max) - k**2*u/2),
    which stays in range wherever gamma_T is. p_max takes its factored gap,
    so both rates are exact to rounding up to threshold, and exactly zero at
    or below it. transition_rate_quadrature shares pref and p_max and must
    reproduce both to its tolerance. q_i is a float or a 1-D array; each
    entry is bit-identical to the float call.
    """
    q, pack = _momenta(q_i)
    p_max = _p_max(q, params)
    k = 2.0 * params.m * derive(params).c
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * np.arcsinh(p_max / k)
        # m*k**2/2 * (sinh(u) - u) with sinh(u) = 2s*hypot(1, s), s = p_max/k, multiplied out
        radial = np.where(u < 1.0, 0.5 * params.m * k * k * _sinh_tail(u, u * u),
                          params.m * (p_max * np.hypot(k, p_max) - k * k * u / 2.0))
        pref = _density_prefactor(q, params)
        window = p_max > 0.0
        gamma_T = np.where(window, pref * radial, 0.0)
        gamma_E = np.where(window, pref * (p_max**4 / 4.0), 0.0)
    return _rate_result(q, pack, params, "closed", gamma_T, gamma_E, np.zeros_like(q), [
        (p_max, _P_MAX_RANGE),
        (np.maximum(gamma_T, gamma_E), "closed-form rates at q_i = {!r} leave the float range")])


def transition_rate_quadrature(q_i, params: SystemParams, tol: float = _DEFAULT_REL_TOL) -> RateResult:
    """Rates by adaptive integration over the emission window.

    Integrates the emission shape p**3/eps (and eps * that, for the energy
    rate) over (0, p_max); est_error is the larger relative error estimate
    of the two integrals. Subcritical momenta return exact zeros without
    integrating.

    q_i is a float or a 1-D array. For an array, the result holds arrays
    (one entry per momentum, each bit-identical to the float call) and each
    integral runs once over all supercritical windows. Errors then come in
    this order: every momentum is validated and every window built, then
    the gamma_T integral fails at its first failing momentum, then the
    gamma_E integral, then the first momentum whose prefactor, smallness or
    energy rate leaves the float range.
    """
    q, pack = _momenta(q_i)
    _check_rel_tol(tol)
    p_max = max_emission_momentum(q, params)
    # a supercritical q_i whose gap underflows has p_max = 0 and integrates nothing
    window = p_max > 0.0
    val_t, err_t, val_e, err_e = np.zeros((4, q.size))
    if window.any():
        # a 0-d exponent, not a float: a ufunc converts a Python float on every call
        cube = np.array(3.0)

        def radial_energy(p):
            return np.power(p, cube)  # p**3/eps * eps

        # p**3 overflows from q_i ~ 1e103; integrate reports that as a NumericalError
        with np.errstate(over="ignore"):
            val_t[window], err_t[window] = integrate(_emission_shape(params), 0.0, p_max[window], tol)
            val_e[window], err_e[window] = integrate(radial_energy, 0.0, p_max[window], tol)
    pref = np.where(window, _density_prefactor(q, params), 0.0)
    est = np.maximum(err_t / np.maximum(np.abs(val_t), _TINY),
                     err_e / np.maximum(np.abs(val_e), _TINY))
    # an infinite prefactor times an integral that underflowed to 0 is nan; the range checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        gamma_T, gamma_E = pref * val_t, pref * val_e
    return _rate_result(q, pack, params, "quadrature", gamma_T, gamma_E, est,
                        [(pref, _PREFACTOR_RANGE)])


def transition_rate_asymptotic(q_i: float, params: SystemParams, regime: str) -> float:
    """Asymptotic transition rate in a named regime; no validity check.

    regime "threshold": (2*n*g**2/(3*pi*m*c**2)) * (q_i - q_c)**3, the cubic
    onset just above the critical momentum. regime "high_momentum":
    n*g**2*M*q_i*(m/(M+m))**2/pi, the sound-speed-independent large-q_i law.
    The caller decides where each expansion applies. Raises NumericalError
    when the rate leaves the float range.
    """
    q_i = _require(q_i, "initial momentum", kind="nonnegative")
    d = derive(params)
    n, m, M = params.n, params.m, params.M
    ratio = m / (M + m)
    rates = {  # np.float64 ** gives inf where the cube overflows
        "threshold": lambda g2: (
            (2.0 * n * g2 / (3.0 * math.pi * m * d.c * d.c)) * np.float64(q_i - d.q_c) ** 3),
        "high_momentum": lambda g2: n * g2 * M * q_i * ratio * ratio / math.pi,
    }
    if regime not in tuple(rates):  # compared with ==, so an unhashable regime is refused too
        raise DomainError(f"unknown regime {regime!r}; expected 'threshold' or 'high_momentum'")
    rate = _g2_last(rates[regime], params.g)
    return _in_float_range(q_i, (rate, f"{regime} rate at q_i = {{!r}} leaves the float range"))


def _lattice_args(q_i, params: SystemParams, cfg: BoxOracleConfig):
    """The gate of the box routes: the lattice kernel arguments that precede q_i.

    Raises, in this order, at the first momentum of q_i (a float or an
    array) whose emission window p_cut does not cover or whose p_max leaves
    the float range, then if the lattice exceeds the point budget.
    """
    q = np.atleast_1d(q_i)
    missed = np.flatnonzero(~(cfg.p_cut > _p_max(q, params)))  # nan past the float range too
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
