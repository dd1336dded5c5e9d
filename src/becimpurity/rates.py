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
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bogoliubov import _as_momentum, _excitation_energy, dispersion
from .errors import ConfigurationError, DomainError, NumericalError
from .kinematics import _check_qi, max_emission_momentum
from .params import SystemParams, derive
from .quadrature import QuadratureConfig, integrate

__all__ = [
    "RateResult",
    "BoxOracleConfig",
    "emission_spectral_density",
    "transition_rate",
    "transition_rate_quadrature",
    "transition_rate_asymptotic",
    "energy_dissipation_rate",
    "box_rate",
    "survival_probability",
    "survival_lower_bound",
]

_TINY = 1e-300


@dataclass(frozen=True)
class RateResult:
    """Rates at one initial momentum.

    method is one of {"closed", "quadrature", "box"}; est_error is the
    relative numerical error estimate of that method (0 for closed forms).
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
    """

    L: float = 60.0
    eta: float = 0.05
    p_cut: float = 3.0
    max_points: int = 100_000_000

    def __post_init__(self):
        for name in ("L", "eta", "p_cut"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)) or value <= 0:
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        if not (isinstance(self.max_points, int) and self.max_points >= 1):
            raise ConfigurationError(f"max_points must be a positive integer, got {self.max_points!r}")


def _smallness(q_i: float, gamma_T: float, params: SystemParams) -> float:
    if q_i == 0.0:
        return 0.0
    return gamma_T / (q_i * q_i / (2.0 * params.M))


def _density_prefactor(q_i: float, params: SystemParams) -> float:
    return params.n * params.M * params.g**2 / (4.0 * math.pi * params.m * q_i)


def emission_spectral_density(p, q_i: float, params: SystemParams):
    """Differential transition rate per emitted momentum, dGamma_T/dp.

    Equals n*M*g**2/(4*pi*m*q_i) * p**3/eps(p) inside the emission window
    (0, p_max) and 0 outside; identically 0 for subcritical q_i. Vectorized
    over p.
    """
    q_i = _check_qi(q_i)
    arr = _as_momentum(p)
    out = np.zeros_like(arr)
    p_max = max_emission_momentum(q_i, params)
    mask = (arr > 0) & (arr < p_max)
    if np.any(mask):
        pm = arr[mask]
        out[mask] = _density_prefactor(q_i, params) * pm**3 / dispersion(pm, params)
    return out if out.ndim else float(out)


def _closed_pair(q_i: float, params: SystemParams):
    """(gamma_T, gamma_E) closed forms; zeros at or below threshold.

    Raises NumericalError when either rate leaves the float range.
    """
    d = derive(params)
    if q_i <= d.q_c:
        return 0.0, 0.0
    p_max = max_emission_momentum(q_i, params)
    eps_max = dispersion(p_max, params)
    m, M, n, g = params.m, params.M, params.n, params.g
    mc2 = m * d.c * d.c
    gamma_T = (M * m * n * g * g / (2.0 * math.pi * q_i)) * (
        eps_max - mc2 * math.log1p((eps_max + p_max * p_max / (2.0 * m)) / mc2)
    )
    try:
        gamma_E = M * n * g * g * p_max**4 / (16.0 * math.pi * m * q_i)
    except OverflowError:
        gamma_E = math.inf
    if not (math.isfinite(gamma_T) and math.isfinite(gamma_E)):
        raise NumericalError(f"closed-form rates at q_i = {q_i!r} leave the float range")
    return gamma_T, gamma_E


def transition_rate(q_i: float, params: SystemParams) -> RateResult:
    """Closed-form rates: exact radial integrals of the emission spectrum.

    gamma_T = M*m*n*g**2/(2*pi*q_i) * (eps(p_max)
              - m*c**2 * log1p((eps(p_max) + p_max**2/2m) / (m*c**2)))
    gamma_E = M*n*g**2*p_max**4/(16*pi*m*q_i)

    The eps(p) weight integrates against the emission spectrum in closed
    form, so gamma_E is an identity, not an approximation; the quadrature
    route (transition_rate_quadrature) must reproduce both to its tolerance.
    Exactly zero at or below the critical momentum.
    """
    q_i = _check_qi(q_i)
    gamma_T, gamma_E = _closed_pair(q_i, params)
    return RateResult(
        q_i=q_i,
        gamma_T=gamma_T,
        gamma_E=gamma_E,
        method="closed",
        est_error=0.0,
        smallness=_smallness(q_i, gamma_T, params),
    )


# one closed-form route yields both rates; the energy-rate name is kept public
energy_dissipation_rate = transition_rate


def transition_rate_quadrature(q_i: float, params: SystemParams, tol: float = 1e-10) -> RateResult:
    """Rates by adaptive integration over the emission window.

    Integrates p**3/eps (and eps * that, for the energy rate) over
    (0, p_max); est_error is the larger relative error estimate of the two
    integrals. Subcritical momenta return exact zeros without integrating.
    """
    q_i = _check_qi(q_i)
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be positive, got {tol!r}")
    d = derive(params)
    if q_i <= d.q_c:
        return RateResult(q_i=q_i, gamma_T=0.0, gamma_E=0.0, method="quadrature",
                          est_error=0.0, smallness=0.0)
    p_max = max_emission_momentum(q_i, params)
    pref = _density_prefactor(q_i, params)
    cfg = QuadratureConfig(rel_tol=tol)
    eps = _excitation_energy(params)

    def radial(p):
        return p**3 / eps(p)

    def radial_energy(p):
        return p**3  # p**3/eps * eps

    # p**3 overflows from q_i ~ 1e103; integrate reports that as a NumericalError
    with np.errstate(over="ignore"):
        val_t, err_t = integrate(radial, 0.0, p_max, cfg)
        val_e, err_e = integrate(radial_energy, 0.0, p_max, cfg)
    gamma_T = pref * val_t
    gamma_E = pref * val_e
    est = max(err_t / max(abs(val_t), _TINY), err_e / max(abs(val_e), _TINY))
    return RateResult(
        q_i=q_i,
        gamma_T=gamma_T,
        gamma_E=gamma_E,
        method="quadrature",
        est_error=est,
        smallness=_smallness(q_i, gamma_T, params),
    )


def transition_rate_asymptotic(q_i: float, params: SystemParams, regime: str) -> float:
    """Asymptotic transition rate in a named regime; no validity check.

    regime "threshold": (2*n*g**2/(3*pi*m*c**2)) * (q_i - q_c)**3, the cubic
    onset just above the critical momentum. regime "high_momentum":
    n*g**2*M*q_i*(m/(M+m))**2/pi, the sound-speed-independent large-q_i law.
    The caller decides where each expansion applies.
    """
    q_i = _check_qi(q_i)
    d = derive(params)
    n, g, m, M = params.n, params.g, params.m, params.M
    if regime == "threshold":
        return (2.0 * n * g * g / (3.0 * math.pi * m * d.c * d.c)) * (q_i - d.q_c) ** 3
    if regime == "high_momentum":
        ratio = m / (M + m)
        return n * g * g * M * q_i * ratio * ratio / math.pi
    raise DomainError(f"unknown regime {regime!r}; expected 'threshold' or 'high_momentum'")


def _lattice_args(q_i: float, params: SystemParams, cfg: BoxOracleConfig):
    """Common validation and argument packing for the lattice kernels."""
    p_max = max_emission_momentum(q_i, params)
    if cfg.p_cut <= p_max:
        raise ConfigurationError(
            f"p_cut = {cfg.p_cut} does not cover the emission window (p_max = {p_max})"
        )
    dk = 2.0 * math.pi / cfg.L
    n_max = math.ceil(cfg.p_cut / dk)
    n_points = _kernels.lattice_points(n_max)
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
        q_i,
    )


def box_rate(q_i: float, params: SystemParams, cfg: BoxOracleConfig) -> RateResult:
    """Finite-box oracle for the golden-rule rates.

    Sums w(p)/L**3 * 2*eta/(omega**2 + eta**2) over the momentum lattice
    p = (2*pi/L)*(integer triple), |p| <= p_cut, origin excluded: the energy
    delta realized as a Lorentzian of width eta. Converges to the continuum
    rates for L -> inf followed by eta -> 0. est_error is estimated from a
    second pass with doubled eta (the leading error is eta-linear).
    """
    q_i = _check_qi(q_i)
    args = _lattice_args(q_i, params, cfg)
    vol = cfg.L**3
    s_t, s_e = _kernels.lorentzian_sums(*args, cfg.eta)
    gamma_T = 2.0 * cfg.eta / vol * s_t
    gamma_E = 2.0 * cfg.eta / vol * s_e
    s_t2, _ = _kernels.lorentzian_sums(*args, 2.0 * cfg.eta)
    gamma_T2 = 4.0 * cfg.eta / vol * s_t2
    est = abs(gamma_T2 - gamma_T) / max(abs(gamma_T), _TINY)
    return RateResult(
        q_i=q_i,
        gamma_T=gamma_T,
        gamma_E=gamma_E,
        method="box",
        est_error=est,
        smallness=_smallness(q_i, gamma_T, params),
    )


def survival_probability(q_i: float, params: SystemParams, cfg: BoxOracleConfig, t: float) -> float:
    """Probability that the impurity has not yet emitted after time t.

    First-order expression 1 - sum_p w(p)/L**3 * kernel(omega(p), t) on the
    box lattice, with the exact finite-time kernel (no broadening). Clamped
    to [0, 1]; a clamp means first-order perturbation theory has broken down
    at this coupling and time, and a warning is emitted.
    """
    q_i = _check_qi(q_i)
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"time must be nonnegative and finite, got {t!r}")
    args = _lattice_args(q_i, params, cfg)
    depletion = _kernels.finite_time_sum(*args, t) / cfg.L**3
    raw = 1.0 - depletion
    if raw < 0.0:
        warnings.warn(
            f"first-order depletion {depletion} exceeds 1 at t = {t}; "
            "clamping survival to 0, result not perturbatively reliable",
            stacklevel=2,
        )
        return 0.0
    return min(raw, 1.0)


def survival_lower_bound(q_i: float, params: SystemParams, cfg: BoxOracleConfig) -> float:
    """Time-independent floor 1 - sum_p 4*w(p)/(L**3 * omega(p)**2).

    Valid for subcritical q_i only, where omega > 0 on every lattice mode:
    the oscillatory kernel never exceeds 4/omega**2, so survival can never
    drop below this value at any time (no secular decay). May be negative
    for strong coupling, in which case it is true but uninformative.
    """
    q_i = _check_qi(q_i)
    if q_i >= derive(params).q_c:
        raise DomainError("survival bound is defined for subcritical momenta only")
    args = _lattice_args(q_i, params, cfg)
    return 1.0 - _kernels.inverse_square_sum(*args) / cfg.L**3
