"""Named self-verification checks shared by the CLI and the test suite.

Each check compares an independent numerical route against a closed form (or
an exact structural property) and reports a single scalar alongside the
tolerance it was judged with. run_all evaluates every registered check in
declaration order.

To add a check, write one function with no parameters that returns
``(measured, detail)`` and decorate it with ``@_check(default_tolerance)``;
the function name is the check name, and the check passes when measured <=
tolerance. run_check supplies the tolerance and builds the CheckResult.

Three checks are expected to fail at their default tolerances; they probe
limits that the implemented physics genuinely does not meet (a heavy-mass
asymptote that converges too slowly, a discretization schedule whose error is
not monotone, and a one-sided branch-point tolerance tighter than the linear
slope allows). They are kept deliberately: a verification layer that cannot
fail would prove nothing. See EXPECTED_FAILURES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import _libm
from .errors import ConfigurationError
from .params import SystemParams, derive
from .rates import (
    BoxOracleConfig,
    box_rate,
    survival_lower_bound,
    survival_probability,
    transition_rate,
    transition_rate_asymptotic,
    transition_rate_quadrature,
)
from .selfenergy import (
    I0,
    I1,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_shift_closed,
    energy_shift_quadrature,
)

__all__ = [
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "EXPECTED_FAILURES",
    "run_all",
    "run_check",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


# Checks that fail at the default tolerances, with the approximate measured
# value; the failures are real properties of the model, not bugs.
EXPECTED_FAILURES = {
    "heavy_mass_dissipation_limit": 0.052,
    "box_schedule_monotone": 0.009,
    "branch_point_one_sided": 1.7e-5,
}

# name -> (check, default tolerance), in declaration order
_REGISTRY: dict = {}


def _check(tolerance: float):
    """Register the decorated check under its function name."""

    def register(fn):
        _REGISTRY[fn.__name__] = (fn, tolerance)
        return fn

    return register


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# the logs of the slope fits' inputs, all positive, by libm (see bogoliubov._libm)
_log = _libm(math.log)


def _slope(x, y) -> float:
    """Least-squares slope sum((x - mean x)*(y - mean y)) / sum((x - mean x)**2).

    The means and sums are math.fsum over Python floats, so a straight-line
    fit starts no LAPACK or BLAS call and takes the same bits whatever
    kernels numpy picks.
    """
    x, y = np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    return math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / math.fsum(d * d for d in dx)


# ---------------------------------------------------------------------------
# rates


@_check(0.0)
def landau_exact_zero() -> tuple:
    """Both rates are identically zero on a grid below the critical momentum."""
    worst = 0.0
    for M in (0.5, 1.0, 2.0, 10.0):
        params = SystemParams(g=1.0, M=M)
        r = transition_rate(np.linspace(0.0, 0.999 * derive(params).q_c, 13), params)
        worst = max(worst, *np.abs(r.gamma_T).tolist(), *np.abs(r.gamma_E).tolist())
    return worst, f"max |rate| over 52 subcritical (q_i, M) points = {worst:.3g}"


@_check(1e-8)
def closed_vs_quadrature() -> tuple:
    """Adaptive quadrature reproduces the closed transition rate."""
    dev = 0.0
    for M in (0.5, 1.0, 2.0, 10.0):
        params = SystemParams(g=1.0, M=M)
        q = np.geomspace(1.01, 10.0, 20) * derive(params).q_c
        quad = transition_rate_quadrature(q, params).gamma_T.tolist()
        closed = transition_rate(q, params).gamma_T.tolist()
        dev = max(dev, *map(_rel, quad, closed))
    return dev, f"max rel dev of gamma_T over a 20 x 4 (q_i, M) grid = {dev:.3g}"


@_check(1e-8)
def energy_rate_identity() -> tuple:
    """Energy-weighted spectral integral reproduces the closed dissipation rate."""
    dev = 0.0
    for M, q in ((1.0, [2.0, 5.0]), (2.0, [4.0])):
        params = SystemParams(g=1.0, M=M)
        quad = transition_rate_quadrature(q, params).gamma_E.tolist()
        closed = transition_rate(q, params).gamma_E.tolist()
        dev = max(dev, *map(_rel, quad, closed))
    return dev, f"max rel dev of gamma_E at three supercritical points = {dev:.3g}"


@functools.lru_cache(maxsize=None)
def _threshold_fit() -> tuple:
    """Log-log slope and fixed-exponent prefactor estimate near threshold."""
    params = SystemParams(g=1.0)
    q_c = derive(params).q_c
    deltas = np.geomspace(1e-3, 1e-2, 10) * q_c
    gammas = transition_rate(q_c + deltas, params).gamma_T
    log_d, log_g = _log(deltas), _log(gammas)
    slope = _slope(log_d, log_g)
    # geometric mean of pointwise prefactors; a free-intercept fit is biased
    # by the lever arm between exponent and intercept
    pref = math.exp(float(np.mean(log_g - 3.0 * log_d)))
    # the asymptote at unit excess is its prefactor
    pref_exact = transition_rate_asymptotic(q_c + 1.0, params, "threshold")
    return slope, _rel(pref, pref_exact)


@_check(0.05)
def threshold_exponent() -> tuple:
    """Rate grows with the cube of the momentum excess above threshold."""
    slope, _ = _threshold_fit()
    return abs(slope - 3.0), f"log-log slope over (q_i - q_c)/q_c in [1e-3, 1e-2] is {slope:.6f}"


@_check(0.05)
def threshold_prefactor() -> tuple:
    """Cubic-law prefactor matches the threshold asymptote."""
    _, dev = _threshold_fit()
    return dev, f"geometric-mean prefactor off by {dev:.3g} relative"


@_check(0.02)
def high_momentum_limit() -> tuple:
    """Closed rate approaches the momentum-linear asymptote at q_i = 100*q_c."""
    worst = 0.0
    for M in (1.0, 2.0):
        params = SystemParams(g=1.0, M=M)
        q_i = 100.0 * derive(params).q_c
        asym = transition_rate_asymptotic(q_i, params, regime="high_momentum")
        worst = max(worst, _rel(transition_rate(q_i, params).gamma_T, asym))
    return worst, f"max rel dev from the linear asymptote at 100*q_c = {worst:.3g}"


@_check(0.1)
def quasiparticle_smallness() -> tuple:
    """Decay rate stays small against the impurity kinetic energy."""
    worst = 0.0
    for q_i, M in ((2.0, 1.0), (4.0, 2.0), (5.0, 1.0)):
        worst = max(worst, transition_rate(q_i, SystemParams(g=1.0, M=M)).smallness)
    return worst, f"max gamma_T/(q_i**2/2M) over three supercritical points = {worst:.3g}"


@_check(0.03)
def heavy_mass_dissipation_limit() -> tuple:
    """Dissipation rate vs its infinite-mass asymptote at M/m = 100.

    The asymptote is approached only like m/M; at M = 100 the residue is
    about 5 percent, so the 3 percent tolerance is not met.
    """
    params = SystemParams(g=1.0, M=100.0)
    d = derive(params)
    q_i = 1.5 * d.q_c
    exact = transition_rate(q_i, params).gamma_E
    limit = (
        params.n * params.g**2 * params.m**3
        * (q_i**2 - d.q_c**2) ** 2
        / (math.pi * q_i * params.M**3)
    )
    dev = _rel(exact, limit)
    return dev, f"rel dev from the infinite-mass asymptote at M=100, q_i=1.5*q_c is {dev:.3g}"


# ---------------------------------------------------------------------------
# finite-box oracle


@functools.lru_cache(maxsize=None)
def _box_schedule_errors() -> tuple:
    """Relative box-vs-closed errors along a fixed (L, eta) refinement."""
    params = SystemParams(g=1.0)
    q_i = 2.0
    closed = transition_rate(q_i, params).gamma_T
    errs = []
    for L, eta in ((30.0, 0.1), (60.0, 0.05), (120.0, 0.025)):
        cfg = BoxOracleConfig(L=L, eta=eta, p_cut=3.0)
        errs.append(_rel(box_rate(q_i, params, cfg).gamma_T, closed))
    return tuple(errs)


@_check(0.02)
def box_schedule_agreement() -> tuple:
    """Finest box in the refinement schedule agrees with the closed rate."""
    errs = _box_schedule_errors()
    return errs[-1], f"rel errors along (L, eta) schedule: {', '.join(f'{e:.3g}' for e in errs)}"


@_check(0.0)
def box_schedule_monotone() -> tuple:
    """Box error decreases at every refinement step.

    It does not: the middle step lands unusually close to the closed value,
    so the last step moves away again. Kept as a documented failure; the
    schedule-wide trend is still downward.
    """
    errs = _box_schedule_errors()
    worst_increase = max(0.0, max(b - a for a, b in zip(errs, errs[1:])))
    return worst_increase, f"max step-to-step error increase = {worst_increase:.3g}"


# ---------------------------------------------------------------------------
# fluctuation integrals


@_check(1e-6)
def branch_point_symmetric_value() -> tuple:
    """Averaging the two sides of the equal-mass point recovers the limits."""
    e = 1e-4
    dev0 = abs(0.5 * (I0(1.0 + e) + I0(1.0 - e)) - 4.0 / 3.0)
    dev1 = abs(0.5 * (I1(1.0 + e) + I1(1.0 - e)) - 2.0 / 15.0)
    return max(dev0, dev1), f"symmetric averages off by {dev0:.3g} (I0) and {dev1:.3g} (I1)"


@_check(1e-9)
def small_ratio_endpoints() -> tuple:
    """Light-impurity endpoints: I0 -> pi/2 and I1 -> pi/4 as the ratio -> 0."""
    dev0 = abs(I0(1e-10) - math.pi / 2.0)
    dev1 = abs(I1(1e-10) - math.pi / 4.0)
    return max(dev0, dev1), f"endpoint deviations at ratio 1e-10: {dev0:.3g} (I0), {dev1:.3g} (I1)"


@_check(1e-6)
def branch_point_one_sided() -> tuple:
    """Each side of the equal-mass point individually matches the limit.

    Impossible at this tolerance: both integrals have a finite slope there
    (2/15 and 6/35), so at offset 1e-4 each side sits about 1.7e-5 away.
    """
    e = 1e-4
    measured = max(
        abs(I0(1.0 + e) - 4.0 / 3.0),
        abs(I0(1.0 - e) - 4.0 / 3.0),
        abs(I1(1.0 + e) - 2.0 / 15.0),
        abs(I1(1.0 - e) - 2.0 / 15.0),
    )
    return measured, f"max one-sided deviation at offset 1e-4 = {measured:.3g}"


# ---------------------------------------------------------------------------
# energy shift and effective mass


@functools.lru_cache(maxsize=None)
def _cutoff_reldevs() -> dict:
    params = SystemParams(a=0.01)
    closed = energy_shift_closed(params)
    return {
        cut: _rel(energy_shift_quadrature(0.0, params, cut), closed)
        for cut in (100.0, 200.0, 400.0, 800.0, 2000.0)
    }


@_check(0.1)
def cutoff_scaling_slope() -> tuple:
    """Rest-energy cutoff error falls off like the inverse cutoff."""
    devs = _cutoff_reldevs()
    cuts = np.array([100.0, 200.0, 400.0, 800.0])
    slope = _slope(_log(cuts), _log([devs[c] for c in cuts]))
    return abs(slope + 1.0), f"log-log slope of the cutoff error over [100, 800] is {slope:.6f}"


@_check(1e-4)
def cutoff_residual_2000() -> tuple:
    """Renormalized rest energy is already converged at cutoff 2000."""
    dev = _cutoff_reldevs()[2000.0]
    return dev, f"rel dev from the closed rest energy at cutoff 2000 = {dev:.3g}"


@_check(1e-6)
def effective_mass_integral_vs_closed() -> tuple:
    """Semi-infinite curvature integral reproduces the closed mass."""
    params = SystemParams(a=0.01)
    closed = effective_mass_closed(params)
    quad = effective_mass_quadrature(params)
    dev = _rel(quad.correction, closed.correction)
    return dev, f"mass correction by quadrature off by {dev:.3g} relative"


@_check(1e-3)
def effective_mass_fd_vs_closed() -> tuple:
    """Finite-difference curvature of the subtracted energy matches the mass.

    Carries the O(1/cutoff) residue of the curvature itself, about 5e-4 at
    the stencil's cutoff of 4000; hence the looser tolerance.
    """
    params = SystemParams(a=0.01)
    closed = effective_mass_closed(params)
    fd = effective_mass_finite_difference(params)
    dev = _rel(fd.correction, closed.correction)
    return dev, f"mass correction by finite differences off by {dev:.3g} relative"


@_check(1e-7)
def effective_mass_heavy_limit() -> tuple:
    """Closed mass approaches the heavy-impurity form M/(1 - 4*pi*n*a**2/(3*M*c))."""
    params = SystemParams(M=100.0, a=0.01)
    d = derive(params)
    heavy = params.M / (1.0 - 4.0 * math.pi * params.n * params.a**2 / (3.0 * params.M * d.c))
    dev = _rel(effective_mass_closed(params).M_ef, heavy)
    return dev, f"rel gap to the heavy-impurity mass at M=100 is {dev:.3g}"


@_check(1e-8)
def vanishing_linear_term() -> tuple:
    """Central first derivative of the subcritical energy is exactly zero.

    The integrand is coded so that negating q_i is a bitwise no-op, making
    the central difference vanish identically, not just to rounding.
    """
    params = SystemParams(a=0.01)
    h = 0.01 * derive(params).q_c
    lo = energy_shift_quadrature(-h, params, 200.0)
    hi = energy_shift_quadrature(h, params, 200.0)
    d1 = abs(hi - lo) / (2.0 * h)
    return d1, f"|E(h) - E(-h)|/2h at h = 0.01*q_c is {d1:.3g}"


# ---------------------------------------------------------------------------
# finite-time decay


@_check(0.05)
def golden_rule_linear_regime() -> tuple:
    """Box survival matches 1 - gamma_T*t while the depletion is small."""
    params = SystemParams(g=0.3)
    q_i = 2.0
    cfg = BoxOracleConfig(L=60.0, eta=0.05, p_cut=3.0)
    gamma = transition_rate(q_i, params).gamma_T
    times = [depletion / gamma for depletion in (0.02, 0.04)]
    worst = 0.0
    for t, p in zip(times, survival_probability(q_i, params, cfg, times).tolist()):
        worst = max(worst, abs((1.0 - p) / (gamma * t) - 1.0))
    return worst, f"max rel dev of 1 - P(t) from gamma_T*t at depletion 0.02, 0.04 = {worst:.3g}"


@functools.lru_cache(maxsize=None)
def _subcritical_survival() -> tuple:
    params = SystemParams(g=1.0)
    q_i = 0.5
    cfg = BoxOracleConfig(L=60.0, eta=0.05, p_cut=3.0)
    floor = survival_lower_bound(q_i, params, cfg)
    min_p = min(survival_probability(q_i, params, cfg, (1.0, 5.0, 20.0, 100.0, 200.0)).tolist())
    return floor, min_p


@_check(0.0)
def subcritical_survival_bound() -> tuple:
    """Subcritical survival never drops below its rigorous floor."""
    floor, min_p = _subcritical_survival()
    violation = max(0.0, floor - min_p)
    return violation, f"min P over five times = {min_p:.4f} against floor {floor:.4f}"


@_check(0.1)
def subcritical_survival_floor() -> tuple:
    """The worst-case depletion 1 - floor is itself small below threshold."""
    floor, _ = _subcritical_survival()
    depletion = 1.0 - floor
    return depletion, f"depletion bound 1 - floor = {depletion:.4f} at q_i = 0.5, L = 60"


# ---------------------------------------------------------------------------


DEFAULT_TOLERANCES = {name: tol for name, (_, tol) in _REGISTRY.items()}


def run_check(name: str, tolerance: float | None = None) -> CheckResult:
    """Run one named check; tolerance None means the default."""
    if name not in _REGISTRY:
        raise ConfigurationError(f"unknown check {name!r}")
    fn, default = _REGISTRY[name]
    tol = default if tolerance is None else tolerance
    _validate_tolerance(name, tol)
    measured, detail = fn()
    return CheckResult(
        name=name,
        passed=bool(measured <= tol),  # numpy bools break JSON reports
        measured=float(measured),
        tolerance=float(tol),
        detail=detail,
    )


def _validate_tolerance(name: str, tol) -> None:
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise ConfigurationError(f"tolerance for {name!r} must be a number, got {tol!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigurationError(f"tolerance for {name!r} must be nonnegative, got {tol!r}")


def run_all(tolerances: dict | None = None) -> list:
    """Run every check in registry order.

    tolerances overrides defaults by name; unknown names and negative values
    are configuration errors, raised before any check runs.
    """
    tolerances = tolerances or {}
    for name, tol in tolerances.items():
        if name not in _REGISTRY:
            raise ConfigurationError(f"unknown check {name!r} in tolerance overrides")
        _validate_tolerance(name, tol)
    return [run_check(name, tolerances.get(name)) for name in _REGISTRY]
