import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from becimpurity import (
    BoxOracleConfig,
    ConfigurationError,
    DomainError,
    NumericalError,
    SystemParams,
    box_rate,
    emission_spectral_density,
    emission_window,
    max_emission_momentum,
    survival_lower_bound,
    survival_probability,
    transition_rate,
    transition_rate_asymptotic,
    transition_rate_quadrature,
)
from becimpurity import _kernels, checks, kinematics, rates
from becimpurity.params import derive
from becimpurity.quadrature import integrate

UNIT = SystemParams(g=1.0)
BOX = BoxOracleConfig(L=60.0, eta=0.05, p_cut=3.0)


def test_transition_rate_reference_point():
    r = transition_rate(2.0, UNIT)
    assert r.gamma_T == pytest.approx(0.038889959072326084, rel=1e-12)
    assert r.method == "closed"
    assert r.est_error == 0.0
    assert r.smallness == pytest.approx(r.gamma_T / 2.0, rel=1e-14)


def test_dissipation_rate_reference_point():
    r = transition_rate(2.0, UNIT)
    # M n g^2 p_max^4 / (16 pi m q_i) with p_max = 3/2
    assert r.gamma_E == pytest.approx((1.5**4) / (32.0 * math.pi), rel=1e-14)
    assert r.gamma_E == pytest.approx(0.05035761871267001, rel=1e-12)


def test_subcritical_rates_exactly_zero():
    for q_i in (0.0, 0.3, 0.999, 1.0):
        closed = transition_rate(q_i, UNIT)
        quad = transition_rate_quadrature(q_i, UNIT)
        assert closed.gamma_T == 0.0
        assert closed.gamma_E == 0.0
        assert quad.gamma_T == 0.0
        assert quad.gamma_E == 0.0


def test_quadrature_matches_closed():
    closed = transition_rate(2.0, UNIT)
    quad = transition_rate_quadrature(2.0, UNIT, tol=1e-12)
    assert quad.gamma_T == pytest.approx(closed.gamma_T, rel=1e-10)
    assert quad.gamma_E == pytest.approx(closed.gamma_E, rel=1e-10)
    assert quad.method == "quadrature"
    assert 0.0 <= quad.est_error < 1e-10


def test_quadrature_tol_validation():
    with pytest.raises(ConfigurationError):
        transition_rate_quadrature(2.0, UNIT, tol=0.0)
    with pytest.raises(ConfigurationError):
        transition_rate_quadrature(2.0, UNIT, tol=-1e-8)


def test_spectral_density_reference_value():
    # nu(p=1, q_i=2) = p^3/(8 pi eps(1)) = 1/(8 pi sqrt(1.25))
    val = emission_spectral_density(1.0, 2.0, UNIT)
    assert val == pytest.approx(1.0 / (8.0 * math.pi * math.sqrt(1.25)), rel=1e-13)
    assert val.hex() == "0x1.2389b64a642b8p-5"


def test_spectral_density_window_mask():
    p = np.array([0.0, 0.7, 1.5, 1.6, 2.0])
    vals = emission_spectral_density(p, 2.0, UNIT)
    assert vals[0] == 0.0
    assert vals[1] > 0.0
    # open window: zero at p_max = 1.5 and beyond
    assert vals[2] == 0.0
    assert vals[3] == 0.0
    assert vals[4] == 0.0


def test_spectral_density_subcritical_all_zero():
    vals = emission_spectral_density(np.linspace(0.0, 2.0, 9), 0.8, UNIT)
    assert np.all(vals == 0.0)


def test_spectral_density_integrates_to_transition_rate():
    f = lambda p: emission_spectral_density(p, 2.0, UNIT)
    val, _ = integrate(f, 0.0, 1.5, 1e-12)
    assert val == pytest.approx(transition_rate(2.0, UNIT).gamma_T, rel=1e-10)


def test_threshold_asymptote_value_and_accuracy():
    asym = transition_rate_asymptotic(1.01, UNIT, regime="threshold")
    assert asym == pytest.approx(2e-6 / (3.0 * math.pi), rel=1e-12)
    true = transition_rate(1.01, UNIT).gamma_T
    assert true == pytest.approx(asym, rel=0.03)


def test_high_momentum_asymptote_accuracy():
    asym = transition_rate_asymptotic(100.0, UNIT, regime="high_momentum")
    assert asym == pytest.approx(100.0 / (4.0 * math.pi), rel=1e-12)
    assert transition_rate(100.0, UNIT).gamma_T == pytest.approx(asym, rel=0.01)


def test_unknown_asymptotic_regime_rejected():
    with pytest.raises(DomainError):
        transition_rate_asymptotic(2.0, UNIT, regime="landau")


def test_negative_momentum_rejected():
    with pytest.raises(DomainError):
        transition_rate(-1.0, UNIT)
    with pytest.raises(DomainError):
        emission_spectral_density(1.0, -2.0, UNIT)


@pytest.mark.parametrize("p", [math.nan, math.inf, [1.0, math.nan], [0.5, math.inf]])
def test_spectral_density_rejects_nonfinite_momentum(p):
    # outside the emission window, so without the check these were exact zeros
    with pytest.raises(DomainError):
        emission_spectral_density(p, 2.0, UNIT)


def test_box_rate_reference_point():
    r = box_rate(2.0, UNIT, BOX)
    assert r.gamma_T == pytest.approx(0.039116370651115139, rel=1e-12)
    assert r.method == "box"
    assert r.est_error > 0.0
    # the eta-doubling estimate brackets the true discretization error
    closed = transition_rate(2.0, UNIT).gamma_T
    assert abs(r.gamma_T - closed) / closed <= 5.0 * r.est_error


def test_box_rate_subcritical_scales_linearly_with_eta():
    # below threshold the Lorentzian-broadened rate is pure broadening residue
    frozen = {
        0.08: 0.003242544688147475,
        0.04: 0.0016402097744033868,
        0.02: 0.0008232634074017034,
        0.01: 0.00041207799690219264,
    }
    for eta, expected in frozen.items():
        cfg = BoxOracleConfig(L=60.0, eta=eta, p_cut=3.0)
        assert box_rate(0.5, UNIT, cfg).gamma_T == pytest.approx(expected, rel=1e-12)
    assert frozen[0.02] / frozen[0.01] == pytest.approx(2.0, abs=0.01)


# q_c = 1 for UNIT: the grid holds subcritical residue, q_c itself and supercritical points
_BOX_GRID = np.linspace(0.0, 2.75, 12)


@pytest.mark.parametrize("L", [30.0, 60.0])
def test_box_rate_over_momenta_matches_each_momentum_bit_for_bit(L):
    cfg = BoxOracleConfig(L=L, eta=3.0 / L, p_cut=3.0)
    many = box_rate(_BOX_GRID, UNIT, cfg)
    assert many.method == "box"
    assert np.array_equal(many.q_i, _BOX_GRID)
    for k, q_i in enumerate(_BOX_GRID.tolist()):
        one = box_rate(q_i, UNIT, cfg)
        for field in ("gamma_T", "gamma_E", "est_error", "smallness"):
            assert getattr(many, field)[k].hex() == getattr(one, field).hex(), (q_i, field)


@pytest.mark.parametrize("count", [1, 3, 20])
def test_box_rate_makes_two_lattice_passes_whatever_the_grid(count, monkeypatch):
    calls, energy = [], []
    sums = _kernels.lorentzian_sums

    def counted(*a, **k):
        calls.append(a[-1])
        energy.append(k.get("_energy", True))
        return sums(*a, **k)

    monkeypatch.setattr(_kernels, "lorentzian_sums", counted)
    box_rate(np.linspace(0.5, 2.5, count), UNIT, BoxOracleConfig(L=20.0, eta=0.3))
    assert calls == [0.3, 0.6]
    assert energy == [True, False]  # the 2*eta pass, read for est_error only, forms no energy sum


def test_box_rate_of_no_momenta_visits_no_lattice(monkeypatch):
    monkeypatch.setattr(_kernels, "lorentzian_sums", None)
    r = box_rate(np.array([]), UNIT, BoxOracleConfig(L=1e4))  # above the point budget
    assert r.gamma_T.shape == r.est_error.shape == (0,)


@pytest.mark.parametrize("grid, cfg, error, message", [
    # the window of 5.0 (p_max = 4.8) is not covered, whatever follows
    ([2.0, 5.0, 1e-155], BoxOracleConfig(L=20.0, eta=0.3), ConfigurationError, "p_cut = 3.0"),
    # the smallness at 1e-155 fails before the window of 5.0 is checked
    ([1e-155, 5.0], BoxOracleConfig(L=20.0, eta=0.3), NumericalError, "smallness at q_i = 1e-155"),
    # the first window comes before the budget, the budget before any rate
    ([5.0, 1e-155], BoxOracleConfig(L=20.0, max_points=10), ConfigurationError, "p_cut = 3.0"),
    ([1e-155, 5.0], BoxOracleConfig(L=20.0, max_points=10), ConfigurationError, "budget"),
    ([2.0, 1e200], BoxOracleConfig(L=20.0, eta=0.3), NumericalError,
     "largest emitted momentum at q_i = 1e+200"),
])
def test_box_rate_over_momenta_raises_what_a_loop_raises_first(grid, cfg, error, message):
    with pytest.raises(error, match=re.escape(message)):
        box_rate(np.array(grid), UNIT, cfg)
    with pytest.raises(error, match=re.escape(message)):
        for q_i in grid:
            box_rate(q_i, UNIT, cfg)


_OVER_BUDGET = BoxOracleConfig(L=1e4)  # 871257511151 lattice points, above the default budget


@pytest.mark.parametrize("q_i, message", [
    # p_max = 4.8: the window fails before the budget is checked
    (5.0, "p_cut = 3.0 does not cover the emission window (p_max = 4.8)"),
    (2.0, "lattice would hold 871257511151 points, above the budget 100000000"),
])
def test_survival_checks_the_window_before_the_budget(q_i, message):
    with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
        survival_probability(q_i, UNIT, _OVER_BUDGET, 1.0)


def test_each_box_route_makes_one_gate_call(monkeypatch):
    calls = []
    gate = rates._lattice_args
    monkeypatch.setattr(rates, "_lattice_args", lambda *a: calls.append(a[0]) or gate(*a))
    cfg = BoxOracleConfig(L=20.0, eta=0.3)
    box_rate(np.array([0.5, 2.0, 2.5]), UNIT, cfg)
    survival_probability(2.0, UNIT, cfg, [1.0, 2.0])
    survival_lower_bound(0.5, UNIT, cfg)
    assert [np.size(q) for q in calls] == [3, 1, 1]


def test_survival_at_zero_time_is_one():
    assert survival_probability(0.5, UNIT, BOX, 0.0) == 1.0


def test_survival_decreases_then_saturates_supercritical():
    weak = SystemParams(g=0.3)
    p1 = survival_probability(2.0, weak, BOX, 2.0)
    p2 = survival_probability(2.0, weak, BOX, 8.0)
    assert 0.0 < p2 < p1 < 1.0


def test_survival_negative_time_rejected():
    with pytest.raises(DomainError):
        survival_probability(0.5, UNIT, BOX, -1.0)


def test_survival_clamps_with_warning_when_depletion_exceeds_one():
    strong = SystemParams(g=3.0)
    with pytest.warns(UserWarning, match="depletion"):
        val = survival_probability(2.0, strong, BOX, 20.0)
    assert val == 0.0


def _survival_and_warnings(*args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = survival_probability(*args)
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("L", [30.0, 60.0])
def test_survival_over_times_matches_each_time_bit_for_bit(L):
    # at g = 3 the depletion passes 1 before t = 20: those times clamp and warn
    strong = SystemParams(g=3.0)
    cfg = BoxOracleConfig(L=L, eta=0.05, p_cut=3.0)
    times = [0.0, 0.5, 2.0, 20.0, 60.0]
    many, warned = _survival_and_warnings(2.0, strong, cfg, np.array(times))
    singles = [_survival_and_warnings(2.0, strong, cfg, t) for t in times]
    assert many.shape == (5,)
    assert [v.hex() for v in many.tolist()] == [v.hex() for v, _ in singles]
    assert warned == [message for _, messages in singles for message in messages]
    assert many[0] == 1.0 and 0.0 < many[1] < 1.0
    assert many[-1] == 0.0 and len(warned) >= 1 and "at t = 60.0;" in warned[-1]


def test_survival_of_no_times_is_empty():
    assert survival_probability(0.5, UNIT, BOX, np.array([])).shape == (0,)
    assert survival_probability(0.5, UNIT, BOX, []).shape == (0,)
    assert isinstance(survival_probability(0.5, UNIT, BOX, 1.0), float)


def test_survival_checks_make_one_lattice_pass_per_kernel(monkeypatch):
    passes = []
    slabs = _kernels._slabs

    def counted(*args):
        passes.append(args)
        return slabs(*args)

    monkeypatch.setattr(_kernels, "_slabs", counted)
    checks._subcritical_survival.__wrapped__()  # the floor and five times
    assert len(passes) == 2
    passes.clear()
    checks.golden_rule_linear_regime()  # two times
    assert len(passes) == 1


def test_survival_lower_bound_reference_value():
    floor = survival_lower_bound(0.5, UNIT, BOX)
    assert floor == pytest.approx(1.0 - 0.08244658592974145, rel=1e-12)


@pytest.mark.parametrize("L, p_cut", [(1e-100, 3.0), (1e100, 1e-99)])
def test_box_volume_inside_the_float_range_is_accepted(L, p_cut):
    # L**3 = 1e-300 and 1e300, the routes' divisor; the cap keeps n_max at 1 and 2
    cfg = BoxOracleConfig(L=L, p_cut=p_cut)
    assert cfg.L == L
    assert survival_probability(0.5, UNIT, cfg, 0.0) == 1.0
    assert 0.0 < survival_lower_bound(0.5, UNIT, cfg) <= 1.0


def test_survival_respects_lower_bound():
    floor = survival_lower_bound(0.5, UNIT, BOX)
    for t in (0.5, 3.0, 30.0, 300.0):
        assert survival_probability(0.5, UNIT, BOX, t) >= floor


def test_survival_lower_bound_supercritical_rejected():
    with pytest.raises(DomainError):
        survival_lower_bound(2.0, UNIT, BOX)


def test_rate_result_is_frozen():
    r = transition_rate(2.0, UNIT)
    with pytest.raises(AttributeError):
        r.gamma_T = 0.0


@pytest.mark.parametrize("route", [transition_rate, transition_rate_quadrature])
def test_rates_stay_finite_up_to_1e76(route):
    r = route(1e76, UNIT)
    assert math.isfinite(r.gamma_T) and math.isfinite(r.gamma_E)
    assert r.gamma_E == pytest.approx(transition_rate(1e76, UNIT).gamma_E, rel=1e-12)


def _closed_gamma_T_in_mpmath(q_i, params, p_max):
    """pref * m*k**2/2 * (sinh(u) - u) at the given p_max, k = 2mc and u = 2*asinh(p_max/k)."""
    m, n, g = mpmath.mpf(params.m), mpmath.mpf(params.n), mpmath.mpf(params.g)
    k = 2 * m * mpmath.sqrt(n * mpmath.mpf(params.U0) / m)
    u = 2 * mpmath.asinh(p_max / k)
    pref = n * mpmath.mpf(params.M) * g**2 / (4 * mpmath.pi * m * q_i)
    return pref * m * k**2 / 2 * (mpmath.sinh(u) - u), u


def _assert_closed_gamma_T_above_the_tail(params, q_i):
    """At u >= 1 the closed gamma_T is pref * m*(p_max*hypot(k, p_max) - k*k*u/2).

    It must hold to 4 ulps of the 40-digit closed form, agree with the
    quadrature route, and keep its bits as an array entry.
    """
    p_max = max_emission_momentum(q_i, params)
    closed, quad = transition_rate(q_i, params), transition_rate_quadrature(q_i, params)
    with mpmath.workdps(40):
        want, u = _closed_gamma_T_in_mpmath(q_i, params, p_max)
        assert u >= 1
        assert abs(closed.gamma_T - want) <= 4 * math.ulp(closed.gamma_T)
    assert closed.gamma_T == pytest.approx(quad.gamma_T, rel=1e-10)
    assert closed.gamma_E == pytest.approx(quad.gamma_E, rel=1e-12)
    batch = transition_rate(np.array([0.0, q_i]), params).gamma_T
    assert batch.tolist() == [0.0, closed.gamma_T]
    return p_max


# c = 1e155 in the tiny rows, so gamma_T is subnormal; in the mixed rows
# k = 2mc = 1.59e-100 is not a power of two and gamma_T is normal
@pytest.mark.parametrize("params, q_i", [
    (SystemParams(m=1e-310, M=1e-310, g=1.0), 0.25),
    (SystemParams(m=1e-310, M=1e-310, g=1.0), 1.0),
    (SystemParams(m=1e-310, M=1e-310, g=1.0), 3.0),
    (SystemParams(m=0.7, M=1.3, n=0.9, U0=1e-200, g=0.3), 1e60),
    (SystemParams(m=0.7, M=1.3, n=0.9, U0=1e-200, g=0.3), 1e70),
], ids=["tiny-0.25", "tiny-1", "tiny-3", "mixed-1e60", "mixed-1e70"])
def test_closed_transition_rate_is_in_range_where_sinh_u_overflows(params, q_i):
    # s = p_max/2mc passes 1e154, so sinh(u) = 2s*hypot(1, s) overflows,
    # while gamma_T itself is in range
    p_max = _assert_closed_gamma_T_above_the_tail(params, q_i)
    assert p_max / (2.0 * params.m * derive(params).c) > 1e154


# the scale m*k**2/2 underflows to 0 in the rows at 1e-300 and at 1e-310,
# q_i = 0.1, and is subnormal at 1e-155, while gamma_T is in range
@pytest.mark.parametrize("params, q_i", [
    (SystemParams(m=1e-300, M=1e-300, g=1.0), 0.25),
    (SystemParams(m=1e-300, M=1e-300, g=1.0), 1.0),
    (SystemParams(m=1e-300, M=1e-300, g=1.0), 3.0),
    (SystemParams(m=1e-310, M=1e-310, g=1.0), 0.1),
    (SystemParams(m=1e-155, M=1e-155, g=1.0), 2.0),
], ids=["zero-0.25", "zero-1", "zero-3", "tiny-0.1", "subnormal-2"])
def test_closed_transition_rate_is_in_range_where_its_scale_underflows(params, q_i):
    _assert_closed_gamma_T_above_the_tail(params, q_i)


# k = 2mc is not a power of two in any row, so the form above the tail rounds
# k*k where 0.5*m*k*k*(sinh(u) - u) rounded otherwise
@pytest.mark.parametrize("params", [
    SystemParams(m=1.3, M=2.0, n=0.7, U0=1.1, g=0.9),
    SystemParams(m=0.7, M=0.45, n=1.9, U0=0.3, g=0.4),
    SystemParams(m=3.1, M=7.3, n=0.23, U0=2.9, g=1.7),
], ids=["m1.3", "m0.7", "m3.1"])
def test_closed_transition_rate_in_the_cancellation_band_matches_mpmath(params):
    # just above u = 1, sinh(u) - u cancels: the closed gamma_T holds to
    # 3e-15 of the 40-digit closed form at the same p_max there
    q = derive(params).q_c * np.linspace(1.0, 3.0, 4001)[1:]
    k = 2.0 * params.m * derive(params).c
    p_max = max_emission_momentum(q, params)
    u = 2.0 * np.arcsinh(p_max / k)
    band = (u >= 1.0) & (u <= 1.6)
    assert band.sum() >= 100
    gamma_T = transition_rate(q[band], params).gamma_T
    with mpmath.workdps(40):
        for q_i, p, got in zip(q[band].tolist(), p_max[band].tolist(), gamma_T.tolist()):
            want, u_j = _closed_gamma_T_in_mpmath(q_i, params, p)
            assert 1 <= u_j <= 1.6
            assert abs(got - want) <= 3e-15 * want, q_i


def test_quadrature_rates_raise_no_warning_where_an_infinite_prefactor_meets_a_zero_integral():
    # both integrals underflow to 0 while the prefactor overflows: the
    # product is nan, which must surface as a NumericalError or as exact
    # zeros (the true rates underflow), never as a numpy RuntimeWarning
    params = SystemParams(m=1e-300, M=1e-300, g=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = transition_rate_quadrature(1.001 * derive(params).q_c, params)
        except NumericalError:
            return
    assert r.gamma_T == 0.0 and r.gamma_E == 0.0


# 1e78: p_max**4 (closed) and the gamma_E integral (quadrature) overflow;
# 1e120: the quadrature integrand p**3 overflows too;
# 1e200: q_i**2 overflows inside max_emission_momentum
@pytest.mark.parametrize("q_i", [1e78, 1e120, 1e200])
@pytest.mark.parametrize("route", [transition_rate, transition_rate_quadrature])
def test_rates_beyond_the_float_range_raise_numerical(route, q_i):
    with pytest.raises(NumericalError, match="float range|non-finite"):
        route(q_i, UNIT)


_SWEEP = np.concatenate(([0.0, 0.5, 1.0], np.linspace(1.0 + 1e-9, 12.0, 40), [0.99]))


_RATE_FIELDS = ("q_i", "gamma_T", "gamma_E", "est_error", "smallness")
# each route that takes a float or a 1-D array of initial momenta, with its fields
_ROUTES = (
    (transition_rate, _RATE_FIELDS),
    (transition_rate_quadrature, _RATE_FIELDS),
    (emission_window, ("q_i", "p_max", "cos_theta_max", "dissipative")),
)


@pytest.mark.parametrize("M", [0.1, 1.0, 2.0, 10.0])
def test_quadrature_on_an_array_matches_float_calls_bitwise(M):
    params = SystemParams(g=1.0, M=M)
    q = _SWEEP * M
    for route, fields in _ROUTES:
        batch = route(q, params)
        listed = route(q.tolist(), params)
        for name in fields:
            assert getattr(batch, name).shape == q.shape
            assert getattr(listed, name).tolist() == getattr(batch, name).tolist()
        for i, q_i in enumerate(q.tolist()):
            alone = route(q_i, params)
            assert getattr(batch, "method", None) == getattr(alone, "method", None)
            for name in fields:
                assert float(getattr(batch, name)[i]).hex() == float(getattr(alone, name)).hex(), (
                    route.__name__, q_i, name)


@pytest.mark.parametrize("M", [0.1, 1.0, 10.0])
def test_quadrature_rates_are_the_prefactor_times_integrals_of_the_emission_shape(M):
    # gamma_T integrates the one emission shape, 2m*S(p)*p, that the density
    # uses; gamma_E integrates np.power(p, 3.0), which has the bits of p**3
    params = SystemParams(g=1.0, M=M)
    q = np.linspace(1.05, 10.0, 300) * derive(params).q_c
    p_max = max_emission_momentum(q, params)
    val_t, err_t = integrate(rates._emission_shape(params), 0.0, p_max)
    val_e, err_e = integrate(lambda p: p**3, 0.0, p_max)
    pref = rates._density_prefactor(q, params)
    est = np.maximum(err_t / np.maximum(np.abs(val_t), rates._TINY),
                     err_e / np.maximum(np.abs(val_e), rates._TINY))
    r = transition_rate_quadrature(q, params)
    for got, want in ((r.gamma_T, pref * val_t), (r.gamma_E, pref * val_e), (r.est_error, est)):
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_emission_shape_is_finite_where_p_cubed_overflows():
    p = np.geomspace(1e103, 1e300, 50)
    shape = rates._emission_shape(UNIT)(p)
    # p**3/eps = 2*p**2/sqrt(p**2 + 4) at unit parameters, 2p to rounding here
    assert np.isfinite(shape).all() and (shape == 2.0 * p).all()
    density = emission_spectral_density(1e110, 1e150, UNIT)
    assert density == pytest.approx(1e110 / (2.0 * math.pi * 1e150), rel=1e-15)


@pytest.mark.parametrize("params", [UNIT, SystemParams(M=0.3, m=2.0, n=0.7, U0=1.7, g=0.4),
                                    SystemParams(a=0.01)], ids=["unit", "mixed", "dilute"])
def test_spectral_density_matches_p3_over_eps_in_mpmath(params):
    q_i = 3.0 * derive(params).q_c
    p_max = max_emission_momentum(q_i, params)
    p = np.linspace(0.0, p_max, 302)[1:-1]
    density = emission_spectral_density(p, q_i, params)
    m, c = mpmath.mpf(params.m), mpmath.mpf(derive(params).c)
    with mpmath.workdps(40):
        pref = params.n * mpmath.mpf(params.M) * mpmath.mpf(params.g) ** 2 / (4 * mpmath.pi * m * q_i)
        for p_j, d_j in zip(p.tolist(), density.tolist()):
            x = mpmath.mpf(p_j)
            want = pref * x**3 / (x / (2 * m) * mpmath.sqrt(x * x + (2 * m * c) ** 2))
            assert abs(d_j - want) <= 1e-15 * want, p_j


def _traced_integrate(monkeypatch):
    """Wrap rates.integrate at its module binding, counting integrand calls."""
    log = {"integrate": 0, "integrand": []}
    original = rates.integrate

    def traced(f, *args, **kwargs):
        log["integrate"] += 1

        def counted(x):
            log["integrand"].append(x.shape)
            return f(x)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(rates, "integrate", traced)
    return log


def test_subcritical_momenta_integrate_nothing(monkeypatch):
    log = _traced_integrate(monkeypatch)
    r = transition_rate_quadrature(np.array([0.0, 0.5, 1.0]), UNIT)
    assert log == {"integrate": 0, "integrand": []}
    assert r.gamma_T.tolist() == r.gamma_E.tolist() == r.est_error.tolist() == [0.0] * 3


def test_quadrature_array_calls_the_integrand_16_times_per_point(monkeypatch):
    # the module-level integrate binding sees every integrand call
    log = _traced_integrate(monkeypatch)
    transition_rate_quadrature(np.linspace(1.1, 3.0, 25), UNIT)
    assert log["integrate"] == 2
    assert log["integrand"] == [(15,)] * (16 * 25)


def test_quadrature_array_validation():
    # strings and 0-d arrays are refused by the scalar rule, entry by entry
    refused = (("2", "'2'"), (["2"], "'2'"), (np.array(2.0), "array(2.)"), ([1.0, None], "None"))
    for route, fields in _ROUTES:
        with pytest.raises(DomainError, match="-1.0"):
            route(np.array([2.0, -1.0]), UNIT)
        with pytest.raises(DomainError, match="1-D"):
            route(np.ones((2, 2)), UNIT)
        for bad, shown in refused:
            with pytest.raises(DomainError) as exc:
                route(bad, UNIT)
            assert str(exc.value) == "initial momentum must be nonnegative and finite, got " + shown
        empty = route(np.array([]), UNIT)
        for name in fields:
            assert getattr(empty, name).shape == (0,)


@pytest.mark.parametrize("q_i", [1e149, 1e150, 1e154])
def test_closed_rates_with_an_overflowing_radicand_raise_not_zero(q_i):
    # at M/m = 1e6 the window used to collapse to p_max = 0 and both rates to 0
    heavy = SystemParams(g=1.0, M=1e6)
    with pytest.raises(NumericalError, match="float range"):
        transition_rate(q_i, heavy)
    with pytest.raises(NumericalError, match="non-finite"):
        transition_rate_quadrature(q_i, heavy)


def _hexes(r):
    return [[float(v).hex() for v in np.atleast_1d(getattr(r, name)).tolist()]
            for name in ("gamma_T", "gamma_E", "est_error", "smallness")]


def test_momenta_whose_gap_underflows_rate_exact_zeros_on_both_routes():
    # q_c = 1e-300: these momenta are supercritical, but q_i**2 - q_c**2 and
    # q_i**2/2M underflow to 0, so the window is empty (p_max = 0)
    tiny = SystemParams(g=1.0, M=1e-300)
    for q_i in (2e-300, 1e-299):
        assert max_emission_momentum(q_i, tiny) == 0.0
        for r in (transition_rate(q_i, tiny), transition_rate_quadrature(q_i, tiny)):
            assert _hexes(r) == [["0x0.0p+0"]] * 4
    # the in-range momenta of the same array keep their bits
    batch = transition_rate_quadrature(np.array([2e-300, 1.0, 1e-299, 3.0]), tiny)
    zero = "0x0.0p+0"
    assert _hexes(batch) == [
        [zero, "0x1.d13ef369717b2p-1000", zero, "0x1.16fbc64d8f1bcp-997"],
        [zero, "0x1.b49266db89b9dp-999", zero, "0x1.705b86c93c34dp-994"],
        [zero, "0x1.9000000000000p-47", zero, "0x1.8ffffffffffffp-47"],
        [zero] * 4,
    ]
    assert _hexes(transition_rate_quadrature(2.0, UNIT)) == [
        ["0x1.3e9627cb782b3p-5"], ["0x1.9c8794af361c6p-5"],
        ["0x1.9000000000001p-47"], ["0x1.3e9627cb782b3p-6"],
    ]


def test_closed_rates_keep_their_bits_on_both_sides_of_the_series_cut():
    # sinh(u) - u is its odd Taylor tail below u = 2*asinh(p_max/2mc) = 1 and
    # the closed difference above it; u is shown next to each momentum.
    # gamma_T is pinned; gamma_E = pref*p_max**4/4 is held to 2 ulps of its
    # exact value from the same float pref and p_max, since numpy's power
    # loop rounds differently on different CPUs
    cases = {
        1.0: [(1.01, "0x1.bc846426323f6p-23"),  # u = 0.020
              (1.3, "0x1.87c1b7f28e761p-9"),  # u = 0.525
              (2.0, "0x1.3e9627cb782b3p-5"),  # u = 1.386
              (5.0, "0x1.2ddd9f8f2320ap-2")],  # u = 3.219
        0.3: [(0.35, "0x1.74ca211e9751dp-16"),  # u = 0.099
              (1.0, "0x1.f27df7a89a438p-7"),  # u = 1.211
              (4.0, "0x1.821f7a2091c95p-3")],  # u = 3.662
    }
    for M, pins in cases.items():
        params = SystemParams(g=1.0, M=M)
        q = np.array([q_i for q_i, _ in pins])
        batch = transition_rate(q, params)
        assert [v.hex() for v in batch.gamma_T.tolist()] == [T for _, T in pins]
        pref, p_max = rates._density_prefactor(q, params), kinematics._p_max(q, params)
        for i, (q_i, T) in enumerate(pins):
            one = transition_rate(q_i, params)
            assert (one.gamma_T.hex(), one.gamma_E.hex()) == (T, batch.gamma_E[i].hex()), (M, q_i)
            with mpmath.workdps(40):
                exact = mpmath.mpf(pref[i]) * mpmath.mpf(p_max[i]) ** 4 / 4
                assert abs(one.gamma_E - exact) <= 2 * math.ulp(one.gamma_E), (M, q_i)


def test_coupling_whose_square_overflows_raises_numerical():
    huge = SystemParams(g=1e200)
    with pytest.raises(NumericalError, match="rate prefactor at q_i = 2.0 leaves the float range"):
        transition_rate_quadrature(2.0, huge)
    with pytest.raises(NumericalError, match="float range"):
        emission_spectral_density(1.0, 2.0, huge)
    for regime in ("threshold", "high_momentum"):
        with pytest.raises(NumericalError, match=f"{regime} rate at q_i = 2.0 leaves the float range"):
            transition_rate_asymptotic(2.0, huge, regime)
    # (q_i - q_c)**3 overflows on its own
    with pytest.raises(NumericalError, match="float range"):
        transition_rate_asymptotic(1e150, UNIT, "threshold")


def test_coupling_up_to_1e150_keeps_its_bits():
    strong = SystemParams(g=1e150)
    assert transition_rate_quadrature(2.0, strong).gamma_T.hex() == "0x1.dbb86a32aae17p+991"
    assert transition_rate_asymptotic(2.0, strong, "threshold").hex() == "0x1.4479f6c093b28p+994"
    assert transition_rate_asymptotic(2.0, strong, "high_momentum").hex() == "0x1.e6b6f220dd8bdp+993"


def test_smallness_that_leaves_the_float_range_raises():
    # below threshold the Lorentzian tails give gamma_T = 0.0105 at every tiny q_i
    box = BoxOracleConfig(L=20.0, eta=0.3)
    assert box_rate(1e-100, UNIT, box).smallness.hex() == (2.0997385083003617e+198).hex()
    assert box_rate(0.0, UNIT, box).smallness == 0.0
    # q_i**2/2M is subnormal at 1e-155, so the ratio overflows; at 1e-200 it is 0
    for q_i in (1e-155, 1e-200):
        with pytest.raises(NumericalError, match=f"smallness at q_i = {q_i!r} leaves the float range"):
            box_rate(q_i, UNIT, box)


@pytest.mark.parametrize("q_i, params", [(2.0, SystemParams(g=1e154)),
                                         (20.0, SystemParams(g=1e154, M=10.0))])
def test_rates_whose_coupling_product_overflows_stay_finite(q_i, params):
    # M*n*g*g overflows before the division, the rates themselves do not
    closed = transition_rate(q_i, params)
    quad = transition_rate_quadrature(q_i, params)
    assert closed.gamma_E > 5e306
    assert quad.gamma_T == pytest.approx(closed.gamma_T, rel=1e-8)
    assert quad.gamma_E == pytest.approx(closed.gamma_E, rel=1e-8)


def test_densities_and_asymptotes_whose_coupling_product_overflows_stay_finite():
    # pref * p**3 and n*g*g*M*q_i overflow before the division; the values do not
    # (references: 50-digit decimal evaluations of the same expressions)
    params = SystemParams(g=1.3e154, M=10.0)
    density = emission_spectral_density(3.0, 20.0, params)
    assert density == pytest.approx(3.3569716521590836e+307, rel=1e-14)
    rate = transition_rate_asymptotic(20.0, SystemParams(g=1e154, M=10.0), "high_momentum")
    assert rate == pytest.approx(5.2613204327899288e+307, rel=1e-14)
    # here the density itself is about 2.5e308
    msg = "^emission spectral density at q_i = 3.0 leaves the float range$"
    with pytest.raises(NumericalError, match=msg):
        emission_spectral_density(2.0, 3.0, SystemParams(g=1.3e154, n=20.0, U0=0.05))


def test_quadrature_energy_rate_that_overflows_raises_not_inf():
    # pref ~ 2.7e306 times the gamma_E integral (~132) overflows; it used to come back as inf
    strong = SystemParams(g=1.3e154)
    assert math.isfinite(transition_rate_quadrature(2.0, strong).gamma_E)
    msg = "^energy dissipation rate at q_i = 5.0 leaves the float range$"
    for route in (transition_rate_quadrature, lambda q, p: transition_rate_quadrature([2.0, q], p)):
        with pytest.raises(NumericalError, match=msg):
            route(5.0, strong)
