import math

import numpy as np
import pytest

from becimpurity import (
    BoxOracleConfig,
    ConfigurationError,
    DomainError,
    NumericalError,
    QuadratureConfig,
    SystemParams,
    box_rate,
    emission_spectral_density,
    energy_dissipation_rate,
    survival_lower_bound,
    survival_probability,
    transition_rate,
    transition_rate_asymptotic,
    transition_rate_quadrature,
)
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
    r = energy_dissipation_rate(2.0, UNIT)
    # M n g^2 p_max^4 / (16 pi m q_i) with p_max = 3/2
    assert r.gamma_E == pytest.approx((1.5**4) / (32.0 * math.pi), rel=1e-14)
    assert r.gamma_E == pytest.approx(0.05035761871267001, rel=1e-12)


def test_both_closed_ops_agree_on_both_rates():
    a = transition_rate(3.0, UNIT)
    b = energy_dissipation_rate(3.0, UNIT)
    assert a.gamma_T == b.gamma_T
    assert a.gamma_E == b.gamma_E


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
    val, _ = integrate(f, 0.0, 1.5, QuadratureConfig(rel_tol=1e-12))
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


def test_survival_lower_bound_reference_value():
    floor = survival_lower_bound(0.5, UNIT, BOX)
    assert floor == pytest.approx(1.0 - 0.08244658592974145, rel=1e-12)


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


# 1e78: p_max**4 (closed) and the gamma_E integral (quadrature) overflow;
# 1e120: the quadrature integrand p**3 overflows too;
# 1e200: q_i**2 overflows inside max_emission_momentum
@pytest.mark.parametrize("q_i", [1e78, 1e120, 1e200])
@pytest.mark.parametrize("route", [transition_rate, transition_rate_quadrature])
def test_rates_beyond_the_float_range_raise_numerical(route, q_i):
    with pytest.raises(NumericalError, match="float range|non-finite"):
        route(q_i, UNIT)
