import math

import numpy as np
import pytest

from becimpurity import (
    DomainError,
    NumericalError,
    SystemParams,
    dispersion,
    emission_window,
    finite_time_kernel,
    max_emission_momentum,
    omega,
    resonance_cos,
)

UNIT = SystemParams(g=1.0)


def test_omega_reference_value():
    # eps(1) + 1/2 - 2 at forward emission
    assert omega(1.0, 1.0, 2.0, UNIT) == pytest.approx(math.sqrt(1.25) + 0.5 - 2.0, rel=1e-14)


def test_omega_vectorized_over_momentum():
    p = np.array([0.5, 1.0, 1.5])
    vals = omega(p, 1.0, 2.0, UNIT)
    assert vals.shape == (3,)
    assert vals[1] == omega(1.0, 1.0, 2.0, UNIT)


def test_omega_rejects_bad_direction():
    with pytest.raises(DomainError):
        omega(1.0, 1.5, 2.0, UNIT)
    with pytest.raises(DomainError):
        omega(1.0, -1.0001, 2.0, UNIT)


@pytest.mark.parametrize("p, x", [
    (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_omega_rejects_nonfinite_or_negative_inputs(p, x):
    with pytest.raises(DomainError):
        omega(p, x, 2.0, UNIT)


@pytest.mark.parametrize("p, x", [
    (1e150, 1.0), (np.array([1.0, 1e150]), 1.0), (1e150, np.array([0.0, 1.0])),
])
def test_omega_beyond_the_float_range_raises_numerical(p, x):
    # q_i*p*x/M overflows while eps(p) + p**2/2M does not; it used to come
    # back as -inf with a RuntimeWarning
    with pytest.raises(NumericalError, match=r"frequency mismatch at p = 1e\+150 leaves the float range"):
        omega(p, x, 1e300, UNIT)


def test_resonance_cos_reference_value():
    assert resonance_cos(1.0, 2.0, UNIT) == pytest.approx(0.8090169943749475, rel=1e-14)


def test_resonance_cos_zeroes_omega():
    x0 = resonance_cos(1.0, 2.0, UNIT)
    assert abs(omega(1.0, x0, 2.0, UNIT)) < 1e-14


def test_resonance_cos_at_window_edge_is_one():
    # p equal to the maximal emission momentum resonates exactly forward
    assert resonance_cos(1.5, 2.0, UNIT) == 1.0


def test_resonance_cos_outside_window_is_none():
    assert resonance_cos(1.6, 2.0, UNIT) is None


def test_resonance_cos_requires_positive_arguments():
    with pytest.raises(DomainError):
        resonance_cos(0.0, 2.0, UNIT)
    with pytest.raises(DomainError):
        resonance_cos(1.0, 0.0, UNIT)


def test_max_emission_momentum_equal_masses_is_rational():
    # at m = M the closed form reduces to (q_i^2 - q_c^2)/q_i, exactly
    assert max_emission_momentum(2.0, UNIT) == 1.5
    assert max_emission_momentum(4.0, UNIT) == 3.75


def test_max_emission_momentum_subcritical_is_zero():
    assert max_emission_momentum(0.5, UNIT) == 0.0
    assert max_emission_momentum(1.0, UNIT) == 0.0


def test_max_emission_momentum_unequal_masses():
    heavy = SystemParams(M=2.0, g=1.0)
    assert max_emission_momentum(4.0, heavy) == pytest.approx(2.14073503395, rel=1e-9)


def test_max_emission_momentum_is_resonant_forward():
    # the window edge satisfies eps(p) + p^2/2M = q_i p / M
    for params, q_i in ((UNIT, 2.0), (SystemParams(M=2.0, g=1.0), 4.0)):
        p_max = max_emission_momentum(q_i, params)
        lhs = dispersion(p_max, params) + p_max**2 / (2.0 * params.M)
        assert lhs == pytest.approx(q_i * p_max / params.M, rel=1e-12)


@pytest.mark.parametrize("route", [max_emission_momentum, emission_window])
def test_max_emission_momentum_beyond_the_float_range_raises_numerical(route):
    # q_i**2 overflows: the root used to come back as nan
    with pytest.raises(NumericalError, match="float range"):
        route(1e200, UNIT)


def test_emission_window_supercritical():
    win = emission_window(2.0, UNIT)
    assert win.dissipative is True
    assert win.p_max == 1.5
    assert win.cos_theta_max == 0.5
    assert math.degrees(math.acos(win.cos_theta_max)) == pytest.approx(60.0, rel=1e-12)


def test_emission_window_subcritical():
    win = emission_window(0.5, UNIT)
    assert win.dissipative is False
    assert win.p_max == 0.0
    assert win.cos_theta_max == 1.0


def test_finite_time_kernel_reference_value():
    assert finite_time_kernel(1.0, 1.0) == pytest.approx(0.9193953882637206, rel=1e-14)


def test_finite_time_kernel_resonant_mode_grows_as_t_squared():
    assert finite_time_kernel(0.0, 3.0) == 9.0


def test_finite_time_kernel_series_seam_continuity():
    below = finite_time_kernel(9.999e-5, 1.0)
    above = finite_time_kernel(1.0001e-4, 1.0)
    assert below == pytest.approx(above, rel=1e-10)


def test_finite_time_kernel_bounds():
    # 0 <= K <= min(t^2, 4/omega^2)
    t = 2.5
    for w in np.geomspace(1e-6, 1e3, 40):
        k = finite_time_kernel(w, t)
        assert 0.0 <= k <= min(t * t, 4.0 / (w * w)) * (1.0 + 1e-12)


def test_finite_time_kernel_vectorized():
    w = np.array([0.0, 1.0, 10.0])
    k = finite_time_kernel(w, 1.0)
    assert k.shape == (3,)
    assert k[0] == 1.0
    assert k[1] == pytest.approx(0.9193953882637206, rel=1e-14)


def test_finite_time_kernel_negative_time_rejected():
    with pytest.raises(DomainError):
        finite_time_kernel(1.0, -0.1)


def test_negative_initial_momentum_rejected():
    with pytest.raises(DomainError):
        max_emission_momentum(-1.0, UNIT)
    with pytest.raises(DomainError):
        emission_window(math.nan, UNIT)


def _p_max_decimal(q_i: float, params: SystemParams) -> float:
    """The rationalized root in 50-digit decimal arithmetic."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 50
        q, r = decimal.Decimal(q_i), decimal.Decimal(params.M) / decimal.Decimal(params.m)
        q_c = decimal.Decimal(params.M) * (decimal.Decimal(params.n * params.U0) / decimal.Decimal(params.m)).sqrt()
        gap = q * q - q_c * q_c
        return float(2 * gap / (q + (q_c * q_c + r * r * gap).sqrt()))


@pytest.mark.parametrize("q_i", [1e149, 1e150, 1e153, 1e154, 1.3e154])
def test_max_emission_momentum_survives_an_overflowing_radicand(q_i):
    # r**2*(q_i**2 - q_c**2) overflows at M/m = 1e6; the root used to come back as 0
    heavy = SystemParams(g=1.0, M=1e6)
    p_max = max_emission_momentum(q_i, heavy)
    assert p_max == pytest.approx(_p_max_decimal(q_i, heavy), rel=1e-15)
    assert emission_window(q_i, heavy).p_max == p_max


def test_max_emission_momentum_at_1e150_is_about_2e144():
    assert max_emission_momentum(1e150, SystemParams(g=1.0, M=1e6)) == pytest.approx(2.0e144, rel=1e-5)
