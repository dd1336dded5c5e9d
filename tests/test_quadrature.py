import math

import numpy as np
import pytest

from becimpurity import ConfigurationError, DomainError, NumericalError, QuadratureConfig
from becimpurity.quadrature import integrate, integrate_semi_infinite, second_derivative

_CFG = QuadratureConfig(rel_tol=1e-10)

# error-estimate honesty reference suite: (integrand, a, b, exact), finite part
_FINITE = [
    (lambda x: x**3, 0.0, 1.0, 0.25),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: np.cos(10.0 * x), 0.0, 1.0, math.sin(10.0) / 10.0),
    (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0,
     100.0 * (math.atan(70.0) + math.atan(30.0))),
]

# semi-infinite part of the suite: (integrand, exact)
_TAIL = [
    (lambda x: np.exp(-x), 1.0),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
]


@pytest.mark.parametrize("f,a,b,exact", _FINITE)
def test_error_estimate_honest_finite(f, a, b, exact):
    val, err = integrate(f, a, b, _CFG)
    true = abs(val - exact)
    assert true <= 10.0 * err
    assert true <= 1e-9 * abs(exact)


@pytest.mark.parametrize("f,exact", _TAIL)
def test_error_estimate_honest_semi_infinite(f, exact):
    val, err = integrate_semi_infinite(f, 0.0, _CFG)
    true = abs(val - exact)
    assert true <= 10.0 * err
    assert true <= 1e-9 * abs(exact)


def test_gaussian_moment_on_shifted_tail():
    val, _ = integrate_semi_infinite(lambda x: x * x * np.exp(-x * x), 0.0, _CFG)
    assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)


def test_polynomial_exactness_single_panel():
    # the embedded rule integrates low-degree polynomials to rounding
    for deg in (0, 3, 7, 13):
        val, _ = integrate(lambda x, d=deg: x**d, 0.0, 1.0, _CFG)
        assert val == pytest.approx(1.0 / (deg + 1), rel=5e-15)


def test_determinism_bitwise():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    v1, e1 = integrate(f, 0.0, 5.0, _CFG)
    v2, e2 = integrate(f, 0.0, 5.0, _CFG)
    assert v1 == v2
    assert e1 == e2


def test_interval_additivity():
    f = lambda x: np.cos(x) * np.exp(-0.5 * x)
    whole, _ = integrate(f, 0.0, 2.0, _CFG)
    left, _ = integrate(f, 0.0, 1.0, _CFG)
    right, _ = integrate(f, 1.0, 2.0, _CFG)
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_budget_exhaustion_carries_partial_result():
    cfg = QuadratureConfig(rel_tol=1e-10, max_subdivisions=3)
    with pytest.raises(NumericalError) as exc:
        integrate(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6), 0.0, 1.0, cfg)
    assert exc.value.value is not None
    assert exc.value.est_error is not None
    assert exc.value.est_error > 0.0


def test_unattainable_tolerance_raises_numerical():
    cfg = QuadratureConfig(rel_tol=1e-18)
    with pytest.raises(NumericalError):
        integrate(lambda x: np.exp(x), 0.0, 1.0, cfg)


def test_invalid_bounds_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 1.0, _CFG)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 2.0, 1.0, _CFG)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, math.inf, _CFG)


def test_nonfinite_integrand_raises_numerical():
    f = lambda x: np.where(x < 0.5, 1.0, np.nan)
    with pytest.raises(NumericalError):
        integrate(f, 0.0, 1.0, _CFG)


def test_wrong_shape_integrand_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: np.array([1.0]), 0.0, 1.0, _CFG)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        QuadratureConfig(rel_tol=-1e-10)
    with pytest.raises(ConfigurationError):
        QuadratureConfig(rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(ConfigurationError):
        QuadratureConfig(rel_tol=1e-10, max_subdivisions=0)


def test_abs_tol_only_mode():
    cfg = QuadratureConfig(rel_tol=0.0, abs_tol=1e-8)
    val, err = integrate(lambda x: np.sin(x), 0.0, math.pi, cfg)
    assert abs(val - 2.0) <= 1e-8
    assert err <= 1e-8


def test_second_derivative_quartic():
    assert second_derivative(lambda x: x**4, 1.0, 1e-2) == pytest.approx(12.0, abs=1e-8)


def test_second_derivative_odd_function_at_origin():
    assert abs(second_derivative(math.sin, 0.0, 0.1)) < 1e-12


def test_second_derivative_constant():
    assert second_derivative(lambda x: 7.0, 2.0, 0.1) == 0.0


def test_second_derivative_step_validation():
    with pytest.raises(DomainError):
        second_derivative(lambda x: x * x, 0.0, 0.0)
    with pytest.raises(DomainError):
        second_derivative(lambda x: x * x, 0.0, -0.1)
    with pytest.raises(DomainError):
        second_derivative(lambda x: x * x, 0.0, math.nan)
