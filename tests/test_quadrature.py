import math

import numpy as np
import pytest

from becimpurity import ConfigurationError, DomainError, NumericalError, QuadratureConfig
from becimpurity.quadrature import (
    _EPS,
    _NODES,
    _W_GAUSS,
    _W_KRONROD,
    _eval_panels,
    integrate,
    integrate_semi_infinite,
    second_derivative,
)

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
    with pytest.raises(NumericalError) as exc:
        integrate(f, 0.0, 1.0, _CFG)
    # panels 4..7 all fail; the message names the first node of panel 4
    first_bad = 0.5625 + 0.0625 * _NODES[0]
    assert str(exc.value) == f"integrand returned a non-finite value near x = {first_bad}"


def _reference_panel(y, a, b):
    """The per-panel GK15 arithmetic as 1-D dots on one panel's 15 values."""
    half = 0.5 * (b - a)
    k15 = half * float(_W_KRONROD @ y)
    g7 = half * float(_W_GAUSS @ y[1::2])
    resabs = half * float(_W_KRONROD @ np.abs(y))
    mean = k15 / (b - a)
    resasc = half * float(_W_KRONROD @ np.abs(y - mean))
    err = abs(k15 - g7)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return k15, max(err, 50.0 * _EPS * resabs)


def test_batched_panels_match_the_per_panel_arithmetic_bitwise():
    # a 2-D dot or matmul here goes through gemv and moves the last bit on
    # most panels; the batched pass must equal the 1-D dot of each row
    rng = np.random.default_rng(20261018)
    panels = 0
    for trial in range(660):
        n = (1, 2, 8)[trial % 3]
        y = rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-30, 30, size=(n, 1))
        kind = trial % 6
        if kind == 0:
            # smooth rows keep 200*err/resasc < 1, where the 1.5 power acts
            y = np.exp(rng.uniform(-4, 4, size=(n, 1)) * _NODES) * y[:, :1]
        elif kind == 1:
            y = np.abs(y)
        elif kind == 2:
            y[rng.integers(n)] = 0.0
        elif kind == 3:
            y[rng.integers(n)] = rng.uniform(-1, 1)  # constant row: resasc ~ 0
        elif kind == 4:
            y *= 10.0 ** rng.uniform(-5, 5, size=(n, 15))  # mixed scales in a row
        lo = rng.uniform(-10, 10, size=n)
        hi = lo + 10.0 ** rng.uniform(-6, 2, size=n)
        rows = iter(y)
        vals, errs = _eval_panels(lambda x: next(rows), lo, hi)
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            ref_val, ref_err = _reference_panel(y[i], a, b)
            assert (vals[i].hex(), errs[i].hex()) == (ref_val.hex(), ref_err.hex())
        panels += n
    assert panels >= 2000


def _counting(f):
    shapes = []

    def counted(x):
        shapes.append(x.shape)
        return f(x)

    return counted, shapes


def test_one_integrand_call_per_panel_when_converged_at_once():
    f, shapes = _counting(np.cos)
    integrate(f, 0.0, 1.0, _CFG)
    assert shapes == [(15,)] * 8


@pytest.mark.parametrize("k", [1, 3, 7])
def test_each_bisection_costs_two_integrand_calls(k):
    f, shapes = _counting(lambda x: np.abs(x - 0.3))
    with pytest.raises(NumericalError, match="budget"):
        integrate(f, 0.0, 1.0, QuadratureConfig(rel_tol=1e-15, max_subdivisions=k))
    assert shapes == [(15,)] * (8 + 2 * k)


def test_kinked_integrand_converges_after_exactly_k_bisections():
    kink = lambda x: np.abs(x - 0.3)
    f, shapes = _counting(kink)
    val, err = integrate(f, 0.0, 1.0, _CFG)
    k, odd = divmod(len(shapes) - 8, 2)
    assert k >= 1 and odd == 0
    assert shapes == [(15,)] * (8 + 2 * k)
    assert integrate(kink, 0.0, 1.0, QuadratureConfig(rel_tol=1e-10, max_subdivisions=k)) == (val, err)
    with pytest.raises(NumericalError, match="budget"):
        integrate(kink, 0.0, 1.0, QuadratureConfig(rel_tol=1e-10, max_subdivisions=k - 1))


def test_overflowing_panel_estimate_raises_numerical():
    # finite integrand values whose weighted sum leaves the float range
    with pytest.raises(NumericalError, match="float range") as exc:
        integrate(lambda x: np.full_like(x, 1e308), 0.0, 100.0, _CFG)
    assert exc.value.value is not None


def test_overflowing_total_raises_numerical():
    # every panel estimate is finite (5e307); their sum is not
    with pytest.raises(NumericalError, match="float range"):
        integrate(lambda x: np.full_like(x, 5e307), 0.0, 8.0, _CFG)


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
