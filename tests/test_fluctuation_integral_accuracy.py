"""I0 and I1 against 60-digit mpmath, over the whole range of mass ratios.

The reference evaluates the textbook closed forms, with acosh above the
equal-mass point and acos below it. Near x = 1 they cancel by up to ~30
digits, which still leaves 30 correct ones.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becimpurity import I0, I1, SystemParams, derive, effective_mass_closed, energy_shift_closed

RATIOS = np.concatenate([
    np.geomspace(1e-6, 1e6, 1200),
    1.0 + np.geomspace(1e-12, 0.1, 300),
    1.0 - np.geomspace(1e-12, 0.1, 300),
]).tolist()
_SMALLEST_NORMAL = 2.2250738585072014e-308


def _reference(x: float):
    """(I0(x), I1(x)) to at least 30 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        if x == 1:
            return mpmath.mpf(4) / 3, mpmath.mpf(2) / 15
        s = mpmath.sqrt(abs((x - 1) * (x + 1)))
        angle = mpmath.acosh(x) if x > 1 else mpmath.acos(x)
        i0 = (x * s - angle) / ((x - 1) * s)
        i1 = ((1 + 2 * x * x) * angle - 3 * x * s) / (2 * s**5)
        return i0, i1


def _rel(value: float, ref) -> float:
    with mpmath.workdps(60):
        return float(abs(mpmath.mpf(value) - ref) / ref)


def _assert_accurate(x: float):
    ref0, ref1 = _reference(x)
    v0, v1 = I0(x), I1(x)
    assert math.isfinite(v0) and math.isfinite(v1), x
    assert _rel(v0, ref0) <= 1e-14, (x, v0)
    if ref1 >= _SMALLEST_NORMAL:
        assert _rel(v1, ref1) <= 1e-14, (x, v1)
    else:  # subnormal or below: rounded to the subnormal grid, 0.0 only where the value underflows
        assert float(abs(v1 - ref1)) <= 5e-324 + 1e-14 * float(ref1), (x, v1)


@pytest.mark.parametrize("chunk", range(6))
def test_integrals_match_mpmath_on_the_grid(chunk):
    for x in RATIOS[chunk::6]:
        _assert_accurate(x)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.floats(-1e-3, 1e-3).map(lambda e: 1.0 + e),
).filter(lambda x: x > 0.0))
def test_integrals_match_mpmath_for_every_positive_ratio(x):
    _assert_accurate(x)


def test_integrals_at_extreme_ratios():
    assert I0(1e200) == 1.0
    assert _rel(I1(1e62), _reference(1e62)[1]) <= 1e-14
    # the true value, about 1e-598, is below the smallest subnormal
    assert I1(1e200) == 0.0
    for x in (1e155, 1.7976931348623157e308, 5e-324):
        assert math.isfinite(I0(x)) and math.isfinite(I1(x))


def test_closed_results_stay_finite_at_extreme_mass_ratios():
    assert math.isfinite(effective_mass_closed(SystemParams(a=0.01, M=1e-62)).M_ef)
    assert math.isfinite(energy_shift_closed(SystemParams(a=0.01, M=1e-160)))


def _closed_sigma(params: SystemParams):
    """(16/3)*(n*a**2/(M*c))*(m/m_r)**2*I1(m/M) to at least 30 digits, from the package's c."""
    with mpmath.workdps(60):
        n, a, m, M, c = (mpmath.mpf(v) for v in (params.n, params.a, params.m, params.M, derive(params).c))
        i1 = _reference(params.m / params.M)[1]
        return mpmath.mpf(16) / 3 * n * a * a / (M * c) * ((m + M) / M) ** 2 * i1


@pytest.mark.parametrize("a, M", [
    (0.01, 1e-100), (0.01, 1e-103), (0.01, 1e-160), (0.01, 1e-300),
    (1e-10, 1e-103), (1e-10, 2e-109), (1e-10, 1e-200),
])
def test_closed_mass_matches_mpmath_where_I1_leaves_the_normal_floats(a, M):
    # I1(m/M) is subnormal from m/M of about 2.2e103: the mass is then formed from s**3*I1
    params = SystemParams(a=a, M=M)
    assert _rel(-effective_mass_closed(params).correction, _closed_sigma(params)) <= 1e-14
