"""Near-threshold accuracy of the window and the closed rates, against mpmath.

The box is 13 mass ratios M/m in [1e-6, 1e6] times 60 gaps q_i/q_c - 1 in
[1e-12, 10], at m = n = U0 = g = 1, where c = 1 and q_c = M. The reference
evaluates the textbook closed form, eps(p_max) - m*c**2*log1p(...), with
enough digits that its cancellation still leaves 50 correct ones.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becimpurity import (
    SystemParams,
    max_emission_momentum,
    transition_rate,
    transition_rate_asymptotic,
    transition_rate_quadrature,
)

MASSES = [10.0**k for k in range(-6, 7)]
GAPS = np.geomspace(1e-12, 10.0, 60)


def _reference(q_i: float, M: float):
    """(p_max, gamma_T, gamma_E) at unit m, n, U0, g, to at least 50 digits."""
    with mpmath.workdps(150):  # the log form loses up to ~40 digits near threshold
        q, M = mpmath.mpf(q_i), mpmath.mpf(M)
        gap = (q - M) * (q + M)
        p = 2 * gap / (q + mpmath.sqrt(M * M + M * M * gap))  # r = M/m = M, q_c = M
        eps = p / 2 * mpmath.sqrt(p * p + 4)
        gamma_T = M / (2 * mpmath.pi * q) * (eps - mpmath.log1p(eps + p * p / 2))
        gamma_E = M * p**4 / (16 * mpmath.pi * q)
        return p, gamma_T, gamma_E


def _rel(value: float, ref) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


@pytest.mark.parametrize("M", MASSES)
def test_closed_rates_match_mpmath_down_to_threshold(M):
    params = SystemParams(g=1.0, M=M)
    q = M * (1.0 + GAPS)
    r = transition_rate(q, params)
    assert (r.gamma_T > 0.0).all() and (r.gamma_E > 0.0).all()
    for q_i, gamma_T, gamma_E in zip(q.tolist(), r.gamma_T.tolist(), r.gamma_E.tolist()):
        _, ref_T, ref_E = _reference(q_i, M)
        assert _rel(gamma_T, ref_T) <= 1e-13, (q_i, gamma_T)
        assert _rel(gamma_E, ref_E) <= 1e-13, (q_i, gamma_E)


@pytest.mark.parametrize("M", MASSES)
def test_p_max_matches_mpmath_down_to_threshold(M):
    params = SystemParams(g=1.0, M=M)
    q = M * (1.0 + GAPS)
    for q_i, p_max in zip(q.tolist(), max_emission_momentum(q, params).tolist()):
        assert _rel(p_max, _reference(q_i, M)[0]) <= 2e-15, (q_i, p_max)


@pytest.mark.parametrize("M", MASSES)
def test_rates_are_exact_zeros_at_and_below_threshold(M):
    params = SystemParams(g=1.0, M=M)
    q = np.concatenate(([M, np.nextafter(M, 0.0)], M / (1.0 + GAPS)))
    for route in (transition_rate, transition_rate_quadrature):
        r = route(q, params)
        assert r.gamma_T.tolist() == r.gamma_E.tolist() == [0.0] * q.size


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.floats(-6.0, 6.0), st.floats(-12.0, 1.0))
def test_closed_and_quadrature_agree_over_the_box(log_mass, log_gap):
    M, gap = 10.0**log_mass, 10.0**log_gap
    params = SystemParams(g=1.0, M=M)
    closed = transition_rate(np.array([M * (1.0 + gap), M / (1.0 + gap)]), params)
    quad = transition_rate_quadrature(np.array([M * (1.0 + gap), M / (1.0 + gap)]), params)
    for r in (closed, quad):
        assert np.isfinite([r.gamma_T, r.gamma_E, r.smallness]).all()
        assert r.gamma_T[0] > 0.0 and r.gamma_E[0] > 0.0
        assert r.gamma_T[1] == r.gamma_E[1] == 0.0
    assert quad.gamma_T[0] == pytest.approx(closed.gamma_T[0], rel=1e-8)
    assert quad.gamma_E[0] == pytest.approx(closed.gamma_E[0], rel=1e-8)


def test_threshold_asymptote_whose_coupling_product_overflows_stays_finite():
    # 2*n*g*g overflows before the division by 3*pi*m*c**2; the rate, about 4.48e306, does not
    rate = transition_rate_asymptotic(1.5, SystemParams(g=1.3e154), "threshold")
    with mpmath.workdps(50):
        ref = 2 * mpmath.mpf(1.3e154) ** 2 / (3 * mpmath.pi) * mpmath.mpf(0.5) ** 3
    assert math.isfinite(rate) and _rel(rate, ref) <= 1e-14
