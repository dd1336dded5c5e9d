"""Lattice kernels against a pure-Python reference sum.

The reference visits every lattice mode in a scalar triple loop, applies the
same per-element formulas as the numpy slab kernels, and sums with math.fsum,
so any disagreement beyond rounding is a kernel bug.
"""

import math

import pytest

from becimpurity import BoxOracleConfig, ConfigurationError, SystemParams, box_rate
from becimpurity import _kernels

# n_max kept small so the pure-python reference loop stays fast
_ARGS = (15, 2.0 * math.pi / 30.0, 9.0, 1.0, 1.0, 1.0, 1.0, 2.0)
_SUB_ARGS = (15, 2.0 * math.pi / 30.0, 9.0, 1.0, 1.0, 1.0, 1.0, 0.5)


def _reference_sum(summand, n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """math.fsum of summand(w, eps, omega) over the modes 0 < |p|**2 <= p_cut2."""
    terms = []
    for nx in range(-n_max, n_max + 1):
        for ny in range(-n_max, n_max + 1):
            for nz in range(-n_max, n_max + 1):
                n2 = nx * nx + ny * ny + nz * nz
                p2 = n2 * dk * dk
                if n2 == 0 or p2 > p_cut2:
                    continue
                eps = math.sqrt(p2 * (p2 + 4.0 * m * nU0)) / (2.0 * m)
                w = g2n * p2 / (2.0 * m * eps)
                om = eps + p2 / (2.0 * M_imp) - q_i * dk * nz / M_imp
                terms.append(summand(w, eps, om))
    return math.fsum(terms)


def _finite_time_term(t):
    def term(w, _eps, om):
        z = om * t
        if abs(z) < 1e-4:
            return w * t * t * (1.0 - z * z / 12.0)
        return w * 4.0 * math.sin(0.5 * z) ** 2 / (om * om)

    return term


def _matches(got, summand, args):
    # abs=0: the finite-time sums at small t are far below pytest's default abs
    return got == pytest.approx(_reference_sum(summand, *args), rel=1e-12, abs=0.0)


def test_lorentzian_sums_match_reference():
    eta2 = 0.05 * 0.05
    s_t, s_e = _kernels.lorentzian_sums(*_ARGS, 0.05)
    assert _matches(s_t, lambda w, e, om: w / (om * om + eta2), _ARGS)
    assert _matches(s_e, lambda w, e, om: w / (om * om + eta2) * e, _ARGS)


def test_finite_time_sum_matches_reference():
    # every mode takes the series branch at t = 1e-7 and the oscillatory one
    # at t = 5; t = 2e-5 splits the modes between the two
    for t in (1e-7, 2e-5, 5.0):
        assert _matches(_kernels.finite_time_sum(*_ARGS, t), _finite_time_term(t), _ARGS)


def test_inverse_square_sum_matches_reference():
    got = _kernels.inverse_square_sum(*_SUB_ARGS)
    assert _matches(got, lambda w, e, om: 4.0 * w / (om * om), _SUB_ARGS)


def test_lattice_point_count():
    assert _kernels.lattice_points(2) == 125
    assert _kernels.lattice_points(0) == 1


def test_active_backend_is_valid():
    assert _kernels.ACTIVE_BACKEND == "numpy"


def test_box_config_validation():
    with pytest.raises(ConfigurationError):
        BoxOracleConfig(L=0.0)
    with pytest.raises(ConfigurationError):
        BoxOracleConfig(eta=-0.1)
    with pytest.raises(ConfigurationError):
        BoxOracleConfig(p_cut=0.0)


def test_box_rate_requires_cut_beyond_window():
    params = SystemParams(g=1.0)
    with pytest.raises(ConfigurationError, match="p_cut"):
        box_rate(2.0, params, BoxOracleConfig(L=30.0, eta=0.05, p_cut=1.4))


def test_box_rate_point_budget_guard():
    params = SystemParams(g=1.0)
    big = BoxOracleConfig(L=1e4, eta=0.05, p_cut=3.0)
    with pytest.raises(ConfigurationError, match="budget"):
        box_rate(2.0, params, big)
