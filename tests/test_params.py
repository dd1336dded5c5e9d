import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from becimpurity import (
    DomainError,
    ParameterDomainError,
    SystemParams,
    born_scattering_length,
    derive,
    effective_mass_closed,
    emission_window,
    energy_shift_closed,
    renormalized_coupling,
)


def test_defaults_derive_scattering_length_from_coupling():
    p = SystemParams(g=1.0)
    assert p.a == pytest.approx(0.5 / (2.0 * math.pi), rel=1e-15)


def test_scattering_length_only_derives_coupling():
    p = SystemParams(a=0.01)
    # g = 2 pi a / m_r with m_r = 1/2 at equal unit masses
    assert p.g == pytest.approx(4.0 * math.pi * 0.01, rel=1e-15)


def test_derived_quantities_unit_params():
    d = derive(SystemParams(g=1.0))
    assert d.c == 1.0
    assert d.q_c == 1.0
    assert d.m_r == 0.5
    assert [f.name for f in dataclasses.fields(d)] == ["c", "q_c", "m_r"]


def test_critical_momentum_scales_with_impurity_mass():
    d = derive(SystemParams(M=3.0, g=1.0))
    assert d.q_c == pytest.approx(3.0, rel=1e-15)
    assert d.m_r == pytest.approx(0.75, rel=1e-15)


def test_sound_speed_formula():
    d = derive(SystemParams(m=4.0, U0=9.0, g=1.0))
    assert d.c == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize("kw", [dict(), dict(m=4.0, U0=9.0), dict(n=1e-300, m=1e-10),
                                dict(n=1e150, U0=1e150, m=1e10), dict(m=1e-300, M=1e-300)])
def test_sound_speed_keeps_its_bits_where_n_u0_over_m_is_a_normal_float(kw):
    params = SystemParams(g=1.0, **kw)
    assert derive(params).c.hex() == math.sqrt(params.n * params.U0 / params.m).hex()


@pytest.mark.parametrize("kw", [
    dict(m=1e-310, M=1e-310),          # n*U0/m overflows: c was inf
    dict(n=1e-300, U0=1e-300),         # n*U0 underflows: c was 0.0
    dict(n=1e-200, U0=1e-120, m=1e-20),  # n*U0 is subnormal: c was 5e-6 off
])
def test_sound_speed_stays_in_range_where_n_u0_over_m_does_not(kw):
    params = SystemParams(g=1.0, **kw)
    d = derive(params)
    with mpmath.workdps(40):
        exact = mpmath.sqrt(mpmath.mpf(params.n) * mpmath.mpf(params.U0) / mpmath.mpf(params.m))
    assert abs(d.c - exact) <= 4.5e-16 * exact
    assert d.q_c == params.M * d.c


def test_a_sound_speed_in_range_mends_the_routes_that_read_it():
    # c = inf made the closed shift nan; c = q_c = 0 made a subcritical momentum
    # dissipative and the closed mass divide by zero
    assert math.isfinite(energy_shift_closed(SystemParams(m=1e-310, M=1e-310, g=1.0)))
    slow = SystemParams(n=1e-300, U0=1e-300, a=0.01)
    assert not emission_window(1e-305, slow).dissipative
    # sigma holds n/c, which is 1 here as at unit parameters
    assert effective_mass_closed(slow).correction == pytest.approx(
        effective_mass_closed(SystemParams(a=0.01)).correction, rel=1e-13)


def test_both_couplings_unset_rejected():
    with pytest.raises(ParameterDomainError):
        SystemParams()


def test_nonpositive_masses_rejected():
    with pytest.raises(ParameterDomainError, match="m"):
        SystemParams(m=0.0, g=1.0)
    with pytest.raises(ParameterDomainError, match="M"):
        SystemParams(M=-2.0, g=1.0)


def test_nonfinite_field_rejected():
    with pytest.raises(ParameterDomainError):
        SystemParams(n=math.inf, g=1.0)
    with pytest.raises(ParameterDomainError):
        SystemParams(g=math.nan)


def test_inconsistent_pair_warns():
    with pytest.warns(UserWarning):
        SystemParams(g=1.0, a=1.0)


def test_consistent_pair_is_silent(recwarn):
    a = 0.5 / (2.0 * math.pi)
    SystemParams(g=1.0, a=a)
    assert not recwarn.list


def test_zero_coupling_allowed():
    p = SystemParams(g=0.0)
    assert p.a == 0.0


def test_params_frozen():
    p = SystemParams(g=1.0)
    with pytest.raises(AttributeError):
        p.m = 2.0


# rows at the ends of the float range, and seeded log-uniform pairs in [1e-3, 1e3]
_RANDOM_MASSES = np.random.default_rng(20261019).uniform(-3.0, 3.0, size=(20, 2))
_MASS_PAIRS = [(1.0, 1.0), (1.0, 3e-308), (3e-308, 2.0), (1e-300, 1e-300), (1e300, 5.0),
               (1.0, 1e-310), (1e-310, 1.0), (2e-310, 1e-310), (1e-315, 1e-320)] + [
    (float(f"{10.0 ** x:.4g}"), float(f"{10.0 ** y:.4g}")) for x, y in _RANDOM_MASSES.tolist()]


@pytest.mark.parametrize("m, M", _MASS_PAIRS)
def test_reduced_mass_is_within_two_roundings_of_the_exact_quotient(m, M):
    # with subnormal masses, 1/m or 1/M overflowed, so m_r was 0.0: a = 0.0
    # from g, or a ZeroDivisionError from a
    params = SystemParams(m=m, M=M, g=1.0)
    exact = float(Fraction(m) * Fraction(M) / (Fraction(m) + Fraction(M)))
    m_r = derive(params).m_r
    # two roundings, in ulps of the normal floats or of the subnormal spacing 5e-324
    assert m_r > 0.0 and abs(m_r - exact) <= 2.0 * 5e-324 + 4.5e-16 * exact
    assert params.a == params.g * m_r / (2.0 * math.pi) > 0.0
    assert SystemParams(m=m, M=M, a=1e-320).g == 2.0 * math.pi * 1e-320 / m_r


@pytest.mark.parametrize("mass, half", [(1e300, 5e299), (1e-310, 5e-311)])
def test_reduced_mass_of_equal_masses_is_exactly_half_at_the_ends_of_the_range(mass, half):
    # at 1e300 the sum 1/m + 1/M rounds, and at 1e-310 each reciprocal overflows
    assert derive(SystemParams(m=mass, M=mass, g=1.0)).m_r == half


def test_born_scattering_length():
    assert born_scattering_length(1.0, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
    assert born_scattering_length(2.0, 3.0) == pytest.approx(6.0 / (4.0 * math.pi), rel=1e-15)


def test_renormalized_coupling_affine_in_cutoff():
    a, m_r = 0.01, 0.5
    g0 = renormalized_coupling(a, m_r, 0.0)
    assert g0 == pytest.approx(2.0 * math.pi * a / m_r, rel=1e-15)
    g1 = renormalized_coupling(a, m_r, 100.0)
    g2 = renormalized_coupling(a, m_r, 200.0)
    # linear counterterm: equal increments per cutoff increment
    assert g2 - g1 == pytest.approx(g1 - g0, rel=1e-12)


def test_renormalized_coupling_negative_cutoff_rejected():
    with pytest.raises(DomainError):
        renormalized_coupling(0.01, 0.5, -1.0)
