"""Exact unit covariance of the renormalized shift and the stencil and quadrature masses.

Change the mass unit by 2**a and the momentum unit by 2**b: m and M scale
by 2**a, n by 2**(3b), U0 by 2**-(a+b), the scattering length by 2**-b,
and momenta and cutoffs by 2**b. Energies then scale by 2**(2b - a) and
the mass correction M/M_ef - 1 does not change. Scaling by a power of two
is exact in binary floating point, so a route written in the system's own
scales returns exactly the scaled bits wherever the scaled values are
normal floats, as they are over this table.
"""

import math

import pytest

from becimpurity import (
    SystemParams,
    derive,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_shift_quadrature,
)

_TABLE = [(a, b) for a in (-40, -3, 0, 5, 60) for b in (-8, 0, 8, 30, 100, 300)]


def _system(a: int, b: int) -> SystemParams:
    """m = 1, M = 1.7, n = 0.9, U0 = 1.3, a = 0.02 in a mass unit 2**a and a momentum unit 2**b smaller."""
    return SystemParams(
        m=2.0**a, M=1.7 * 2.0**a, n=0.9 * 2.0 ** (3 * b), U0=1.3 * 2.0 ** -(a + b), a=0.02 * 2.0**-b)


def _shift(params: SystemParams, b: int) -> float:
    return energy_shift_quadrature(0.3 * derive(params).q_c, params, 50.0 * 2.0**b)


@pytest.mark.parametrize("a, b", _TABLE)
def test_shift_and_stencil_mass_follow_a_change_of_units_bit_for_bit(a, b):
    # the stencil took its cutoff 4000 in the caller's momentum unit: its
    # correction drifted from -6.343e-4 and had the wrong sign from b = 30.
    # The quadrature mass integrated p**6 over a cube in p/mc: it raised at
    # b = 300, where p**6 overflows, and was 0.7% off at a = -40, b = 100
    base, scaled = _system(0, 0), _system(a, b)
    for mass in (effective_mass_finite_difference, effective_mass_quadrature):
        assert mass(scaled).correction.hex() == mass(base).correction.hex()
    assert _shift(scaled, b).hex() == math.ldexp(_shift(base, 0), 2 * b - a).hex()
