"""Exact unit covariance of the self-energy routes, the closed rates and the window.

Change the mass unit by 2**a and the momentum unit by 2**b: m and M scale
by 2**a, n by 2**(3b), U0 by 2**-(a+b), the scattering length by 2**-b,
and momenta and cutoffs by 2**b. Energies then scale by 2**(2b - a) and
the mass correction M/M_ef - 1 does not change. Scaling by a power of two
is exact in binary floating point, so a route written in the system's own
scales returns exactly the scaled bits wherever the scaled values are
normal floats, as they are over this table.
"""

import math
import sys

import numpy as np
import pytest

from becimpurity import (
    SystemParams,
    derive,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_shift_closed,
    energy_shift_quadrature,
    energy_spectrum,
    max_emission_momentum,
    mean_field_shift,
    transition_rate,
)

_TABLE = [(a, b) for a in (-40, -3, 0, 5, 60) for b in (-8, 0, 8, 30, 100, 300)]


def _system(a: int, b: int) -> SystemParams:
    """m = 1, M = 1.7, n = 0.9, U0 = 1.3, a = 0.02 in a mass unit 2**a and a momentum unit 2**b smaller."""
    return SystemParams(
        m=2.0**a, M=1.7 * 2.0**a, n=0.9 * 2.0 ** (3 * b), U0=1.3 * 2.0 ** -(a + b), a=0.02 * 2.0**-b)


def _shift(params: SystemParams, b: int) -> float:
    return energy_shift_quadrature(0.3 * derive(params).q_c, params, 50.0 * 2.0**b)


def _spectrum(params: SystemParams) -> float:
    return energy_spectrum(0.3 * derive(params).q_c, params)[0].energy


@pytest.mark.parametrize("a, b", _TABLE)
def test_shift_and_stencil_mass_follow_a_change_of_units_bit_for_bit(a, b):
    # the stencil took its cutoff 4000 in the caller's momentum unit: its
    # correction drifted from -6.343e-4 and had the wrong sign from b = 30.
    # The quadrature mass integrated p**6 over a cube in p/mc: it raised at
    # b = 300, where p**6 overflows, and was 0.7% off at a = -40, b = 100
    base, scaled = _system(0, 0), _system(a, b)
    for mass in (effective_mass_closed, effective_mass_finite_difference, effective_mass_quadrature):
        assert mass(scaled).correction.hex() == mass(base).correction.hex()
    assert _shift(scaled, b).hex() == math.ldexp(_shift(base, 0), 2 * b - a).hex()
    for energy in (mean_field_shift, energy_shift_closed, _spectrum):
        assert energy(scaled).hex() == math.ldexp(energy(base), 2 * b - a).hex()


def _ldexp(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _normal(x: float) -> bool:
    return sys.float_info.min <= abs(x) < math.inf


_RATE_V = np.array([1.0001, 1.01, 1.5, 3.0, 30.0])


def test_closed_rates_and_window_follow_a_change_of_units_bit_for_bit():
    # m = 1, M = 1.7, n = 0.9, U0 = 1.3, g = 0.7 in a mass unit 2**a and a momentum unit
    # 2**b smaller, a from -1000 to 1000 and b from -500 to 500: g scales as U0, gamma_T
    # as an energy, gamma_E as its square and p_max as a momentum. The points kept are
    # those where every input and both scaled rates are normal floats; before the routes
    # worked in v, r and s_max with every unit applied last, 371 of the 615 were exact
    base = SystemParams(m=1.0, M=1.7, n=0.9, U0=1.3, g=0.7)
    q0 = _RATE_V * derive(base).q_c
    r0, p0 = transition_rate(q0, base), max_emission_momentum(q0, base)
    kept = 0
    for a in range(-1000, 1001, 100):
        for b in range(-500, 501, 50):
            inputs = [_ldexp(x, e) for x, e in ((1.0, a), (1.7, a), (0.9, 3 * b), (1.3, -(a + b)),
                                                  (0.7, -(a + b)))]
            want = [[_ldexp(x, e) for x in column.tolist()] for column, e in (
                (r0.gamma_T, 2 * b - a), (r0.gamma_E, 4 * b - 2 * a), (p0, b), (q0, b))]
            rows = [i for i in range(_RATE_V.size) if all(map(_normal, inputs))
                    and all(_normal(column[i]) for column in (want[0], want[1], want[3]))]
            if not rows:
                continue
            kept += len(rows)
            m, M, n, U0, g = inputs
            params = SystemParams(m=m, M=M, n=n, U0=U0, g=g)
            q = np.array([want[3][i] for i in rows])
            r = transition_rate(q, params)
            got = [r.gamma_T.tolist(), r.gamma_E.tolist(), max_emission_momentum(q, params).tolist()]
            for column, expected in zip(got, want):
                assert [x.hex() for x in column] == [expected[i].hex() for i in rows], (a, b)
    assert kept == 615
