import math

import mpmath
import numpy as np
import pytest

from becimpurity import (
    DomainError,
    NumericalError,
    SingularityError,
    SystemParams,
    coupling_weight,
    dispersion,
    derive,
    transform_coefficients,
)
from becimpurity.bogoliubov import _energy_scales, _mass_series, _pow, _scale, _sinh_series, _structure_factor

UNIT = SystemParams(g=1.0)


def test_dispersion_reference_point():
    # eps(2) = sqrt(2^2/4 * (2^2 + 4)) = 2 sqrt(2)
    assert dispersion(2.0, UNIT) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


def test_dispersion_zero_momentum():
    assert dispersion(0.0, UNIT) == 0.0


def test_dispersion_phonon_limit():
    p = 1e-3
    assert dispersion(p, UNIT) / p == pytest.approx(1.0, abs=1e-6)


def test_dispersion_free_particle_limit():
    p = 1e4
    assert dispersion(p, UNIT) / (p * p / 2.0) == pytest.approx(1.0, abs=1e-7)


def test_dispersion_no_overflow_at_extreme_momentum():
    # naive sqrt(p**2 (p**2 + (2mc)**2)) would overflow here; hypot does not
    p = 1e154
    val = dispersion(p, UNIT)
    assert np.isfinite(val)
    assert val == pytest.approx(p * p / 2.0, rel=1e-12)


def test_transform_reference_point():
    co = transform_coefficients(2.0, UNIT)
    assert co.mu == pytest.approx(-3.0 - 2.0 * math.sqrt(2.0), rel=1e-14)
    assert co.alpha == pytest.approx(-1.0150517651282178, rel=1e-12)
    assert co.beta == pytest.approx(0.17415534987450326, rel=1e-12)


def test_transform_normalization():
    # alpha^2 - beta^2 = 1, the Bogoliubov hyperbolic constraint
    for p in (1e-3, 0.1, 1.0, 2.0, 50.0):
        co = transform_coefficients(p, UNIT)
        assert co.alpha**2 - co.beta**2 == pytest.approx(1.0, abs=1e-12)


def test_transform_signs_and_limits():
    co = transform_coefficients(0.5, UNIT)
    assert co.alpha < -1.0
    assert co.beta > 0.0
    # UV: beta -> 0, alpha -> -1
    hi = transform_coefficients(400.0, UNIT)
    assert abs(hi.beta) < 1e-4
    assert hi.alpha == pytest.approx(-1.0, abs=1e-4)


def test_transform_singular_at_zero():
    with pytest.raises(SingularityError):
        transform_coefficients(0.0, UNIT)


def test_coupling_weight_reference_point():
    # w(2) = p^2/(2 eps) = 4/(4 sqrt 2) = 1/sqrt(2) at unit coupling
    assert coupling_weight(2.0, UNIT) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_coupling_weight_zero_momentum_vanishes():
    assert coupling_weight(0.0, UNIT) == 0.0


def test_structure_factor_vanishes_at_rest_and_stays_in_the_unit_interval():
    _, two_mc = _energy_scales(SystemParams(M=0.3, m=2.0, n=0.7, U0=1.7, g=0.4))
    s = _structure_factor(two_mc)(np.concatenate(([0.0], np.geomspace(1e-300, 1e300, 61))))
    assert s[0] == 0.0 and bool(((0.0 < s[1:]) & (s[1:] <= 1.0)).all())
    # S = p**2/(2m*eps) = 1/sqrt(2) at p = 2mc
    _, two_mc = _energy_scales(UNIT)
    assert _structure_factor(two_mc)(2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_coupling_weight_saturates_at_g2n():
    assert coupling_weight(1e5, UNIT) == pytest.approx(1.0, abs=1e-8)


def test_coupling_weight_scales_with_g_squared():
    w1 = coupling_weight(1.3, UNIT)
    w3 = coupling_weight(1.3, SystemParams(g=3.0))
    assert w3 == pytest.approx(9.0 * w1, rel=1e-14)


def test_vectorized_matches_scalar():
    grid = np.array([0.3, 1.0, 2.5])
    eps = dispersion(grid, UNIT)
    co = transform_coefficients(grid, UNIT)
    w = coupling_weight(grid, UNIT)
    for i, p in enumerate(grid):
        assert eps[i] == dispersion(float(p), UNIT)
        assert co.alpha[i] == transform_coefficients(float(p), UNIT).alpha
        assert w[i] == coupling_weight(float(p), UNIT)


def test_vectorized_weight_handles_zero_entry():
    w = coupling_weight(np.array([0.0, 1.0]), UNIT)
    assert w[0] == 0.0
    assert w[1] > 0.0


def test_negative_and_nonfinite_momentum_rejected():
    with pytest.raises(DomainError):
        dispersion(-1.0, UNIT)
    with pytest.raises(DomainError):
        dispersion(math.nan, UNIT)
    with pytest.raises(DomainError):
        coupling_weight(np.array([1.0, -2.0]), UNIT)


# pytest turns every RuntimeWarning into an error, so these also pin that no
# overflow warning escapes on the way to the NumericalError


@pytest.mark.parametrize("p", [1e155, np.array([1.0, 1e155, 1e160])])
def test_dispersion_beyond_the_float_range_raises_numerical(p):
    with pytest.raises(NumericalError, match=r"excitation energy at p = 1e\+155 leaves the float range"):
        dispersion(p, UNIT)


# the transform leaves the float range at p = 1e155 with eps; the weight is
# g**2*n*S(p) with S <= 1, so only a coupling whose g**2*n does can take it out
@pytest.mark.parametrize("route, params", [(transform_coefficients, UNIT),
                                           (coupling_weight, SystemParams(g=1e200))],
                         ids=["transform_coefficients", "coupling_weight"])
def test_transform_and_weight_beyond_the_float_range_raise_numerical(route, params):
    with pytest.raises(NumericalError, match="float range"):
        route(1e155, params)
    with pytest.raises(NumericalError, match="float range"):
        route(np.array([1.0, 1e155]), params)


def test_weight_overflowing_in_its_own_arithmetic_raises_numerical():
    # g**2*n*S is finite at p = 1 (S = 0.447) and not at p = 1e60 (S = 1)
    with pytest.raises(NumericalError, match=r"coupling weight at p = 1e\+60"):
        coupling_weight(np.array([1.0, 1e60]), SystemParams(g=1.5e154))
    # g**2 alone overflows: a NumericalError, not Python's OverflowError
    with pytest.raises(NumericalError, match=r"coupling weight at p = 1.0 "):
        coupling_weight(1.0, SystemParams(g=1e200))


def test_weight_is_in_range_wherever_its_value_is():
    # formed as g**2*n*p*p/(2*m*eps), these raised where p*p, eps or g**2*n overflow
    assert coupling_weight(1e155, UNIT) == 1.0
    assert coupling_weight(1e300, UNIT) == 1.0
    w = coupling_weight(np.array([1.0, 1e60]), SystemParams(g=1e100))
    assert w[0] == pytest.approx(1e200 / math.sqrt(5.0), rel=1e-15) and w[1] == 1e200
    assert coupling_weight(1e-30, SystemParams(n=1e300, U0=1e-300, g=1e10)) == pytest.approx(5e289, rel=1e-15)
    # w(0) = 0 at every coupling, also where g*g overflows
    assert coupling_weight(0.0, SystemParams(g=1e200)) == 0.0


@pytest.mark.parametrize("params", [UNIT, SystemParams(M=0.3, m=2.0, n=0.7, U0=1.7, g=0.4),
                                    SystemParams(a=0.01)], ids=["unit", "mixed", "dilute"])
def test_weight_matches_the_structure_factor_in_mpmath(params):
    # w = g**2*n*p**2/(2*m*eps(p)), eps from the 40-digit square root
    m, c = mpmath.mpf(params.m), mpmath.mpf(derive(params).c)
    p = np.geomspace(1e-6, 1e6, 400)
    w = coupling_weight(p, params)
    with mpmath.workdps(40):
        for p_j, w_j in zip(p.tolist(), w.tolist()):
            x = mpmath.mpf(p_j)
            eps = x / (2 * m) * mpmath.sqrt(x * x + (2 * m * c) ** 2)
            want = mpmath.mpf(params.g) ** 2 * params.n * x * x / (2 * m * eps)
            assert abs(w_j - want) <= 1e-15 * want, p_j


@pytest.mark.parametrize("p", [1e78, 1e100, 1e150])
def test_transform_stays_exact_where_s_times_s_plus_2_overflows(p):
    # s = (eps + p**2/2m)/(n U0) is about p**2; alpha -> -1 and beta -> 1/s,
    # which used to come back as -0 and 0
    co = transform_coefficients(p, UNIT)
    s = (dispersion(p, UNIT) + p * p / 2.0) / 1.0
    assert co.mu == -(1.0 + s)
    assert co.alpha == pytest.approx(-1.0, rel=1e-15)
    assert co.beta == pytest.approx(1.0 / s, rel=1e-15)
    batch = transform_coefficients(np.array([2.0, p]), UNIT)
    assert batch.alpha[1] == co.alpha and batch.beta[1] == co.beta
    assert batch.alpha[0] == transform_coefficients(2.0, UNIT).alpha


def test_sinh_tail_is_the_horner_series_the_rates_always_used():
    # bit for bit the polyval form of (sinh(u) - u)/u**3 below u = 1; I0 multiplies
    # it by u**3 from libm pow, and the closed rates pass u to the scale three times
    u = np.linspace(1e-3, 1.0, 257)
    coeffs = [1.0 / math.factorial(j) for j in range(19, 2, -2)]
    want = np.polyval(coeffs, u * u)
    assert [v.hex() for v in _sinh_series(u * u).tolist()] == [v.hex() for v in want.tolist()]


def _odd_tail(series, first):
    """tail(u, z) = u**first * series(z), the cancelling closed form the series stands for."""
    def tail(u, z):
        return _pow(u, first) * series(z)
    return tail


@pytest.mark.parametrize("tail, cut, hyperbolic, trigonometric", [
    (_odd_tail(_sinh_series, 3), 1.0, lambda u: mpmath.sinh(u) - u, lambda u: u - mpmath.sin(u)),
    (_odd_tail(_mass_series, 5), 3.0, lambda u: (2 + mpmath.cosh(u)) * u - 3 * mpmath.sinh(u),
     lambda u: (2 + mpmath.cos(u)) * u - 3 * mpmath.sin(u)),
])
def test_odd_tails_match_their_closed_forms_below_the_cut(tail, cut, hyperbolic, trigonometric):
    with mpmath.workdps(60):
        for u in np.geomspace(1e-8, cut, 97).tolist():
            for z, exact in ((u * u, hyperbolic), (-u * u, trigonometric)):
                ref = exact(mpmath.mpf(u))
                assert float(abs((tail(u, z) - ref) / ref)) <= 1e-15, (u, z)


def test_scale_has_the_plain_bits_on_both_of_its_paths():
    # an entry whose plain product overflows part way sends the whole array to the
    # frexp mantissas, where the other entries keep the plain expression's bits
    x = np.exp(np.random.default_rng(3).uniform(-50.0, 50.0, (4, 200)))
    plain = _scale(x[0], 3.0, x[1], over=(x[2], 0.7), times=(x[3],))
    assert plain.tobytes() == (x[0] * 3.0 * x[1] / (x[2] * 0.7) * x[3]).tobytes()
    rows = [np.append(row, extra) for row, extra in zip(x, (1e200, 1e200, 1e200, 1e-200))]
    parts = _scale(rows[0], 3.0, rows[1], over=(rows[2], 0.7), times=(rows[3],))
    assert parts[:-1].tobytes() == plain.tobytes()
    assert parts[-1] == pytest.approx(3.0 / 0.7, rel=1e-15)
