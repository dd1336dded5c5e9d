import math
import warnings

import mpmath
import numpy as np
import pytest

from becimpurity import (
    DomainError,
    I0,
    I1,
    NumericalError,
    PerturbativeBreakdownError,
    SystemParams,
    derive,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_shift_closed,
    energy_shift_quadrature,
    energy_spectrum,
    integrate_semi_infinite,
    mean_field_shift,
    second_derivative,
    selfenergy,
)

WEAK = SystemParams(a=0.01)


def test_branch_integrals_at_equal_masses():
    # the equal-mass point, where both closed forms are 0/0, is exact
    assert I0(1.0) == 4.0 / 3.0
    assert I1(1.0) == 2.0 / 15.0


def test_branch_integrals_reference_points():
    assert I0(2.0) == pytest.approx(1.2396540036990538, rel=1e-12)
    assert I1(2.0) == pytest.approx(0.046839664817139776, rel=1e-12)


def test_branch_integrals_light_impurity_endpoints():
    # x -> 0: I0 -> pi/2, I1 -> pi/4
    assert abs(I0(1e-10) - math.pi / 2.0) <= 1e-9
    assert abs(I1(1e-10) - math.pi / 4.0) <= 1e-9


def test_branch_integrals_monotone_decreasing():
    xs = np.geomspace(1e-3, 10.0, 51)
    v0 = [I0(x) for x in xs]
    v1 = [I1(x) for x in xs]
    assert all(b < a for a, b in zip(v0, v0[1:]))
    assert all(b < a for a, b in zip(v1, v1[1:]))


def _cut_neighbours(x: float, cut: float):
    """Adjacent floats (a, b) near x with rapidity u(a) < cut <= u(b).

    u = 2*acosh(x) above the equal-mass point and 2*acos(x) below it, as in
    I0 and I1, so a takes the odd Taylor tail and b the closed expression.
    """
    u = (lambda v: 2.0 * math.acosh(v)) if x > 1.0 else (lambda v: 2.0 * math.acos(v))
    a, b = x * (1.0 - 1e-9), x * (1.0 + 1e-9)
    if u(a) >= cut:
        a, b = b, a
    assert u(a) < cut <= u(b)
    while math.nextafter(a, b) != b:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if u(mid) < cut else (a, mid)
    return a, b


def test_branch_integrals_seam_continuity():
    # on both sides of the equal-mass point, the odd Taylor tail and the
    # closed expression meet within a few ulps at the rapidity cut: u = 1
    # for I0 and u = 3 for I1
    for integral, cut in ((I0, 1.0), (I1, 3.0)):
        for x in (math.cosh(cut / 2.0), math.cos(cut / 2.0)):
            a, b = _cut_neighbours(x, cut)
            assert abs(integral(b) - integral(a)) <= 8 * math.ulp(integral(a)), (integral, a, b)


def test_branch_integrals_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            I0(bad)
        with pytest.raises(DomainError):
            I1(bad)


def test_mean_field_shift_value():
    # 2 pi n a / m_r with m_r = 1/2
    assert mean_field_shift(WEAK) == pytest.approx(0.04 * math.pi, rel=1e-14)


def test_energy_shift_closed_value():
    expected = 0.04 * math.pi + 16.0 / 7500.0
    assert energy_shift_closed(WEAK) == pytest.approx(expected, rel=1e-14)


def _subtracted_shift(q_i: float, params: SystemParams, cutoff: float):
    """2*pi*n*a/m_r + (n*a**2/(m*m_r**2)) * int_0^cutoff (4*m*m_r - f(p, q_i)) dp, 40 digits.

    Integrated in the physical momentum p, with breakpoints at 2mc*10**j from
    j = -3 up, so that it checks the package's reduction to s = p/2mc on its own.
    """
    with mpmath.workdps(40):
        n, a, m, M = (mpmath.mpf(v) for v in (params.n, params.a, params.m, params.M))
        c, q = mpmath.sqrt(n * mpmath.mpf(params.U0) / m), mpmath.mpf(q_i)
        m_r = 1 / (1 / m + 1 / M)

        def subtracted(p):
            eps = p / (2 * m) * mpmath.sqrt(p * p + (2 * m * c) ** 2)
            w0 = eps + p * p / (2 * M)
            if q == 0:
                return 4 * m * m_r - p**4 / (eps * w0)
            u = p * q / (M * w0)
            return 4 * m * m_r - (p**3 / eps) * (M / (2 * q)) * (mpmath.log1p(u) - mpmath.log1p(-u))

        breaks = [2 * m * c * mpmath.mpf(10) ** j for j in range(-3, 4)]
        integral = mpmath.quad(subtracted, [0] + [x for x in breaks if x < cutoff] + [cutoff])
        return 2 * mpmath.pi * n * a / m_r + n * a * a / (m * m_r * m_r) * integral


# a unit system, a light and a heavy impurity, and a system with no unit scale
_MPMATH_SYSTEMS = {
    "unit": WEAK,
    "light": SystemParams(a=0.01, M=1e-3),
    "heavy": SystemParams(a=0.01, M=1e3),
    "non-unit": SystemParams(n=0.9, U0=1.3, a=0.02),
}


@pytest.mark.parametrize("cutoff", [100.0, 1000.0])  # in units of 2mc
@pytest.mark.parametrize("v", [0.0, 0.5, 0.9])  # q_i/q_c
@pytest.mark.parametrize("system", _MPMATH_SYSTEMS)
def test_energy_shift_matches_the_subtracted_integral_in_mpmath(system, v, cutoff):
    params = _MPMATH_SYSTEMS[system]
    d = derive(params)
    q_i, cutoff = v * d.q_c, cutoff * 2.0 * params.m * d.c
    ref = _subtracted_shift(q_i, params, cutoff)
    assert float(abs(energy_shift_quadrature(q_i, params, cutoff) - ref) / ref) <= 1e-14


def test_energy_shift_converges_to_closed():
    val = energy_shift_quadrature(0.0, WEAK, 4000.0)
    assert val == pytest.approx(energy_shift_closed(WEAK), rel=1e-4)


def test_energy_shift_even_in_momentum():
    plus = energy_shift_quadrature(0.3, WEAK, 500.0)
    minus = energy_shift_quadrature(-0.3, WEAK, 500.0)
    assert plus == minus


def _check_suite_shifts():
    """The check suite's ten (q_i, cutoff): the rest energy at five cutoffs, the stencil, the linear term."""
    h = 0.01 * derive(WEAK).q_c
    rest = [(0.0, cut) for cut in (100.0, 200.0, 400.0, 800.0, 2000.0)]
    return rest + [(-2.0 * h, 4000.0), (-h, 4000.0), (0.0, 4000.0), (-h, 200.0), (h, 200.0)]


@pytest.mark.parametrize("q_i, cutoff", _check_suite_shifts())
def test_each_check_suite_shift_settles_in_one_pass(monkeypatch, q_i, cutoff):
    # in t = p/(2mc + p) the initial 8 panels meet the target; on [0, cutoff] in p
    # the first panel was bisected 4 to 12 times
    calls = []
    original = selfenergy.integrate

    def counting(f, *args):
        def counted(x):
            calls.append(x.shape)
            return f(x)

        return original(counted, *args)

    monkeypatch.setattr(selfenergy, "integrate", counting)
    energy_shift_quadrature(q_i, WEAK, cutoff)
    assert calls == [(15,)] * 8


@pytest.mark.parametrize(
    "cutoff", [5e-324, 1e-300, 1e-200, 1e-160, 1e-3, 2.0, 1e3, 1e16, 1e100, 1e300, 1.7e308])
@pytest.mark.parametrize("q_i", [0.0, 0.5])
def test_energy_shift_is_finite_over_the_whole_cutoff_range(q_i, cutoff):
    # the image t of the cutoff is formed from a ratio at most 1, so it is never
    # 0 and integrate never refuses its bounds; far above 2mc it is t = 1, the
    # converged shift. At rest the integrand in p, p**4/(eps*w0), was 0/0 once
    # p**4 underflowed, and the shift raised from a cutoff of 1e-160 down; in
    # s = p/2mc it is s**2/(h*(h + r*s)), 0 where s**2 underflows
    shift = energy_shift_quadrature(q_i, WEAK, cutoff)
    assert math.isfinite(shift)
    if q_i == 0.0 and cutoff in (1e-200, 1e-160):
        assert shift == mean_field_shift(WEAK) == 0.12566370614359174
    if q_i == 0.0 and cutoff >= 1e16:
        assert shift == pytest.approx(energy_shift_closed(WEAK), rel=1e-13)


@pytest.mark.parametrize("route, b", [
    (effective_mass_finite_difference, -8),
    (effective_mass_quadrature, -8),
    (effective_mass_quadrature, 30),
    (effective_mass_quadrature, 40),
    (effective_mass_quadrature, 100),
    (effective_mass_quadrature, 300),
])
def test_mass_routes_in_other_momentum_units_meet_the_closed_correction(route, b):
    # one system with its momenta in a unit 2**b times smaller: the closed
    # correction is -6.346e-4 at every b. The stencil raised a subdivision-budget
    # error at b = -8. The quadrature raised from b = 30 and returned -0.0 at
    # b = 300 until it integrated in p/mc, and raised at b = 300, where p**6
    # overflowed, until its integrand was written in s = p/2mc
    params = SystemParams(m=1.0, M=1.7, n=0.9 * 2.0 ** (3 * b), U0=1.3 * 2.0**-b, a=0.02 * 2.0**-b)
    closed = effective_mass_closed(params).correction
    rel = 1e-3 if route is effective_mass_finite_difference else 1e-9
    assert route(params).correction == pytest.approx(closed, rel=rel)


def test_energy_shift_validation():
    with pytest.raises(DomainError):
        energy_shift_quadrature(1.0, WEAK, 500.0)  # q_c = 1 in these units
    with pytest.raises(DomainError):
        energy_shift_quadrature(1.5, WEAK, 500.0)
    with pytest.raises(DomainError):
        energy_shift_quadrature(0.5, WEAK, 0.0)
    with pytest.raises(DomainError):
        energy_shift_quadrature(0.5, WEAK, -10.0)


def test_effective_mass_closed_value():
    r = effective_mass_closed(WEAK)
    assert r.correction == pytest.approx(-(128.0 / 45.0) * 1e-4, rel=1e-14)
    assert r.M_ef == pytest.approx(1.000284525376107, rel=1e-12)
    assert r.M_ef == pytest.approx(1.0 / (1.0 + r.correction), rel=1e-15)
    assert r.method == "closed"


def test_effective_mass_heavy_impurity_scaling():
    # sigma ~ 4 pi n a^2 m^2 / (3 M^2 c m_r^2) -> correction falls off as 1/M
    light = effective_mass_closed(SystemParams(a=0.01, M=50.0))
    heavy = effective_mass_closed(SystemParams(a=0.01, M=100.0))
    assert abs(heavy.correction) < abs(light.correction)
    assert light.correction / heavy.correction == pytest.approx(2.0, rel=0.02)


def test_effective_mass_breakdown_guard():
    with pytest.raises(PerturbativeBreakdownError):
        effective_mass_closed(SystemParams(a=10.0))


def test_effective_mass_quadrature_matches_closed():
    r = effective_mass_quadrature(WEAK)
    assert r.M_ef == pytest.approx(effective_mass_closed(WEAK).M_ef, rel=1e-9)
    assert r.method == "quadrature"


def test_effective_mass_finite_difference_matches_closed():
    r = effective_mass_finite_difference(WEAK)
    closed = effective_mass_closed(WEAK)
    assert r.correction == pytest.approx(closed.correction, rel=1e-3)
    assert r.method == "finite_difference"


@pytest.mark.parametrize("M", [1e-3, 0.3, 3.0, 1e3])
def test_stencil_mass_matches_the_closed_correction_over_mass_ratios(M):
    # the stencil's O(1/cutoff) residue is 5.7e-4 at M = 1e-3; a counterterm form
    # of the shift, 4*m*m_r*cutoff minus the bare integral, was 1.7e-3 off there
    params = SystemParams(a=0.01, M=M)
    fd, closed = effective_mass_finite_difference(params), effective_mass_closed(params)
    assert fd.correction == pytest.approx(closed.correction, rel=1e-3)


# light to heavy impurities at two couplings
_STENCIL_ROWS = [(a, M) for a in (0.01, 0.02) for M in (1e-3, 0.3, 1.0, 3.0, 1e3)]


@pytest.mark.parametrize("a, M", _STENCIL_ROWS)
def test_energy_shift_is_even_bit_for_bit_at_the_stencil_points(a, M):
    # the premise that lets the stencil take E(h) and E(2h) from E(-h) and E(-2h)
    params = SystemParams(a=a, M=M)
    h = 0.01 * derive(params).q_c
    for q in (h, 2.0 * h):
        assert (energy_shift_quadrature(q, params, 4000.0).hex()
                == energy_shift_quadrature(-q, params, 4000.0).hex())


@pytest.mark.parametrize("a, M", _STENCIL_ROWS)
def test_stencil_mass_takes_three_shifts_and_keeps_its_bits(a, M, monkeypatch):
    params = SystemParams(a=a, M=M)
    h = 0.01 * derive(params).q_c
    # the five-shift stencil, each shift its own integral; its bits depend on
    # numpy's loops for log1p and powers, so it is formed here, not pinned in hex
    cutoff = selfenergy._FD_CUTOFF
    sigma = -M * second_derivative(lambda q: energy_shift_quadrature(q, params, cutoff), 0.0, h)
    points = []
    shift = selfenergy.energy_shift_quadrature

    def counted(q_i, *args):
        points.append(q_i)
        return shift(q_i, *args)

    monkeypatch.setattr(selfenergy, "energy_shift_quadrature", counted)
    r = effective_mass_finite_difference(params)
    assert points == [-2.0 * h, -h, 0.0]
    assert (r.M_ef.hex(), r.correction.hex()) == ((M / (1.0 - sigma)).hex(), (-sigma).hex())


@pytest.mark.parametrize("r", [1e-155, 1e-6, 1 / 1.7, 1.0, 1e3, 1e5, 1e20])
def test_curvature_integral_is_I1(r):
    # the quadrature mass is the closed one with I1(m/M) taken by this integral
    value, _ = integrate_semi_infinite(
        lambda s: selfenergy._curvature_integrand(s, r), 0.0, selfenergy._DEFAULT_TOL)
    assert value == pytest.approx(I1(r), rel=1e-15)


@pytest.mark.parametrize("M", [1e155, 1e160, 1e300])
def test_heavy_impurity_quadrature_mass_equals_the_closed_form(M):
    # both routes form sigma with the one prefactor, which has a single power
    # of M (1/M**2 underflowed once, and the correction came back -0.0), and
    # the curvature integral rounds to I1(m/M) there, so the bits agree
    params = SystemParams(a=0.01, M=M)
    quad, closed = effective_mass_quadrature(params), effective_mass_closed(params)
    assert quad.correction.hex() == closed.correction.hex()
    assert quad.correction < 0.0


@pytest.mark.parametrize("route", [effective_mass_quadrature, effective_mass_finite_difference])
@pytest.mark.parametrize("M", [1e-120, 1e-160, 1e-200, 1e-300])
def test_light_impurity_mass_routes_report_leaving_the_float_range(M, route):
    # these ended in a ZeroDivisionError, an overflow warning, a nan mass or a spurious
    # breakdown; the quadrature's integral I1(m/M) is not a normal float from m/M
    # about 1e103, and it raises there rather than return a correction of 0
    params = SystemParams(a=0.01, M=M)
    method = route.__name__.removeprefix("effective_mass_")
    expected = f"{method} mass correction at m/M = {1.0 / M!r} leaves the float range"
    if route is effective_mass_finite_difference and M < 1e-156:
        # the energy shift itself leaves the range first, at the stencil's first point q_i = -2h
        h = 0.01 * derive(params).q_c
        expected = f"energy shift at q_i = {-2.0 * h!r} leaves the float range"
    with pytest.raises(NumericalError) as exc:
        route(params)
    assert str(exc.value) == expected


@pytest.mark.parametrize("M", [1e-160, 1e-200])
def test_light_impurity_energy_shift_reports_leaving_the_float_range(M):
    # it returned inf at 1e-160 and ended in a ZeroDivisionError at 1e-200
    with pytest.raises(NumericalError, match=r"^energy shift at q_i = 0\.0 leaves the float range$"):
        energy_shift_quadrature(0.0, SystemParams(a=0.01, M=M), 200.0)


@pytest.mark.parametrize("b", [0, 10, 20, 30, 40, 100])
def test_quadrature_mass_in_smaller_momentum_units_warns_nothing(b):
    # one system with its momenta in a unit 2**b times smaller: n * 2**(3b), U0 and a / 2**b;
    # from b = 40 a node of the rational tail map rounded to t = 1 and its division by
    # zero leaked "divide by zero encountered in divide" before the NumericalError
    params = SystemParams(m=1.0, M=1.7, n=0.9 * 2.0 ** (3 * b), U0=1.3 * 2.0**-b, a=0.02 * 2.0**-b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            effective_mass_quadrature(params)
        except NumericalError:
            pass


def test_mass_result_is_frozen():
    r = effective_mass_closed(WEAK)
    with pytest.raises(AttributeError):
        r.M_ef = 2.0


def test_energy_spectrum_reference_structure():
    pts = energy_spectrum([0.0, 0.3, 0.6], WEAK)
    assert [p.q_i for p in pts] == [0.0, 0.3, 0.6]
    e0 = energy_shift_closed(WEAK)
    m_ef = effective_mass_closed(WEAK).M_ef
    assert pts[0].energy == pytest.approx(e0, rel=1e-14)
    for pt in pts:
        assert pt.energy == pytest.approx(e0 + pt.q_i**2 / (2.0 * m_ef), rel=1e-13)
        assert set(pt.components) == {"mean_field", "fluctuation"}
        total = pt.components["mean_field"] + pt.components["fluctuation"]
        assert total == pytest.approx(e0, rel=1e-13)
    assert pts[0].components["mean_field"] == pytest.approx(
        mean_field_shift(WEAK), rel=1e-14
    )


def test_energy_spectrum_points_do_not_share_their_components():
    pts = energy_spectrum([0.0, 0.3], WEAK)
    pts[0].components["mean_field"] = 99.0
    assert pts[1].components["mean_field"] == mean_field_shift(WEAK)


def test_energy_spectrum_rejects_supercritical_with_offenders():
    # the first offender in loop order is named
    with pytest.raises(DomainError) as exc:
        energy_spectrum([0.5, 1.0, 1.5], WEAK)
    assert str(exc.value) == f"spectrum is defined for |q_i| < q_c = {derive(WEAK).q_c}, got 1.0"
