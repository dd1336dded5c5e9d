"""A fault ledger: the rates, the window and the self-energy over the whole domain, against mpmath.

The rates' grid has 465 points: m in {1e-300, 1e-150, 1, 1e150}, M = m*10**k for
k = -300, -280, ..., 300 wherever M is a normal float, v = q_i/q_c in
{1.001, 2, 10, 1e3, 1e6}, and n = U0 = g = 1. Each point's q_i is v*q_c in
floats. Each point is judged on five rows: gamma_T and gamma_E on the closed
and the quadrature route, and p_max.

The truth is the closed forms in mpmath at 80 digits, fed the float c and
q_c that derive gives; the rounding of q_c alone would put 1e-13 into it
at v = 1.001. sinh(u) - u is summed as its odd series below u = 0.01,
where the difference loses digits.

A value is right where:

- the truth leaves the float range, and the route raises NumericalError;
- the truth is a normal float, and the value is within 1e-13 of it
  relatively (within 1e-10, the default tolerance, on the quadrature route);
- the truth is subnormal, and the value is within 1e-3 of it relatively or
  within one subnormal step;
- the truth is below half the smallest subnormal, and the value is an exact 0.

A known fault is a named strict xfail (_FAULTS), which fails once it is
mended; every other point must be right on every row. None of these is a
designed failure of the check suite (checks.EXPECTED_FAILURES).

The self-energy has six rows over a seeded sample: random.Random(43), 400
draws of m, M, n, U0 and a, each 10**uniform(-300, 300), kept where
SystemParams accepts them and m/M is a normal float (227 points). The rows
are the mean-field shift, the closed E(0), energy_shift_quadrature at
q_i = 0 and a cutoff of 1e308 (against E(0)), and the closed, quadrature
and stencil masses. The numerical rows are judged where m/M <= 1e60
(150 points), since ROADMAP item 24 covers lighter impurities. The truth is
the closed forms in mpmath at 60 digits, fed the float c and m_r that
derive gives; 60 digits hold the cancellation of I1 near m/M = 1 for every
float. The tolerance is 1e-13 on the closed routes, 1e-9 on the
quadrature routes and 1e-7 on the stencil. A mass whose sigma = 1 - M/M_ef
is 0.5 or more in magnitude is right where the route raises
PerturbativeBreakdownError, or NumericalError where sigma is past the float
range too.

The stencil mass has its own rows, at a = 0.01 and M = 10**k: within 1e-8
of the closed correction for k = -60, -50, ..., 300, and from k = -61
down a NumericalError wherever the quadrature mass raises one (ROADMAP
item 24), never a value.
"""

import functools
import math
import random
import sys

import mpmath
import pytest

from becimpurity import (
    BecImpurityError,
    NumericalError,
    ParameterDomainError,
    PerturbativeBreakdownError,
    SystemParams,
    derive,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_shift_closed,
    energy_shift_quadrature,
    max_emission_momentum,
    mean_field_shift,
    transition_rate,
    transition_rate_quadrature,
)

_GRID = [
    (dict(m=m, M=m * 10.0**k), v)
    for m in (1e-300, 1e-150, 1.0, 1e150)
    for k in range(-300, 301, 20)
    if sys.float_info.min <= m * 10.0**k < math.inf
    for v in (1.001, 2.0, 10.0, 1e3, 1e6)
]
# points off the grid, each the example of a named fault
_EDGES = {
    # s_max = p_max/2mc = 5e309 is not a float, while p_max = 1e10, gamma_T = 8e8 and gamma_E = 2e228 are
    "v-overflows": (dict(m=1e-200, M=1e-200, n=1e-200, U0=1e-200, g=1e200), 1e10),
    # r = m/M = 1e400 is not a float, while p_max = 2e-250 is (the rates underflow to 0)
    "r-overflows": (dict(m=1e300, M=1e-100), 2e-250),
}
_ROWS = ("closed gamma_T", "closed gamma_E", "quadrature gamma_T", "quadrature gamma_E", "p_max")


def _sample() -> list:
    """The self-energy's 227 points, as SystemParams."""
    rng, points = random.Random(43), []
    for _ in range(400):
        fields = {name: 10.0 ** rng.uniform(-300, 300) for name in ("m", "M", "n", "U0", "a")}
        try:
            params = SystemParams(**fields)
        except ParameterDomainError:
            continue
        if sys.float_info.min <= params.m / params.M < math.inf:
            points.append(params)
    return points


# the self-energy's edges: m/M is not a float, while every truth is
_SELF_ENERGY_EDGES = {
    # m/M = 1e310: E(0) = 8e54, where the mean-field shift is 6.28e7, and sigma = 3.8e-153
    "ratio-overflows": dict(m=1e200, M=1e-110, n=1e-100, a=1e-3),
    # m/M = 1e-350: I1(0+) = pi/4 is the heavy limit, and I0(0+) = pi/2
    "ratio-underflows": dict(m=1e-200, M=1e150, a=1e-3),
}
_SELF_ENERGY_ROWS = ("mean-field shift", "closed E(0)", "quadrature shift",
                     "closed mass", "quadrature mass", "stencil mass")
# name: (rows, edge) of each known fault, all points of those rows at that edge
_FAULTS = {
    "v-overflows": (_ROWS[:4], "v-overflows"),
    # I0 refuses m/M = inf, the shift's integrand reads r = inf as a zero fluctuation,
    # and every mass route raises on it (ROADMAP item 24)
    "ratio-overflows": (_SELF_ENERGY_ROWS[1:], "ratio-overflows"),
    # I0 refuses m/M = 0.0
    "ratio-underflows": (("closed E(0)",), "ratio-underflows"),
}

_TOP = mpmath.mpf(2) ** 1024 * (1 - mpmath.mpf(2) ** -54)  # values from here round to inf
_NORMAL = mpmath.mpf(2) ** -1022
_HALF_SUBNORMAL = mpmath.mpf(2) ** -1075


def _sinh_excess(u):
    if u < mpmath.mpf("0.01"):
        return mpmath.fsum(u**j / mpmath.factorial(j) for j in range(3, 61, 2))
    return mpmath.sinh(u) - u


def _truth(params: SystemParams, q_i: float) -> dict:
    """Each row's 80-digit value at the float q_i, c and q_c."""
    d = derive(params)
    with mpmath.workdps(80):
        m, n, g, c = (mpmath.mpf(x) for x in (params.m, params.n, params.g, d.c))
        v, r = mpmath.mpf(q_i) / mpmath.mpf(d.q_c), m / mpmath.mpf(params.M)
        G = (v - 1) * (v + 1)
        s = G / (v * r + mpmath.sqrt(r * r + G))
        gamma_T = n * g**2 * m**2 * c * _sinh_excess(2 * mpmath.asinh(s)) / (2 * mpmath.pi * v)
        gamma_E = n * g**2 * (m * c) ** 3 * s**4 / (mpmath.pi * v)
        return {"gamma_T": gamma_T, "gamma_E": gamma_E, "p_max": 2 * m * c * s}


def _right(got, want, rel: float) -> bool:
    if want >= _TOP:
        return isinstance(got, NumericalError)
    if isinstance(got, BecImpurityError):
        return False
    with mpmath.workdps(80):
        error = abs(mpmath.mpf(got) - want)
        if want >= _NORMAL:
            return error <= rel * want
        if want >= _HALF_SUBNORMAL:
            return error <= max(1e-3 * want, mpmath.mpf(2) ** -1074)
    return got == 0.0


def _call(route, *args):
    try:
        return route(*args)
    except BecImpurityError as exc:
        return exc


def _verdicts(fields: dict, q_i: float) -> dict:
    """{row: right} at one point."""
    params = SystemParams(**{"g": 1.0, **fields})
    want = _truth(params, q_i)
    out = {"p_max": _right(_call(max_emission_momentum, q_i, params), want["p_max"], 1e-13)}
    routes = ((transition_rate, "closed", 1e-13), (transition_rate_quadrature, "quadrature", 1e-10))
    for route, method, rel in routes:
        result = _call(route, q_i, params)
        for name in ("gamma_T", "gamma_E"):
            got = result if isinstance(result, NumericalError) else getattr(result, name)
            out[f"{method} {name}"] = _right(got, want[name], rel)
    return out


def _rapidity(x):
    """(u, s): u = 2*acosh(x) and s = sqrt(x*x - 1) above 1, 2*acos(x) and sqrt(1 - x*x) below."""
    if x > 1:
        return 2 * mpmath.acosh(x), mpmath.sqrt(x * x - 1)
    return 2 * mpmath.acos(x), mpmath.sqrt(1 - x * x)


def _I0(x):
    if x == 1:
        return mpmath.mpf(4) / 3
    u, s = _rapidity(x)
    return (mpmath.sinh(u) - u if x > 1 else u - mpmath.sin(u)) / (2 * abs(x - 1) * s)


def _I1(y):
    if y == 1:
        return mpmath.mpf(2) / 15
    u, s = _rapidity(y)
    return ((1 + 2 * y * y) * u - 6 * y * s) / (4 * s**5)


def _mass_right(got, sigma, rel: float) -> bool:
    """A mass route's result against the truth of sigma = 1 - M/M_ef."""
    if abs(sigma) >= _TOP and isinstance(got, NumericalError):
        return True
    if abs(sigma) >= 0.5:
        return isinstance(got, PerturbativeBreakdownError)
    return _right(got if isinstance(got, BecImpurityError) else -got.correction, sigma, rel)


def _self_energy_verdicts(params: SystemParams, numerical: bool) -> dict:
    """{row: right} at one point; the numerical rows only where numerical is true."""
    d = derive(params)
    with mpmath.workdps(60):
        m, M, n, a, c, m_r = (mpmath.mpf(x) for x in (params.m, params.M, params.n, params.a, d.c, d.m_r))
        mean_field = 2 * mpmath.pi * n * a / m_r
        e0 = mean_field + 8 * n * a * a * m * c * _I0(m / M) / m_r
        sigma = mpmath.mpf(16) / 3 * n * a * a / (M * c) * (m / m_r) ** 2 * _I1(m / M)
    out = {"mean-field shift": _right(_call(mean_field_shift, params), mean_field, 1e-13),
           "closed E(0)": _right(_call(energy_shift_closed, params), e0, 1e-13),
           "closed mass": _mass_right(_call(effective_mass_closed, params), sigma, 1e-13)}
    if numerical:
        out["quadrature shift"] = _right(_call(energy_shift_quadrature, 0.0, params, 1e308), e0, 1e-9)
        out["quadrature mass"] = _mass_right(_call(effective_mass_quadrature, params), sigma, 1e-9)
        out["stencil mass"] = _mass_right(_call(effective_mass_finite_difference, params), sigma, 1e-7)
    return out


@functools.lru_cache(maxsize=None)
def _ledger() -> dict:
    """{(row, point): right}, the grid's and the sample's points by index and the edges by name."""
    points = {i: (fields, v * derive(SystemParams(g=1.0, **fields)).q_c)
              for i, (fields, v) in enumerate(_GRID)}
    points.update(_EDGES)
    ledger = {(row, point): right for point, (fields, q_i) in points.items()
              for row, right in _verdicts(fields, q_i).items()}
    sample = {i: (params, params.m / params.M <= 1e60) for i, params in enumerate(_sample())}
    sample.update((name, (SystemParams(**fields), True)) for name, fields in _SELF_ENERGY_EDGES.items())
    ledger.update(((row, point), right) for point, (params, numerical) in sample.items()
                  for row, right in _self_energy_verdicts(params, numerical).items())
    return ledger


def test_the_grid_holds_465_points():
    assert len(_GRID) == 465


def test_the_sample_holds_227_points():
    assert len(_sample()) == 227


@pytest.mark.parametrize("row", _ROWS + _SELF_ENERGY_ROWS)
def test_each_row_is_right_everywhere_off_its_named_faults(row):
    # before the routes formed their units through bogoliubov._scale, the closed
    # gamma_T was right on 309 of the 465 grid points, gamma_E on 327 and p_max on 280;
    # of the sample's 227 points, the mean-field shift was right on 208, the closed E(0)
    # on 199 and the closed mass on 203, and of its 150 numerical points the quadrature
    # shift on 140 and the quadrature and stencil masses on 134 each
    known = {edge for name, (rows, edge) in _FAULTS.items() if row in rows}
    wrong = [point for (r, point), right in _ledger().items() if r == row and not right]
    assert [point for point in wrong if point not in known] == []


@pytest.mark.parametrize("fault", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=f"known fault: {name}"))
    for name in _FAULTS])
def test_named_fault_is_mended(fault):
    rows, edge = _FAULTS[fault]
    assert all(_ledger()[row, edge] for row in rows)


def test_stencil_mass_meets_the_closed_correction_over_the_mass_ratios():
    # the stencil on the shift at a cutoff of 4000*mc was within 1e-3 on 16 of these
    # 37 points: noise of either sign for a light impurity, a spurious breakdown from
    # M = 1e-10 down, and -0.0 from M = 1e160 up
    wrong = []
    for k in range(-60, 301, 10):
        params = SystemParams(a=0.01, M=10.0**k)
        got = _call(effective_mass_finite_difference, params)
        want = effective_mass_closed(params).correction
        if isinstance(got, BecImpurityError) or abs(got.correction - want) > 1e-8 * abs(want):
            wrong.append(k)
    assert wrong == []


@pytest.mark.parametrize("k", [-61, *range(-70, -301, -10)])
def test_stencil_mass_raises_where_the_quadrature_mass_raises(k):
    # below M = 1e-60 both integrals of I1 exhaust their subdivisions, and from about
    # M = 1e-105 neither I1 is a normal float, where the closed correction is finite
    params = SystemParams(a=0.01, M=10.0**k)
    assert isinstance(_call(effective_mass_quadrature, params), NumericalError)
    assert isinstance(_call(effective_mass_finite_difference, params), NumericalError)
