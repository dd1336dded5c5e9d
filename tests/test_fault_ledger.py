"""A fault ledger: the rate routes and the window over the whole domain, against mpmath.

The grid has 465 points: m in {1e-300, 1e-150, 1, 1e150}, M = m*10**k for
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
"""

import functools
import math
import sys

import mpmath
import pytest

from becimpurity import (
    NumericalError,
    SystemParams,
    derive,
    max_emission_momentum,
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
# name: (rows, edge) of each known fault, all points of those rows at that edge
_FAULTS = {
    "v-overflows": (_ROWS[:4], "v-overflows"),
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
    if isinstance(got, NumericalError):
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
    except NumericalError as exc:
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


@functools.lru_cache(maxsize=None)
def _ledger() -> dict:
    """{(row, point): right}, the grid's points by index and the edges by name."""
    points = {i: (fields, v * derive(SystemParams(g=1.0, **fields)).q_c)
              for i, (fields, v) in enumerate(_GRID)}
    points.update(_EDGES)
    return {(row, point): right for point, (fields, q_i) in points.items()
            for row, right in _verdicts(fields, q_i).items()}


def test_the_grid_holds_465_points():
    assert len(_GRID) == 465


@pytest.mark.parametrize("row", _ROWS)
def test_each_row_is_right_everywhere_off_its_named_faults(row):
    # before the routes formed their units through bogoliubov._scale, the closed
    # gamma_T was right on 309 of the 465 grid points, gamma_E on 327 and p_max on 280
    known = {edge for name, (rows, edge) in _FAULTS.items() if row in rows}
    wrong = [point for (r, point), right in _ledger().items() if r == row and not right]
    assert [point for point in wrong if point not in known] == []


@pytest.mark.parametrize("fault", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=f"known fault: {name}"))
    for name in _FAULTS])
def test_named_fault_is_mended(fault):
    rows, edge = _FAULTS[fault]
    assert all(_ledger()[row, edge] for row in rows)
