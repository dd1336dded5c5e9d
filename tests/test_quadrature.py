import math
import re
import warnings

import numpy as np
import pytest

from becimpurity import (
    ConfigurationError,
    DomainError,
    NumericalError,
    SystemParams,
    effective_mass_quadrature,
    quadrature,
    transition_rate_quadrature,
)
from becimpurity.quadrature import (
    _BLOCK,
    _EPS,
    _NODES,
    _W_GAUSS,
    _W_KRONROD,
    _eval_panels,
    integrate,
    integrate_semi_infinite,
    second_derivative,
)

# error-estimate honesty reference suite: (integrand, a, b, exact), finite part
_FINITE = [
    (lambda x: x**3, 0.0, 1.0, 0.25),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: np.cos(10.0 * x), 0.0, 1.0, math.sin(10.0) / 10.0),
    (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0,
     100.0 * (math.atan(70.0) + math.atan(30.0))),
]

# semi-infinite part of the suite: (integrand, exact)
_TAIL = [
    (lambda x: np.exp(-x), 1.0),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
]


@pytest.mark.parametrize("f,a,b,exact", _FINITE)
def test_error_estimate_honest_finite(f, a, b, exact):
    val, err = integrate(f, a, b)
    true = abs(val - exact)
    assert true <= 10.0 * err
    assert true <= 1e-9 * abs(exact)


@pytest.mark.parametrize("f,exact", _TAIL)
def test_error_estimate_honest_semi_infinite(f, exact):
    val, err = integrate_semi_infinite(f, 0.0)
    true = abs(val - exact)
    assert true <= 10.0 * err
    assert true <= 1e-9 * abs(exact)


def test_gaussian_moment_on_shifted_tail():
    val, _ = integrate_semi_infinite(lambda x: x * x * np.exp(-x * x), 0.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)


def test_polynomial_exactness_single_panel():
    # the embedded rule integrates low-degree polynomials to rounding
    for deg in (0, 3, 7, 13):
        val, _ = integrate(lambda x, d=deg: x**d, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (deg + 1), rel=5e-15)


def test_determinism_bitwise():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    v1, e1 = integrate(f, 0.0, 5.0)
    v2, e2 = integrate(f, 0.0, 5.0)
    assert v1 == v2
    assert e1 == e2


def test_interval_additivity():
    f = lambda x: np.cos(x) * np.exp(-0.5 * x)
    whole, _ = integrate(f, 0.0, 2.0)
    left, _ = integrate(f, 0.0, 1.0)
    right, _ = integrate(f, 1.0, 2.0)
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_budget_exhaustion_carries_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(NumericalError, match=r"subdivision budget \(3\) exhausted") as exc:
        integrate(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6), 0.0, 1.0)
    assert exc.value.value is not None
    assert exc.value.est_error is not None
    assert exc.value.est_error > 0.0


def test_unattainable_tolerance_raises_numerical():
    with pytest.raises(NumericalError, match=r"subdivision budget \(200\) exhausted"):
        integrate(lambda x: np.exp(x), 0.0, 1.0, rel_tol=1e-18)


def test_invalid_bounds_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainError):
        integrate(lambda x: x, 0.0, math.inf)


def test_nonfinite_integrand_raises_numerical():
    f = lambda x: np.where(x < 0.5, 1.0, np.nan)
    with pytest.raises(NumericalError) as exc:
        integrate(f, 0.0, 1.0)
    # panels 4..7 all fail; the message names the first node of panel 4
    first_bad = 0.5625 + 0.0625 * _NODES[0]
    assert str(exc.value) == f"integrand returned a non-finite value near x = {first_bad}"


def _reference_panel(y, a, b):
    """The per-panel GK15 arithmetic as 1-D dots on one panel's 15 values.

    Returns (estimate, error estimate, the heuristic's branches taken).
    """
    half = 0.5 * (b - a)
    k15 = half * float(_W_KRONROD @ y)
    g7 = half * float(_W_GAUSS @ y[1::2])
    resabs = half * float(_W_KRONROD @ np.abs(y))
    mean = k15 / (b - a)
    resasc = half * float(_W_KRONROD @ np.abs(y - mean))
    err = abs(k15 - g7)
    branches = set()
    if err == 0.0:
        branches.add("err == 0")
    elif resasc == 0.0:
        branches.add("resasc == 0")
    if resasc != 0.0 and err != 0.0:
        ratio = 200.0 * err / resasc
        branches.add("clamp" if ratio >= 1.0 else "power")
        err = resasc * min(1.0, ratio * math.sqrt(ratio))
    floor = 50.0 * _EPS * resabs
    if floor > err:
        branches.add("floor")
    return k15, max(err, floor), branches


def _trial_rows(rng, n, kind):
    """n panels of integrand values of one of seven kinds (kind 6 needs n >= 2)."""
    y = rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-30, 30, size=(n, 1))
    if kind == 0:
        # smooth rows keep 200*err/resasc < 1, where the 1.5 power acts
        y = np.exp(rng.uniform(-4, 4, size=(n, 1)) * _NODES) * y[:, :1]
    elif kind == 1:
        y = np.abs(y)
    elif kind == 2:
        y[rng.integers(n)] = 0.0
    elif kind == 3:
        y[rng.integers(n)] = rng.uniform(-1, 1)  # constant row: resasc ~ 0
    elif kind == 4:
        y *= 10.0 ** rng.uniform(-5, 5, size=(n, 15))  # mixed scales in a row
    elif kind == 6:
        # exact cancellations, with a power of two c: +-c at the outer Kronrod
        # nodes gives k15 = g7 = 0 and resasc > 0; a constant c gives mean = c
        # (the Kronrod weights sum to 2 exactly), so resasc = 0 and err > 0
        first, second = rng.choice(n, size=2, replace=False)
        c = 2.0 ** rng.integers(-60, 60)
        y[first] = 0.0
        y[first, 0], y[first, -1] = c, -c
        y[second] = c
    return y


def test_batched_panels_match_the_per_panel_arithmetic_bitwise():
    # a 2-D dot or matmul here goes through gemv and moves the last bit on
    # most panels; the batched pass must equal the 1-D dot of each row
    rng = np.random.default_rng(20261018)
    panels = 0
    for trial in range(660):
        n = (1, 2, 8)[trial % 3]
        y = _trial_rows(rng, n, trial % 6)
        lo = rng.uniform(-10, 10, size=n)
        hi = lo + 10.0 ** rng.uniform(-6, 2, size=n)
        rows = iter(y)
        (vals,), (errs,), bad = _eval_panels(lambda x: next(rows), lo[None], hi[None])
        assert bad == [None]
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            ref_val, ref_err, _ = _reference_panel(y[i], a, b)
            assert (vals[i].hex(), errs[i].hex()) == (ref_val.hex(), ref_err.hex())
        panels += n
    assert panels >= 2000


def test_a_full_block_of_panels_matches_the_per_panel_arithmetic_bitwise():
    # one _eval_panels call on the widest block integrate forms, with every
    # branch of the error heuristic taken somewhere in it
    rng = np.random.default_rng(20261019)
    rows, width = quadrature._BLOCK, quadrature._INITIAL_PANELS
    y = np.concatenate([_trial_rows(rng, width, row % 7) for row in range(rows)])
    lo = rng.uniform(-10, 10, size=(rows, width))
    hi = lo + 10.0 ** rng.uniform(-6, 2, size=(rows, width))
    it = iter(y)
    vals, errs, bad = _eval_panels(lambda x: next(it), lo, hi)
    assert bad == [None] * rows
    assert len(vals) == len(errs) == rows
    branches = set()
    for i in range(rows):
        assert len(vals[i]) == len(errs[i]) == width
        for j in range(width):
            ref_val, ref_err, taken = _reference_panel(y[i * width + j], lo[i, j], hi[i, j])
            assert (vals[i][j].hex(), errs[i][j].hex()) == (ref_val.hex(), ref_err.hex())
            branches |= taken
    assert branches == {"err == 0", "resasc == 0", "clamp", "power", "floor"}


def _counting(f):
    shapes = []

    def counted(x):
        shapes.append(x.shape)
        return f(x)

    return counted, shapes


def test_one_integrand_call_per_panel_when_converged_at_once():
    f, shapes = _counting(np.cos)
    integrate(f, 0.0, 1.0)
    assert shapes == [(15,)] * 8


@pytest.mark.parametrize("k", [1, 3, 7])
def test_each_bisection_costs_two_integrand_calls(k, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", k)
    f, shapes = _counting(lambda x: np.abs(x - 0.3))
    with pytest.raises(NumericalError, match="budget"):
        integrate(f, 0.0, 1.0, rel_tol=1e-15)
    assert shapes == [(15,)] * (8 + 2 * k)


def test_kinked_integrand_converges_after_exactly_k_bisections(monkeypatch):
    kink = lambda x: np.abs(x - 0.3)
    f, shapes = _counting(kink)
    val, err = integrate(f, 0.0, 1.0)
    k, odd = divmod(len(shapes) - 8, 2)
    assert k >= 1 and odd == 0
    assert shapes == [(15,)] * (8 + 2 * k)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", k)
    assert integrate(kink, 0.0, 1.0) == (val, err)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", k - 1)
    with pytest.raises(NumericalError, match="budget"):
        integrate(kink, 0.0, 1.0)


def test_overflowing_panel_estimate_raises_numerical():
    # finite integrand values whose weighted sum leaves the float range
    with pytest.raises(NumericalError, match="float range") as exc:
        integrate(lambda x: np.full_like(x, 1e308), 0.0, 100.0)
    assert exc.value.value is not None


def test_overflowing_total_raises_numerical():
    # every panel estimate is finite (5e307); their sum is not
    with pytest.raises(NumericalError, match="float range"):
        integrate(lambda x: np.full_like(x, 5e307), 0.0, 8.0)


_SHAPE_MESSAGE = "integrand must return an array matching its input shape"


def test_wrong_shape_integrand_rejected():
    with pytest.raises(DomainError) as exc:
        integrate(lambda x: np.array([1.0]), 0.0, 1.0)
    assert str(exc.value) == _SHAPE_MESSAGE


def _short_fourth_panel():
    calls = []

    def f(x):
        calls.append(x)
        return x[:14] if len(calls) == 4 else x

    return f


@pytest.mark.parametrize("make", [
    _short_fourth_panel,  # ragged: 14 values on one panel only
    lambda: lambda x: 1.0,  # a scalar per panel
    lambda: lambda x: x[None],  # shape (1, 15)
], ids=["ragged", "scalar", "1x15"])
def test_misshapen_integrand_outputs_raise_the_one_message(make):
    with pytest.raises(DomainError) as exc:
        integrate(make(), 0.0, 1.0)
    assert str(exc.value) == _SHAPE_MESSAGE


def test_config_validation():
    # one validator: every route rejects the same tolerances, also when
    # every momentum is subcritical and nothing is integrated
    unit, weak = SystemParams(g=1.0), SystemParams(a=0.01)
    calls = [
        lambda tol: integrate(np.cos, 0.0, 1.0, tol),
        lambda tol: integrate(np.cos, 0.0, np.array([1.0, 2.0]), tol),
        lambda tol: integrate_semi_infinite(lambda x: np.exp(-x), 0.0, tol),
        lambda tol: transition_rate_quadrature(2.0, unit, tol),
        lambda tol: transition_rate_quadrature(np.array([0.0, 0.5, 1.0]), unit, tol),
        lambda tol: effective_mass_quadrature(weak, tol),
    ]
    for tol in (-1.0, 0.0, math.nan, math.inf):
        for call in calls:
            with pytest.raises(ConfigurationError, match=re.escape(f"tol must be positive, got {tol!r}")):
                call(tol)


def test_second_derivative_quartic():
    assert second_derivative(lambda x: x**4, 1.0, 1e-2) == pytest.approx(12.0, abs=1e-8)


def test_second_derivative_odd_function_at_origin():
    assert abs(second_derivative(math.sin, 0.0, 0.1)) < 1e-12


def test_second_derivative_constant():
    assert second_derivative(lambda x: 7.0, 2.0, 0.1) == 0.0


def test_second_derivative_step_validation():
    with pytest.raises(DomainError):
        second_derivative(lambda x: x * x, 0.0, 0.0)
    with pytest.raises(DomainError):
        second_derivative(lambda x: x * x, 0.0, -0.1)
    with pytest.raises(DomainError):
        second_derivative(lambda x: x * x, 0.0, math.nan)


# ---------------------------------------------------------------------------
# an array of upper bounds: every interval's initial panels in one pass

_KINK = lambda x: np.abs(x - 0.3)
# below 0.3 the kink is off the interval and 8 panels converge at once;
# above it the kink costs bisections
_MIXED_BOUNDS = [0.2, 1.0, 0.25, 0.7, 0.3, 2.5, 0.1]


def _hex(pair):
    return tuple(float(v).hex() for v in pair)


def test_array_bounds_match_scalar_calls_bitwise_and_count_8n_plus_2k():
    scalar, calls = [], []
    for b in _MIXED_BOUNDS:
        f, shapes = _counting(_KINK)
        scalar.append(_hex(integrate(f, 0.0, b)))
        calls.append(len(shapes))
    assert 8 in calls and max(calls) > 8  # some converge at once, some bisect
    bisections = sum(n - 8 for n in calls) // 2
    f, shapes = _counting(_KINK)
    vals, errs = integrate(f, 0.0, np.array(_MIXED_BOUNDS))
    assert isinstance(vals, np.ndarray) and vals.shape == errs.shape == (len(_MIXED_BOUNDS),)
    assert [_hex(pair) for pair in zip(vals, errs)] == scalar
    assert shapes == [(15,)] * (8 * len(_MIXED_BOUNDS) + 2 * bisections)


@pytest.mark.parametrize("n", [1, 15, 16, 17, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 44])
def test_bounds_spanning_several_blocks_match_scalar_calls_bitwise(n):
    # descending, so even one bound bisects; from two on, the last settles at once
    bounds = np.linspace(2.0, 0.05, n)
    scalar, calls = [], []
    for b in bounds.tolist():
        f, shapes = _counting(_KINK)
        scalar.append(_hex(integrate(f, 0.0, b)))
        calls.append(len(shapes))
    assert max(calls) > 8 and (n == 1 or min(calls) == 8)
    f, shapes = _counting(_KINK)
    vals, errs = integrate(f, 0.0, bounds)
    assert [_hex(pair) for pair in zip(vals, errs)] == scalar
    assert shapes == [(15,)] * sum(calls)


def test_float_bound_gives_floats_and_one_element_array_gives_arrays():
    val, err = integrate(np.cos, 0.0, 1.0)
    assert type(val) is float and type(err) is float
    vals, errs = integrate(np.cos, 0.0, np.array([1.0]))
    assert vals.shape == errs.shape == (1,)
    assert (vals[0].hex(), errs[0].hex()) == (val.hex(), err.hex())


def test_a_real_bound_of_any_type_matches_its_float_bound_bitwise():
    # the bounds pass errors._real_array: any real scalar, as a already could be
    from fractions import Fraction

    exact = integrate(np.cos, 0.0, 0.5)
    assert [v.hex() for v in integrate(np.cos, 0.0, Fraction(1, 2))] == [v.hex() for v in exact]
    with pytest.raises(DomainError, match="must be real numbers"):
        integrate(np.cos, 0.0, 10**400)  # beyond the float range: not a real number here


@pytest.mark.parametrize("scale", [1e40, 1e-50])
def test_a_float32_tolerance_gives_the_bits_of_its_float(scale):
    # under NEP 50 a float32 rel_tol makes rel_tol*|total| float32: at 1e40
    # it overflows, and at both scales float32 targets accept 7.8e-4 relative
    def f(x):
        return scale * (np.sin(50.0 * x) ** 2 + 1.0)

    rel_tol = np.float32(1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(f, 0.0, 1.0, rel_tol)
        want = integrate(f, 0.0, 1.0, float(rel_tol))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert want[1] <= 1e-10 * want[0]


def test_empty_bounds_integrate_nothing():
    f, shapes = _counting(np.cos)
    vals, errs = integrate(f, 0.0, np.array([]))
    assert vals.shape == errs.shape == (0,)
    assert shapes == []


def test_exhausted_interval_raises_what_its_scalar_call_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(NumericalError) as alone:
        integrate(_KINK, 0.0, 1.0)
    with pytest.raises(NumericalError) as batched:
        integrate(_KINK, 0.0, np.array([0.2, 1.0, 0.25]))
    assert str(batched.value) == str(alone.value)
    assert batched.value.value.hex() == alone.value.value.hex()
    assert batched.value.est_error.hex() == alone.value.est_error.hex()


def test_first_failing_interval_in_index_order_raises(monkeypatch):
    # interval 0 exhausts its budget; interval 1 holds a non-finite node
    f = lambda x: np.where(x < 1.5, np.abs(x - 0.3), np.nan)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(NumericalError, match="budget"):
        integrate(f, 0.0, np.array([1.0, 2.0]))
    with pytest.raises(NumericalError) as alone:
        integrate(f, 0.0, 2.0)
    with pytest.raises(NumericalError) as batched:
        integrate(f, 0.0, np.array([0.2, 2.0]))
    assert str(batched.value) == str(alone.value)
    assert "non-finite" in str(alone.value)


def test_array_bounds_are_validated_per_interval():
    with pytest.raises(DomainError, match=r"need a < b, got a=0.0, b=-1.0"):
        integrate(np.cos, 0.0, np.array([1.0, -1.0, 0.0]))
    with pytest.raises(DomainError, match="finite"):
        integrate(np.cos, 0.0, np.array([1.0, math.inf]))
    with pytest.raises(DomainError, match="1-D"):
        integrate(np.cos, 0.0, np.ones((2, 2)))


def test_subnormal_width_partition_matches_linspace():
    from becimpurity.quadrature import _initial_edges

    bounds = np.array([1.0, 5e-324, 2e-323, 3.0e-300, 7.0])
    edges = _initial_edges(0.0, bounds)
    for row, b in zip(edges, bounds.tolist()):
        assert [v.hex() for v in row.tolist()] == [v.hex() for v in np.linspace(0.0, b, 9).tolist()]


# ---------------------------------------------------------------------------
# the settle pass: intervals that meet their target on their initial panels


def _first_totals(vals, errs):
    """_refine's first (total, total_err): the panels summed left to right from 0.0."""
    total = total_err = 0.0
    for val, err in zip(vals, errs):
        total += val
        total_err += err
    return total, total_err


def _settle_rows(rng, rows):
    """(rows, 8) panel estimates and errors with ties, zeros, -0.0 and non-finite entries."""
    width = quadrature._INITIAL_PANELS
    vals = rng.uniform(-1, 1, (rows, width)) * 10.0 ** rng.integers(-3, 17, (rows, width))
    errs = np.abs(vals) * 10.0 ** rng.uniform(-15, -7, (rows, width))
    bad = [None] * rows
    for i in range(rows):
        kind = i % 9
        if kind == 1:
            errs[i] = rng.integers(0, 3, width) * 1e-12  # ties and zeros
        elif kind == 2:
            errs[i] = 0.0
        elif kind == 3:
            vals[i, rng.random(width) < 0.5] = -0.0
        elif kind == 4:
            vals[i], errs[i] = -0.0, 0.0
        elif kind == 5:
            vals[i, rng.integers(width)] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 6:
            errs[i, rng.integers(width)] = rng.choice([np.nan, np.inf])
        elif kind == 7:
            bad[i] = 0.5
        elif kind == 8:
            vals[i, :4] = 1.5e308  # a finite row whose sum leaves the float range
    return vals, errs, bad


@pytest.mark.parametrize("rel_tol", [1e-14, 1e-10, 1e-6])
def test_settle_pass_matches_the_first_totals_of_refine_bitwise(rel_tol):
    rng = np.random.default_rng(20261020)
    vals, errs, bad = _settle_rows(rng, 900)
    total, total_err, pending = quadrature._settle(vals, errs, bad, rel_tol)

    def forbidden(x):
        raise AssertionError("a settled row must not bisect")

    lo, hi = [0.0] * 8, [1.0] * 8
    settled = 0
    for i in range(len(bad)):
        ref = _first_totals(vals[i].tolist(), errs[i].tolist())
        if not np.isnan(errs[i]).any():
            assert (total[i].hex(), total_err[i].hex()) == (ref[0].hex(), ref[1].hex())
        try:
            returned = quadrature._refine(forbidden, rel_tol, lo, hi, vals[i].tolist(),
                                          errs[i].tolist(), bad[i])
        except (NumericalError, AssertionError):
            assert i in pending  # it raises or bisects in _refine, so _refine gets it
            continue
        assert i not in pending
        assert (returned[0].hex(), returned[1].hex()) == (total[i].hex(), total_err[i].hex())
        settled += 1
    assert 0 < settled < len(bad) and pending == sorted(pending)


def test_settle_pass_leaves_an_all_negative_zero_row_at_positive_zero():
    vals, errs = np.full((1, 8), -0.0), np.zeros((1, 8))
    total, total_err, pending = quadrature._settle(vals, errs, [None], 1e-10)
    assert (total[0].hex(), total_err[0].hex(), pending) == ((0.0).hex(), (0.0).hex(), [])


def test_refine_bisects_the_leftmost_of_tied_pieces_and_splices_its_halves_in_place():
    # pieces 2 and 5 tie for the largest error; f = 1 gives every half a roundoff-sized error
    spans = []

    def f(x):
        spans.append((x.min(), x.max()))
        return np.ones_like(x)

    lo, hi = [float(k) for k in range(8)], [float(k + 1) for k in range(8)]
    vals, errs = [1.0] * 8, [0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0]
    total, total_err = quadrature._refine(f, 1e-10, lo, hi, vals, errs, None)
    assert len(spans) == 4  # two bisections, one call per half
    assert 2.0 < spans[0][0] < spans[0][1] < 2.5 < spans[1][0] < spans[1][1] < 3.0
    assert 5.0 < spans[2][0] < spans[2][1] < 5.5 < spans[3][0] < spans[3][1] < 6.0
    assert lo == [0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0]
    assert hi == lo[1:] + [8.0]
    assert vals[:2] == vals[4:6] == vals[8:] == [1.0, 1.0] and max(errs) < 1e-12
    assert (total.hex(), total_err.hex()) == tuple(v.hex() for v in _first_totals(vals, errs))


@pytest.mark.parametrize("where", [0, 17, 41])
def test_settled_block_raises_what_the_first_failing_scalar_call_raises(where, monkeypatch):
    # one interval exhausts its budget, and every later one holds a non-finite node
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
    f = lambda x: np.where(x < 5.0, np.abs(x - 0.3), np.nan)
    bounds = np.full(42, 0.2)
    bounds[where] = 1.0
    bounds[where + 1:] = 6.0
    with pytest.raises(NumericalError) as alone:
        integrate(f, 0.0, 1.0)
    with pytest.raises(NumericalError) as batched:
        integrate(f, 0.0, bounds)
    assert "budget" in str(alone.value)
    assert str(batched.value) == str(alone.value)
    assert batched.value.value.hex() == alone.value.value.hex()
    assert batched.value.est_error.hex() == alone.value.est_error.hex()
