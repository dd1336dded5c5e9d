"""Adaptive Gauss-Kronrod integration and finite-difference stencils.

Everything here is deterministic by construction: an interval's pieces are
summed left to right and break error ties by position, node evaluation is
vectorized with a fixed layout, and neither randomness nor wall clock
enters the algorithm, so identical inputs produce bit-identical outputs.

Integrands must accept a numpy array of abscissae and return an array of the
same shape. Interval endpoints are never evaluated (all nodes are interior),
which makes integrable endpoint singularities usable if the caller keeps them
off the nodes.

The only setting is ``rel_tol``: an interval is done when its error estimate
is at most rel_tol*|value|, and fails after ``_MAX_SUBDIVISIONS`` bisections.
The integrand is called once per panel, on that panel's 15 nodes: 8 calls
per interval for the initial partition and 2 per bisection. ``integrate``
takes one upper bound or a 1-D array of them. With an array, the initial
panels of each block of up to 128 intervals are evaluated together: their
nodes form one (128*8, 15) array, the integrand's outputs are stacked into
one array of the same shape, and everything after the calls is array passes
over the block: the Kronrod and Gauss sums, the finite check, and the
QUADPACK error heuristic (Piessens et al., 1983) with its branches, its
clamp at 1 and its roundoff floor. One more array pass settles each
interval that a call with its bound alone would return before any
bisection: no non-finite node, a finite total and error, and the error
within rel_tol*|total|. It sums each interval's 8 panels left to right,
as ``_refine`` does, so the totals carry the scalar call's bits. Every
other interval goes to ``_refine`` in index order, exactly as a call with
its bound alone would; a bisected pair is evaluated the same way, as a
block of one. The weighted sums are numpy's own contraction,
``np.einsum("ij,j->i", ...)`` with no ``optimize`` argument, which sums
each panel's row alone, bit-identical to its 1-D ``np.einsum("j,j->", ...)``,
and never hands the product to BLAS, whose kernel OpenBLAS picks by CPU. A
batched call keeps a scalar call's bits because every per-panel step is a
correctly rounded array operation or that per-row contraction.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError, _real_array, _require, _require_1d

__all__ = [
    "integrate",
    "integrate_semi_infinite",
    "second_derivative",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (standard published constants; polynomial exactness through degree 22 is
# pinned by the test suite).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # 15 ascending nodes
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_GAUSS = np.concatenate((_WG[:-1], _WG[::-1]))           # matches _NODES[1::2]

_EPS = float(np.finfo(float).eps)
_INITIAL_PANELS = 8
_EDGE_FRACTIONS = np.arange(_INITIAL_PANELS + 1.0) / _INITIAL_PANELS  # exact: k/8
# intervals per array pass: node arrays of 120 kB; one pass over all 2000
# intervals of a sweep, with its temporaries, raised its peak RSS by 10 MB
_BLOCK = 128
_MAX_SUBDIVISIONS = 200  # bisections per interval after the initial partition
_DEFAULT_REL_TOL = 1e-10  # default rel_tol of integrate, the quadrature rates and the CLI


def _check_rel_tol(rel_tol: float) -> float:
    """rel_tol as a float; raise unless it is a finite real > 0, and a bool is not a tolerance."""
    if isinstance(rel_tol, bool) or not (
        isinstance(rel_tol, numbers.Real) and math.isfinite(rel_tol) and rel_tol > 0
    ):
        raise ConfigurationError(f"tol must be positive, got {rel_tol!r}")
    return float(rel_tol)


def _real_bounds(a, b):
    """(a as a float, b as a float array); DomainError unless a is a 0-d real and b real.

    Both are tested with errors._real_array.
    """
    lower, upper = _real_array(a), _real_array(b)
    if lower is None or lower.ndim or upper is None:
        raise DomainError(f"integration bounds must be real numbers, got a={a!r}, b={b!r}")
    return float(lower), upper


def _eval_panels(f, lo, hi):
    """One Gauss-Kronrod pass over each panel [lo[i, j], hi[i, j]].

    lo and hi have shape (rows, panels). f is called once per panel, on its
    15 nodes, row by row. Returns (estimates, error_estimates, bad): the
    first two as float arrays shaped like lo, and bad holding, for each row,
    the first node where f is not finite, or None. The estimates of a row
    with a bad node are meaningless.
    """
    rows, width = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    center = 0.5 * (lo + hi)
    span = hi - lo
    half = 0.5 * span
    x = center[:, None] + half[:, None] * _NODES
    outs = [f(nodes) for nodes in x]  # outside the try: f's own errors propagate
    try:
        y = np.array(outs, dtype=float)
    except ValueError:  # ragged outputs
        y = None
    if y is None or y.shape != x.shape:
        raise DomainError("integrand must return an array matching its input shape")
    finite = np.isfinite(y)
    bad = [None] * rows
    if not finite.all():
        row_finite, row_nodes = finite.reshape(rows, -1), x.reshape(rows, -1)
        for i in np.flatnonzero(~row_finite.all(axis=1)).tolist():
            bad[i] = row_nodes[i][~row_finite[i]][0]
    # divide: 200*err/resasc is formed also where resasc == 0, then discarded
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # numpy's per-row contraction, off BLAS; see the module docstring
        k15 = half * np.einsum("ij,j->i", y, _W_KRONROD)
        g7 = half * np.einsum("ij,j->i", y[:, 1::2], _W_GAUSS)
        resabs = half * np.einsum("ij,j->i", np.abs(y), _W_KRONROD)
        mean = k15 / span
        resasc = half * np.einsum("ij,j->i", np.abs(y - mean[:, None]), _W_KRONROD)
        err = np.abs(k15 - g7)
        # r**1.5 as r*sqrt(r): two correctly rounded steps; fmin takes 1.0 over a nan r
        ratio = 200.0 * err / resasc
        scaled = resasc * np.fmin(ratio * np.sqrt(ratio), 1.0)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        # never report an estimate below the roundoff floor of the panel
        floor = 50.0 * _EPS * resabs
        err = np.where(floor > err, floor, err)
    return k15.reshape(rows, width), err.reshape(rows, width), bad


def _initial_edges(a: float, b: np.ndarray) -> np.ndarray:
    """Row i holds the _INITIAL_PANELS + 1 edges (k/8)*(b[i] - a) + a, its last one b[i].

    Each edge is one rounding of k*(b[i] - a)/8 before a is added. Where
    the width exceeds 8 times the smallest normal float (about 1.8e-307),
    (b[i] - a)/8 is exact, so these are the bits of np.linspace's
    k*((b[i] - a)/8); a narrower width keeps bits that a rounded step loses.
    """
    edges = _EDGE_FRACTIONS * (b - a)[:, None] + a
    edges[:, -1] = b
    return edges


def _settle(vals, errs, bad, rel_tol):
    """(total, total_err, pending): each row's first totals, and the rows _refine must finish.

    vals and errs are (rows, 8) arrays of initial panels. The totals are
    summed left to right, as _refine sums them, so they carry its bits;
    the + 0.0 turns an all -0.0 row into the 0.0 that _refine's 0.0 + ...
    gives. A row is settled where _refine would return these totals before
    any bisection: no bad node, both finite, and total_err <=
    rel_tol*|total|, tested in Python floats as _refine tests it. pending
    lists the other rows in index order.
    """
    # silent where nan and inf meet, as _refine's float sums are
    with np.errstate(over="ignore", invalid="ignore"):
        total, total_err = (np.add.accumulate(v, axis=1)[:, -1] + 0.0 for v in (vals, errs))
    pending = [
        i for i, (t, e, b) in enumerate(zip(total.tolist(), total_err.tolist(), bad))
        if not (b is None and math.isfinite(t) and math.isfinite(e) and e <= rel_tol * abs(t))
    ]
    return total, total_err, pending


def _refine(f, rel_tol, lo, hi, vals, errs, bad):
    """Sum one interval's pieces, bisecting the worst until the target is met.

    lo, hi, vals and errs are the interval's initial panels as lists of
    floats in order of position, which _refine updates in place; bad is
    the first non-finite node among them, or None. The pieces are summed
    left to right, and the first of those with the largest error is
    bisected, its halves taking its place.
    """
    splits = 0
    while True:
        if bad is not None:
            raise NumericalError(f"integrand returned a non-finite value near x = {bad}")
        total = total_err = 0.0
        for val, err in zip(vals, errs):
            total += val
            total_err += err
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise NumericalError(
                f"estimate {total!r} with error {total_err!r} leaves the float range",
                value=total,
                est_error=total_err,
            )
        target = rel_tol * abs(total)
        if total_err <= target:
            return total, total_err
        if splits >= _MAX_SUBDIVISIONS:
            raise NumericalError(
                f"subdivision budget ({_MAX_SUBDIVISIONS}) exhausted: "
                f"error estimate {total_err:.3e} above target {target:.3e}",
                value=total,
                est_error=total_err,
            )
        k = errs.index(max(errs))
        mid = 0.5 * (lo[k] + hi[k])
        lo[k:k + 1], hi[k:k + 1] = [lo[k], mid], [mid, hi[k]]
        halves, half_errs, (bad,) = _eval_panels(f, np.array([lo[k:k + 2]]), np.array([hi[k:k + 2]]))
        vals[k:k + 1], errs[k:k + 1] = halves[0].tolist(), half_errs[0].tolist()
        splits += 1


def integrate(f: Callable, a: float, b: float | np.ndarray, rel_tol: float = _DEFAULT_REL_TOL):
    """Adaptively integrate f over the finite interval [a, b], or over each [a, b[i]].

    b is a float or a 1-D array of upper bounds. Returns (value,
    error_estimate): floats for a float b, arrays shaped like b otherwise.
    Every interval gets the result a call with its own float bound would
    give, bit for bit. Raises ConfigurationError unless rel_tol is a finite
    positive real, and DomainError unless a and b are real. Raises NumericalError, carrying the best value and its
    estimate, if _MAX_SUBDIVISIONS bisections do not bring the error
    estimate down to rel_tol*|value|, or if the estimate or its error leaves
    the float range; for an array b, the first interval in index order to
    fail raises. The intervals go in blocks of 128, a float b as a block
    of one: the integrand is called on the initial panels of a whole block
    before any interval of that block is summed. One array pass settles
    the intervals that meet their target on those panels; _refine bisects
    the rest in index order.
    """
    rel_tol = _check_rel_tol(rel_tol)
    a, upper = _real_bounds(a, b)
    _require_1d(upper, "upper bounds")
    bounds = upper.reshape(-1)
    b_list = bounds.tolist()
    if not (math.isfinite(a) and all(map(math.isfinite, b_list))):
        raise DomainError("integration bounds must be finite")
    if b_list and not a < min(b_list):
        raise DomainError(f"need a < b, got a={a}, b={next(x for x in b_list if not a < x)}")

    values, errors = np.empty(len(b_list)), np.empty(len(b_list))
    for start in range(0, len(b_list), _BLOCK):
        edges = _initial_edges(a, bounds[start:start + _BLOCK])
        lo, hi = edges[:, :-1], edges[:, 1:]
        vals, errs, bad = _eval_panels(f, lo, hi)
        rows = slice(start, start + len(bad))
        values[rows], errors[rows], pending = _settle(vals, errs, bad, rel_tol)
        for i in pending:
            values[start + i], errors[start + i] = _refine(
                f, rel_tol, lo[i].tolist(), hi[i].tolist(), vals[i].tolist(), errs[i].tolist(), bad[i])
    if upper.ndim == 0:
        return float(values[0]), float(errors[0])
    return values, errors


def integrate_semi_infinite(f: Callable, a: float, rel_tol: float = _DEFAULT_REL_TOL):
    """Integrate f over [a, inf) for integrands with f(p)*p**2 -> 0.

    The rational map p = a + t/(1-t) carries [a, inf) to t in [0, 1); the
    decay contract keeps the transformed integrand bounded near t = 1.
    Raises DomainError unless a is a finite real, non-real a in integrate's
    words.
    """
    a, _ = _real_bounds(a, math.inf)
    if not math.isfinite(a):
        raise DomainError("lower bound must be finite")

    def transformed(t):
        # a node rounded to t = 1 maps to nan, not to a division by 0: integrate raises there
        one_minus = np.where(t < 1.0, 1.0 - t, np.nan)
        p = a + t / one_minus
        return f(p) / one_minus**2

    return integrate(transformed, 0.0, 1.0, rel_tol)


def second_derivative(f: Callable, x0: float, h: float) -> float:
    """Five-point central second derivative, truncation error O(h**4)."""
    x0 = _require(x0, "point x0", kind="signed")
    h = _require(h, "step h")
    num = (
        -f(x0 - 2.0 * h)
        + 16.0 * f(x0 - h)
        - 30.0 * f(x0)
        + 16.0 * f(x0 + h)
        - f(x0 + 2.0 * h)
    )
    return num / (12.0 * h * h)
