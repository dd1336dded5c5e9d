"""Lattice summation kernels for the finite-box oracle.

The box oracle sums over every momentum p = (2*pi/L) * (nx, ny, nz) inside a
sphere |p| <= p_cut, origin excluded, with the impurity momentum along z.
These triple sums are the only hot loops in the package. The summand depends
on (nx, ny) only through nx**2 + ny**2, so each nz slab holds one entry per
distinct value of nx**2 + ny**2, weighted by the number of (nx, ny) sites that
share it: about 2,500 entries instead of 37,249 sites per slab at L = 200.
The histogram of nx**2 + ny**2 is built once per kernel call and sorted, and
every factor but omega is formed once per shell n**2 = nx**2 + ny**2 + nz**2
inside the sphere, in tables no longer than one (2*n_max + 1)**2 plane. The
slabs gather their entries from those tables one at a time, so no array spans
more than one plane. Slabs -nz and +nz share one build, since only omega
tells them apart, and the mask |p| <= p_cut is a prefix slice of the sorted
histogram. Only omega depends on the impurity momentum, and _omegas is the
one place that forms it: one walk over the slab pairs, per block of _Q_BLOCK
momenta, with the rows of -nz and +nz stacked. The three sums are reductions
over that walk, lorentzian_sums over a 1-D array of momenta and the other two
over the one-entry block [q_i]. Only the energy sum of lorentzian_sums reads
eps, so the walk gathers eps per slab only when asked: box_rate's pass at eta
asks for it and forms both sums, while its pass at 2*eta, whose energy sum no
rate reads, and the other two kernels form only their own sum. The kernels
take what the box routes in rates pass them, validated there, and return 1-D
arrays over the momenta or times (inverse_square_sum a float). Each reduction
stores one 1-D sum per slab in a (2*n_max + 1, ...) table and adds its rows in
nz order, -n_max first, so each momentum's sums keep the bits of a
slab-by-slab loop over its own one-momentum call. All kernels are
deterministic for fixed inputs.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import _in_float_range
from .kinematics import _PHASE_RANGE, _finite_time_kernel

__all__ = [
    "ACTIVE_BACKEND",
    "lorentzian_sums",
    "finite_time_sum",
    "inverse_square_sum",
]

# the only backend; kept as a name because perfbench/run.py records it
ACTIVE_BACKEND = "numpy"

# momenta per block of an _omegas slab pair: bounds the temporaries of a sum
# at _Q_BLOCK times two slabs, whatever the number of momenta
_Q_BLOCK = 8


def _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n, with_eps=True):
    """Yield (count, w, eps, base, nz) for nz = 0, 1, ..., n_max, each slab holding a mode.

    Slab nz serves slab -nz too: everything but omega depends on nz through
    nz**2 only. One entry per distinct nx**2 + ny**2 over the square
    [-n_max, n_max]**2; count is the number of (nx, ny) sites that share it,
    as a float64 (exact). p2 = n**2*dk*dk rounds monotonically in the integer
    n**2, so the shells 0 < p2 <= p_cut2 are n**2 = 1, ..., top - 1; w, eps
    and base are formed once per shell, and each slab takes those of its
    entries, a prefix of the sorted histogram, at n**2 = nx**2 + ny**2 + nz**2.
    float(n**2) is that exact sum, so every entry keeps its own formula's bits.
    base = eps + p**2/2M is omega without its momentum term, which _omegas adds.
    eps is gathered only if with_eps, and is None otherwise.
    """
    idx = np.arange(-n_max, n_max + 1)
    sq = idx * idx
    counts = np.bincount(np.add.outer(sq, sq).ravel())
    perp = np.flatnonzero(counts)
    counts = counts[perp].astype(np.float64)
    # one past the last shell in the sphere, by the float test of each p2
    top = bisect_right(range(int(perp[-1]) + n_max * n_max + 1), p_cut2,
                       key=lambda n2: n2 * dk * dk)
    p2 = np.arange(1, top, dtype=np.float64) * dk * dk  # row n**2 - 1 holds shell n**2
    eps = np.sqrt(p2 * (p2 + 4.0 * m * nU0)) / (2.0 * m)
    w = g2n * p2 / (2.0 * m * eps)
    base = eps + p2 / (2.0 * M_imp)
    perp_rows = perp - 1
    nz2 = sq[n_max:]
    for nz, end in enumerate(perp.searchsorted(top - nz2).tolist()):
        lo = 1 if nz == 0 else 0  # skip the origin
        if lo >= end:
            continue
        shell = perp_rows[lo:end] + nz2[nz]
        yield (counts[lo:end], w.take(shell), eps.take(shell) if with_eps else None,
               base.take(shell), nz)


def _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q, with_eps):
    """Yield (rows, cols, count, w, eps, om) per slab pair -nz, +nz and per block of q.

    q is a 1-D float array, cut into blocks of _Q_BLOCK momenta. rows selects
    the slabs in a (2*n_max + 1, ...) table indexed by nz + n_max (rows
    n_max - nz and n_max + nz, or n_max alone at nz = 0), and cols the
    block's momenta. count, w and eps are 1-D over the slab's entries (eps
    None unless with_eps), and om = base - q*dk*nz/M_imp is a fresh (rows,
    momenta, entries) array, from a q*dk*nz/M_imp table built once per block:
    nz*(q*dk) is (q*dk)*nz exactly, so each momentum keeps the bits of its own
    one-momentum block.
    """
    nz_all = np.arange(-n_max, n_max + 1, dtype=np.float64)
    blocks = [(slice(lo, lo + _Q_BLOCK),
               np.multiply.outer(nz_all, q[lo:lo + _Q_BLOCK] * dk)[..., None] / M_imp)
              for lo in range(0, q.size, _Q_BLOCK)]
    for count, w, eps, base, nz in _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n, with_eps):
        rows = slice(n_max - nz, n_max + nz + 1, 2 * nz or 1)
        for cols, shift in blocks:
            yield rows, cols, count, w, eps, base - shift[rows]


def _in_nz_order(table):
    """The rows of a per-slab sum table added one by one, slab -n_max first.

    Each row is one slab's 1-D sum, so the total is the one a loop adding
    the slabs into an accumulator in nz order would give, bit for bit. Rows
    of slabs without a mode stay 0.0, which leaves the nonnegative running
    sums as they are.
    """
    return np.add.accumulate(table)[-1]


def lorentzian_sums(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q, eta, *, _energy=True):
    """Broadened golden-rule sums: (sum w/(om^2+eta^2), sum w*eps/(om^2+eta^2)).

    q is a 1-D float array of momenta, and the sums are 1-D arrays over it.
    One pass over the slabs serves every momentum; each momentum's sums
    are accumulated slab by slab with the arithmetic of its own call. With
    _energy=False the pass gathers no eps and forms no energy sum, and the
    result is the one-tuple (transition sum,), bit-identical to the first
    sum of the full pass.
    """
    tables = np.zeros((2 if _energy else 1, 2 * n_max + 1, q.size))
    eta2 = eta * eta
    for rows, cols, count, w, eps, om in _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q,
                                                 with_eps=_energy):
        lor = np.multiply(om, om, out=om)  # count * (w / (om*om + eta2)), in place
        lor += eta2
        np.divide(w, lor, out=lor)
        lor *= count
        tables[0, rows, cols] = lor.sum(axis=-1)
        if _energy:
            lor *= eps
            tables[1, rows, cols] = lor.sum(axis=-1)
    return tuple(_in_nz_order(table) for table in tables)


def finite_time_sum(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i, t):
    """Transition weight sum: sum over modes of w * finite-time kernel.

    t is a 1-D array of nonnegative finite times, and the sums are a 1-D
    array over it. One pass over the slabs serves every time: the kernel is
    formed as a (slabs, times, entries) block per slab pair, and each time's
    sum keeps the bits of its own one-time call. Raises NumericalError at
    the first time whose sum leaves the float range, as it does where
    omega*t overflows.
    """
    times = t[:, None]
    table = np.zeros((2 * n_max + 1, t.size))
    # past the float range the sums are inf or nan, and _in_float_range raises
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, _cols, count, w, _eps, om in _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n,
                                                       np.array([q_i]), with_eps=False):
            table[rows] = (count * (w * _finite_time_kernel(om, times))).sum(axis=-1)
    return _in_float_range(t, (_in_nz_order(table), _PHASE_RANGE))


def inverse_square_sum(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """Kernel-bound sum: sum over modes of 4*w/omega^2 (subcritical only)."""
    table = np.zeros((2 * n_max + 1, 1))
    for rows, _cols, count, w, _eps, om in _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n,
                                                   np.array([q_i]), with_eps=False):
        table[rows] = (count * (4.0 * w / (om * om))).sum(axis=-1)
    return float(_in_nz_order(table)[0])
