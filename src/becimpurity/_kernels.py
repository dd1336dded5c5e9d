"""Lattice summation kernels for the finite-box oracle.

The box oracle sums over every momentum p = (2*pi/L) * (nx, ny, nz) inside a
sphere |p| <= p_cut, origin excluded, with the impurity momentum along z.
These triple sums are the only hot loops in the package. The summand depends
on (nx, ny) only through nx**2 + ny**2, so each nz slab holds one entry per
distinct value of nx**2 + ny**2, weighted by the number of (nx, ny) sites that
share it: about 2,500 entries instead of 37,249 sites per slab at L = 200.
The histogram of nx**2 + ny**2 is built once per kernel call and the slabs are
visited one at a time, so no array spans more than one (2*n_max + 1)**2
plane. Only omega depends on the impurity momentum, and _omegas is the one
place that forms it: one walk over the slabs, per block of _Q_BLOCK momenta.
The three sums are reductions over that walk, lorentzian_sums over an array
of momenta and the other two over the one-entry block [q_i], and each
momentum's sums keep the bits of its own one-momentum call. All kernels are
deterministic for fixed inputs.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np

from .kinematics import _entries, _finite_time_kernel

__all__ = [
    "ACTIVE_BACKEND",
    "lorentzian_sums",
    "finite_time_sum",
    "inverse_square_sum",
    "lattice_points",
]

# the only backend; kept as a name because perfbench/run.py records it
ACTIVE_BACKEND = "numpy"

# momenta per block of an _omegas slab: bounds the temporaries of a sum at
# _Q_BLOCK times one slab, whatever the number of momenta
_Q_BLOCK = 8


def lattice_points(n_max: int) -> int:
    """Number of lattice sites visited for a given shell half-width."""
    side = 2 * n_max + 1
    return side * side * side


def _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n):
    """Yield (count, w, eps, base, nz) for each nz slab of the masked lattice.

    One entry per distinct nx**2 + ny**2 over the square [-n_max, n_max]**2;
    count is the number of (nx, ny) sites that share it. base = eps + p**2/2M
    is omega without its momentum term, which _omegas adds.
    """
    idx = np.arange(-n_max, n_max + 1)
    sq = idx * idx
    counts = np.bincount(np.add.outer(sq, sq).ravel())
    perp = np.flatnonzero(counts)
    counts = counts[perp]
    perp2 = perp.astype(np.float64)
    for nz in idx:
        p2 = (perp2 + float(nz * nz)) * dk * dk
        mask = (p2 > 0.0) & (p2 <= p_cut2)
        if not mask.any():
            continue
        p2m = p2[mask]
        eps = np.sqrt(p2m * (p2m + 4.0 * m * nU0)) / (2.0 * m)
        w = g2n * p2m / (2.0 * m * eps)
        yield counts[mask], w, eps, eps + p2m / (2.0 * M_imp), nz


def _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q):
    """Yield (count, w, eps, om) per nz slab and, in order, per block of _Q_BLOCK momenta of q.

    q is a 1-D float array. count, w and eps are (1, entries) rows, and
    om = base - q*dk*nz/M_imp is (momenta, entries), from a q*dk*nz/M_imp table
    built once per block: nz*(q*dk) is (q*dk)*nz exactly, so each momentum
    keeps the bits of its own one-momentum block.
    """
    nz_all = np.arange(-n_max, n_max + 1, dtype=np.float64)
    shifts = [np.multiply.outer(nz_all, q[lo:lo + _Q_BLOCK] * dk)[..., None] / M_imp
              for lo in range(0, q.size, _Q_BLOCK)]
    for count, w, eps, base, nz in _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n):
        # as (1, entries) rows they match a one-momentum block's shape; broadcasting a
        # 1-D array instead costs about 1.5 us per numpy call, 10% of a small lattice
        count, w, eps, base = count[None], w[None], eps[None], base[None]
        for shift in shifts:
            yield count, w, eps, base - shift[n_max + nz]


def lorentzian_sums(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i, eta):
    """Broadened golden-rule sums: (sum w/(om^2+eta^2), sum w*eps/(om^2+eta^2)).

    q_i is a float or a 1-D array, and the two sums are floats or arrays to
    match. One pass over the slabs serves every momentum; each momentum's
    sums are accumulated slab by slab with the arithmetic of its own call.
    """
    q = np.asarray(q_i, dtype=float)
    flat = q.reshape(-1)
    s_t = np.zeros(q.size)
    s_e = np.zeros(q.size)
    # views, one per block in the order _omegas yields them: the sums add up in place
    blocks = [(s_t[lo:lo + _Q_BLOCK], s_e[lo:lo + _Q_BLOCK]) for lo in range(0, q.size, _Q_BLOCK)]
    eta2 = eta * eta
    walk = _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n, flat)
    for (t, e), (count, w, eps, om) in zip(cycle(blocks), walk):
        lor = count * (w / (om * om + eta2))
        t += lor.sum(axis=1)
        e += (lor * eps).sum(axis=1)
    return s_t.reshape(q.shape)[()], s_e.reshape(q.shape)[()]


def finite_time_sum(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i, t_time):
    """Transition weight sum: sum over modes of w * finite-time kernel.

    t_time is a float or a 1-D array of times, each held to the scalar
    nonnegative "time" rule, and the sums are a float or an array to match.
    One pass over the slabs serves every time: the kernel is formed as a
    (times, entries) block per slab, and each time's sum keeps the bits of
    its own one-time call.
    """
    t, pack = _entries(t_time, "time", "times")
    times = t[:, None]
    acc = np.zeros(t.size)
    for count, w, _eps, om in _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n, np.array([q_i])):
        acc += (count * (w * _finite_time_kernel(om, times))).sum(axis=1)
    return pack(acc)


def inverse_square_sum(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """Kernel-bound sum: sum over modes of 4*w/omega^2 (subcritical only)."""
    acc = 0.0
    for count, w, _eps, om in _omegas(n_max, dk, p_cut2, m, M_imp, nU0, g2n, np.array([q_i])):
        acc += float(np.sum(count * (4.0 * w / (om * om))))
    return acc
