"""Lattice summation kernels for the finite-box oracle.

The box oracle sums over every momentum p = (2*pi/L) * (nx, ny, nz) inside a
sphere |p| <= p_cut, origin excluded, with the impurity momentum along z.
These triple sums are the only hot loops in the package. They are numpy
lattice-sum kernels that work one nz slab at a time, which bounds memory by
one (2*n_max + 1)**2 plane. All kernels are deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from .kinematics import finite_time_kernel

__all__ = [
    "ACTIVE_BACKEND",
    "lorentzian_sums",
    "finite_time_sum",
    "inverse_square_sum",
    "lattice_points",
]

# the only backend; kept as a name because perfbench/run.py records it
ACTIVE_BACKEND = "numpy"


def lattice_points(n_max: int) -> int:
    """Number of lattice sites visited for a given shell half-width."""
    side = 2 * n_max + 1
    return side * side * side


def _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """Yield (w, eps, omega) arrays for each nz slab of the masked lattice."""
    idx = np.arange(-n_max, n_max + 1)
    gx, gy = np.meshgrid(idx, idx, indexing="ij")
    perp2 = (gx * gx + gy * gy).astype(np.float64)
    for nz in idx:
        p2 = (perp2 + float(nz * nz)) * dk * dk
        mask = (p2 > 0.0) & (p2 <= p_cut2)
        if not mask.any():
            continue
        p2m = p2[mask]
        eps = np.sqrt(p2m * (p2m + 4.0 * m * nU0)) / (2.0 * m)
        w = g2n * p2m / (2.0 * m * eps)
        om = eps + p2m / (2.0 * M_imp) - q_i * dk * float(nz) / M_imp
        yield w, eps, om


def lorentzian_sums(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i, eta):
    """Broadened golden-rule sums: (sum w/(om^2+eta^2), sum w*eps/(om^2+eta^2))."""
    s_t = 0.0
    s_e = 0.0
    eta2 = eta * eta
    for w, eps, om in _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
        lor = w / (om * om + eta2)
        s_t += float(np.sum(lor))
        s_e += float(np.sum(lor * eps))
    return s_t, s_e


def finite_time_sum(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i, t_time):
    """Transition weight sum: sum over modes of w * finite-time kernel."""
    acc = 0.0
    for w, _eps, om in _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
        acc += float(np.sum(w * finite_time_kernel(om, t_time)))
    return acc


def inverse_square_sum(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """Kernel-bound sum: sum over modes of 4*w/omega^2 (subcritical only)."""
    acc = 0.0
    for w, _eps, om in _slabs(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
        acc += float(np.sum(4.0 * w / (om * om)))
    return acc
