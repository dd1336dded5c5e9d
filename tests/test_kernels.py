"""Lattice kernels against a pure-Python reference sum.

The reference visits every lattice mode in a scalar triple loop, applies the
same per-element formulas as the numpy slab kernels, and sums with math.fsum,
so any disagreement beyond rounding is a kernel bug. The slabs hold one entry
per distinct nx**2 + ny**2 with a multiplicity; the mode-count tests pin that
those multiplicities cover exactly the modes of the full lattice.
"""

import math

import numpy as np
import pytest

from becimpurity import BoxOracleConfig, ConfigurationError, SystemParams, box_rate
from becimpurity import _kernels

# n_max kept small so the pure-python reference loop stays fast
_ARGS = (15, 2.0 * math.pi / 30.0, 9.0, 1.0, 1.0, 1.0, 1.0, 2.0)
_SUB_ARGS = (15, 2.0 * math.pi / 30.0, 9.0, 1.0, 1.0, 1.0, 1.0, 0.5)
# m = 0.9, M = 1.7, nU0 = 1.3: q_c = 2.04, and no factor of omega is a power of two,
# so a reordering of q_i * dk * nz / M_imp moves the last bits
_ODD = (0.9, 1.7, 1.3, 0.7)


def _reference_sum(summand, n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """math.fsum of summand(w, eps, omega) over the modes 0 < |p|**2 <= p_cut2."""
    terms = []
    for nx in range(-n_max, n_max + 1):
        for ny in range(-n_max, n_max + 1):
            for nz in range(-n_max, n_max + 1):
                n2 = nx * nx + ny * ny + nz * nz
                p2 = n2 * dk * dk
                if n2 == 0 or p2 > p_cut2:
                    continue
                eps = math.sqrt(p2 * (p2 + 4.0 * m * nU0)) / (2.0 * m)
                w = g2n * p2 / (2.0 * m * eps)
                om = eps + p2 / (2.0 * M_imp) - q_i * dk * nz / M_imp
                terms.append(summand(w, eps, om))
    return math.fsum(terms)


def _finite_time_term(t):
    def term(w, _eps, om):
        z = om * t
        if abs(z) < 1e-4:
            return w * t * t * (1.0 - z * z / 12.0)
        return w * 4.0 * math.sin(0.5 * z) ** 2 / (om * om)

    return term


def _lorentzian_at(args, eta):
    """lorentzian_sums at the one momentum that ends args, as two floats."""
    s_t, s_e = _kernels.lorentzian_sums(*args[:-1], np.array(args[-1:]), eta)
    return s_t.item(), s_e.item()


def _finite_time_at(args, t):
    """finite_time_sum at the one time t, as a float."""
    return _kernels.finite_time_sum(*args, np.array([t])).item()


def _matches(got, summand, args):
    # abs=0: the finite-time sums at small t are far below pytest's default abs
    return got == pytest.approx(_reference_sum(summand, *args), rel=1e-12, abs=0.0)


def test_lorentzian_sums_match_reference():
    eta2 = 0.05 * 0.05
    s_t, s_e = _lorentzian_at(_ARGS, 0.05)
    assert _matches(s_t, lambda w, e, om: w / (om * om + eta2), _ARGS)
    assert _matches(s_e, lambda w, e, om: w / (om * om + eta2) * e, _ARGS)


def test_finite_time_sum_matches_reference():
    # every mode takes the series branch at t = 1e-7 and the oscillatory one
    # at t = 5; t = 2e-5 splits the modes between the two
    for t in (1e-7, 2e-5, 5.0):
        assert _matches(_finite_time_at(_ARGS, t), _finite_time_term(t), _ARGS)


def test_inverse_square_sum_matches_reference():
    got = _kernels.inverse_square_sum(*_SUB_ARGS)
    assert _matches(got, lambda w, e, om: 4.0 * w / (om * om), _SUB_ARGS)


def _slab_counts(n_max, dk, p_cut2):
    """(modes, entries): summed multiplicities and array lengths over the slabs.

    _slabs yields nz >= 0 only; slab nz > 0 stands for slabs -nz and +nz.
    """
    slabs = [(2 if nz else 1, c)
             for c, *_, nz in _kernels._slabs(n_max, dk, p_cut2, 1.0, 1.0, 1.0, 1.0)]
    return sum(k * int(c.sum()) for k, c in slabs), sum(k * c.size for k, c in slabs)


def _slabs_formed_per_slab(n_max, dk, p_cut2, m, M_imp, nU0, g2n):
    """_slabs with every factor formed on each slab's own p2: the reference for the shell tables."""
    idx = np.arange(-n_max, n_max + 1)
    sq = idx * idx
    counts = np.bincount(np.add.outer(sq, sq).ravel())
    perp = np.flatnonzero(counts)
    counts = counts[perp]
    perp2 = perp.astype(np.float64)
    end = perp2.size
    for nz in range(n_max + 1):
        p2 = (perp2[:end] + float(nz * nz)) * dk * dk
        lo = p2.searchsorted(0.0, "right")
        end = p2.searchsorted(p_cut2, "right")
        if lo >= end:
            continue
        p2m = p2[lo:end]
        eps = np.sqrt(p2m * (p2m + 4.0 * m * nU0)) / (2.0 * m)
        w = g2n * p2m / (2.0 * m * eps)
        yield counts[lo:end], w, eps, eps + p2m / (2.0 * M_imp), nz


@pytest.mark.parametrize("geometry", [
    _ARGS[:3],
    (3, 1.0, 100.0),                     # sphere beyond the cube: the square clips it
    (6, 1.0, 25.0),                      # on the shell n**2 = 25
    (8, 0.5, 4.0),                       # on the shell n**2 = 16, exact in binary
    (10, 1.0, 0.5),                      # p_cut2 below dk**2: no slab
    (115, 2.0 * math.pi / 240.0, 9.0),   # L = 240, p_cut = 3, as in the box workload
])
@pytest.mark.parametrize("physics", [_ARGS[3:7], _ODD])
def test_shell_tables_keep_every_slab_bit_for_bit(geometry, physics):
    got = list(_kernels._slabs(*geometry, *physics))
    want = list(_slabs_formed_per_slab(*geometry, *physics))
    assert [s[-1] for s in got] == [s[-1] for s in want]
    for (count, *factors, _), (count_ref, *factors_ref, _) in zip(got, want):
        assert np.array_equal(count, count_ref)
        for a, b in zip(factors, factors_ref):  # w, eps, base
            assert a.tobytes() == b.tobytes()


def _brute_mode_count(n_max, dk, p_cut2):
    r = range(-n_max, n_max + 1)
    return sum(
        1 for nx in r for ny in r for nz in r
        if 0.0 < (nx * nx + ny * ny + nz * nz) * dk * dk <= p_cut2
    )


@pytest.mark.parametrize("n_max, dk, p_cut2", [
    (15, 2.0 * math.pi / 30.0, 9.0),
    (6, 1.0, 25.0),               # on the shell nx**2 + ny**2 + nz**2 = 25
    (8, 0.5, 4.0),                # on the shell n**2 = 16, exact in binary
    (3, 1.0, 100.0),              # sphere beyond the cube: the square clips it
])
def test_slab_multiplicities_count_every_mode(n_max, dk, p_cut2):
    assert _slab_counts(n_max, dk, p_cut2)[0] == _brute_mode_count(n_max, dk, p_cut2)


def test_sphere_boundary_is_inclusive():
    on_shell = _slab_counts(6, 1.0, 25.0)[0]
    inside = _slab_counts(6, 1.0, math.nextafter(25.0, 0.0))[0]
    assert on_shell - inside == 30  # lattice points with n**2 = 25


def _full_lattice_modes(n_max, dk, p_cut2, m, M_imp, nU0, g2n, q_i):
    """(w, eps, omega) at every mode of the 3-D lattice, one array each."""
    idx = np.arange(-n_max, n_max + 1)
    gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
    p2 = (gx * gx + gy * gy + gz * gz).astype(np.float64) * dk * dk
    mask = (p2 > 0.0) & (p2 <= p_cut2)
    p2, nz = p2[mask], gz[mask].astype(np.float64)
    eps = np.sqrt(p2 * (p2 + 4.0 * m * nU0)) / (2.0 * m)
    w = g2n * p2 / (2.0 * m * eps)
    om = eps + p2 / (2.0 * M_imp) - q_i * dk * nz / M_imp
    return w, eps, om


def test_lorentzian_sums_match_full_lattice_fsum():
    args = (40, 2.0 * math.pi / 80.0, 9.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    eta2 = 0.02 * 0.02
    w, eps, om = _full_lattice_modes(*args)
    lor = w / (om * om + eta2)
    s_t, s_e = _lorentzian_at(args, 0.02)
    assert s_t == pytest.approx(math.fsum(lor.tolist()), rel=1e-13, abs=0.0)
    assert s_e == pytest.approx(math.fsum((lor * eps).tolist()), rel=1e-13, abs=0.0)


def test_slabs_hold_distinct_perpendicular_norms_not_sites():
    # L = 200, p_cut = 3: n_max = 96, about 3.6M modes
    modes, entries = _slab_counts(96, 2.0 * math.pi / 200.0, 9.0)
    assert entries < modes / 5


def test_active_backend_is_valid():
    assert _kernels.ACTIVE_BACKEND == "numpy"


def test_box_config_validation():
    with pytest.raises(ConfigurationError):
        BoxOracleConfig(L=0.0)
    with pytest.raises(ConfigurationError):
        BoxOracleConfig(eta=-0.1)
    with pytest.raises(ConfigurationError):
        BoxOracleConfig(p_cut=0.0)


def test_box_rate_requires_cut_beyond_window():
    params = SystemParams(g=1.0)
    with pytest.raises(ConfigurationError, match="p_cut"):
        box_rate(2.0, params, BoxOracleConfig(L=30.0, eta=0.05, p_cut=1.4))


def test_box_rate_point_budget_guard():
    params = SystemParams(g=1.0)
    big = BoxOracleConfig(L=1e4, eta=0.05, p_cut=3.0)
    with pytest.raises(ConfigurationError, match="budget"):
        box_rate(2.0, params, big)


def test_lattice_budget_counts_every_site_of_the_cube():
    # dk = 1 and p_cut = 2: n_max = 2, so the cube [-2, 2]**3 holds 125 sites
    cube = dict(L=2.0 * math.pi, eta=0.05, p_cut=2.0)
    with pytest.raises(ConfigurationError, match="^lattice would hold 125 points, above the budget 124;"):
        box_rate(0.0, SystemParams(g=1.0), BoxOracleConfig(**cube, max_points=124))
    assert box_rate(0.0, SystemParams(g=1.0), BoxOracleConfig(**cube, max_points=125)).method == "box"


# q_i spans q_c: subcritical residue and resonant slabs in one array, over several q-blocks
_GRID = np.linspace(0.0, 2.75, 3 * _kernels._Q_BLOCK + 3)


@pytest.mark.parametrize("L", [30.0, 60.0])
def test_lorentzian_sums_over_momenta_match_each_momentum_bit_for_bit(L):
    dk = 2.0 * math.pi / L
    args = (math.ceil(3.0 / dk), dk, 9.0, *_ODD)
    s_t, s_e = _kernels.lorentzian_sums(*args, _GRID, 3.0 / L)
    assert s_t.shape == s_e.shape == _GRID.shape
    for q_i, t, e in zip(_GRID.tolist(), s_t.tolist(), s_e.tolist()):
        one_t, one_e = _lorentzian_at((*args, q_i), 3.0 / L)
        assert (t.hex(), e.hex()) == (one_t.hex(), one_e.hex())


@pytest.mark.parametrize("args, q, eta", [
    # L = 240, p_cut = 3, eta = 3/L and g = 1: the largest box of the workload
    ((115, 2.0 * math.pi / 240.0, 9.0, 1.0, 1.0, 1.0, 1.0), [1.5, 1.9, 2.25, 2.6], 3.0 / 240.0),
    ((15, 2.0 * math.pi / 30.0, 9.0, *_ODD), _GRID, 0.1),
])
def test_transition_pass_keeps_the_bits_of_the_full_pass(args, q, eta):
    q = np.asarray(q)
    for scale in (1.0, 2.0):  # box_rate's two passes
        s_t, _ = _kernels.lorentzian_sums(*args, q, scale * eta)
        (alone,) = _kernels.lorentzian_sums(*args, q, scale * eta, _energy=False)
        assert alone.tobytes() == s_t.tobytes()


def test_lorentzian_sums_keep_the_shape_of_the_momenta():
    s_t, s_e = _kernels.lorentzian_sums(*_ARGS[:-1], np.array([2.0]), 0.05)
    assert s_t.shape == s_e.shape == (1,)
    s_t, s_e = _kernels.lorentzian_sums(*_ARGS[:-1], np.array([]), 0.05)
    assert s_t.shape == s_e.shape == (0,)


# the finite-time and kernel-bound sums behind golden_rule_linear_regime and
# subcritical_survival_*: L = 60, p_cut = 3, so n_max = 29
_DK60 = 2.0 * math.pi / 60.0


@pytest.mark.parametrize("g, q_i, t, expected", [
    (0.3, 2.0, float.fromhex("0x1.6db447e2e8966p+2"), "0x1.191405e52f688p+12"),
    (0.3, 2.0, float.fromhex("0x1.6db447e2e8966p+3"), "0x1.1585d235a4e2ep+13"),
    (1.0, 0.5, 1.0, "0x1.0076e3430f8a4p+13"),
    (1.0, 0.5, 5.0, "0x1.1ed6b920f3904p+13"),
    (1.0, 0.5, 20.0, "0x1.197445a5d4ae6p+13"),
    (1.0, 0.5, 100.0, "0x1.167c7baa7f1f4p+13"),
    (1.0, 0.5, 200.0, "0x1.1b698a28b3a85p+13"),
])
def test_finite_time_sum_keeps_its_bits(g, q_i, t, expected):
    args = (29, _DK60, 9.0, 1.0, 1.0, 1.0, g * g, q_i)
    assert _finite_time_at(args, t).hex() == expected


def test_inverse_square_sum_keeps_its_bits():
    args = (29, _DK60, 9.0, 1.0, 1.0, 1.0, 1.0, 0.5)
    assert _kernels.inverse_square_sum(*args).hex() == "0x1.1641d9a98b70bp+14"
    args = (15, 2.0 * math.pi / 30.0, 9.0, *_ODD, 0.83)
    assert _kernels.inverse_square_sum(*args).hex() == "0x1.7f678a8052e27p+10"


@pytest.mark.parametrize("q_i, s_t, s_e, finite_time", [
    (0.83, "0x1.7b84110b67f0dp+8", "0x1.dc2c7a5c568a2p+9", "0x1.9138bd656083dp+9"),
    (2.31, "0x1.b49738562f0c5p+9", "0x1.a7bfa41a5543bp+10", "0x1.7b01e02130a29p+10"),
])
def test_lattice_sums_keep_their_bits_where_omega_rounds(q_i, s_t, s_e, finite_time):
    args = (15, 2.0 * math.pi / 30.0, 9.0, *_ODD)
    sums = _lorentzian_at((*args, q_i), 0.1)
    assert (sums[0].hex(), sums[1].hex()) == (s_t, s_e)
    many = _kernels.lorentzian_sums(*args, np.array([q_i, 1.0]), 0.1)
    assert (many[0][0].hex(), many[1][0].hex()) == (s_t, s_e)
    assert _finite_time_at((*args, q_i), 3.7).hex() == finite_time


@pytest.mark.parametrize("L", [30.0, 60.0])
def test_finite_time_sum_over_times_matches_each_time_bit_for_bit(L):
    # t = 1e-5 puts some modes on the series side of the kernel, t = 0 all of them
    dk = 2.0 * math.pi / L
    args = (math.ceil(3.0 / dk), dk, 9.0, *_ODD, 2.31)
    times = np.array([0.0, 1e-5, 0.37, 3.7, 20.0, 200.0, 1e4])
    sums = _kernels.finite_time_sum(*args, times)
    assert sums.shape == times.shape
    for t, s in zip(times.tolist(), sums.tolist()):
        assert s.hex() == _finite_time_at(args, t).hex()


def test_finite_time_sum_keeps_the_shape_of_the_times():
    assert _kernels.finite_time_sum(*_ARGS, np.array([1.0])).shape == (1,)
    assert _kernels.finite_time_sum(*_ARGS, np.array([1.0, 2.0])).shape == (2,)
    assert _kernels.finite_time_sum(*_ARGS, np.array([])).shape == (0,)


def test_box_rate_keeps_its_bits_at_workload_scale():
    # L = 160, p_cut = 3 (n_max = 77) and eta = 3/L, as in the box workload: 1,867,480
    # modes in 87,537 entries of 77 slabs, the middle one and 76 pairs of -nz and +nz
    r = box_rate(np.array([1.7, 2.05, 2.4]), SystemParams(g=1.0),
                 BoxOracleConfig(L=160.0, eta=3.0 / 160.0, p_cut=3.0))
    assert [v.hex() for v in r.gamma_T.tolist()] == [
        "0x1.4d68bd40ed775p-6", "0x1.5c3c0d4c4f7b4p-5", "0x1.1d3218699caefp-4"]
    assert [v.hex() for v in r.gamma_E.tolist()] == [
        "0x1.4c2d90c8a5db6p-6", "0x1.e80f178fe1125p-5", "0x1.0b685815a64afp-3"]
    assert [v.hex() for v in r.est_error.tolist()] == [
        "0x1.80dcf150e6be2p-6", "0x1.ac2074ad906ecp-8", "0x1.117cb056b7294p-7"]


def test_box_rate_keeps_its_bits_at_the_largest_workload_box():
    # L = 240, p_cut = 3 (n_max = 115) and eta = 3/L, the largest box of the workload:
    # about 6.3M modes in 115 slabs, 277,917 entries gathered from 13,131 shells
    r = box_rate(np.array([1.5, 1.9, 2.25, 2.6]), SystemParams(g=1.0),
                 BoxOracleConfig(L=240.0, eta=3.0 / 240.0, p_cut=3.0))
    assert [v.hex() for v in r.gamma_T.tolist()] == [
        "0x1.519212ab421fbp-7", "0x1.0930a11fa33b3p-5",
        "0x1.d5407fb0002b1p-5", "0x1.5b29d75cb36ffp-4"]
    assert [v.hex() for v in r.gamma_E.tolist()] == [
        "0x1.0658643f1ff37p-7", "0x1.3de70b2588d28p-5",
        "0x1.851646cede5dbp-4", "0x1.7882096701036p-3"]
    assert [v.hex() for v in r.est_error.tolist()] == [
        "0x1.ad31827c57371p-5", "0x1.04a0a5fcfd9f2p-8",
        "0x1.6f340c7cada37p-10", "0x1.6fdd49965a76fp-9"]
