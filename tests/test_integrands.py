"""The integrand shape contract: any array of abscissae in, the same shape out.

Each package integrand is captured where its route hands it to integrate,
and one call on a block of nodes must keep the block's shape and give, row
for row, the bits of a call on that row alone. That is what lets a
quadrature evaluate many panels in one call.
"""

import numpy as np
import pytest

from becimpurity import (
    SystemParams,
    derive,
    effective_mass_quadrature,
    energy_shift_quadrature,
    transition_rate_quadrature,
)
from becimpurity import quadrature, rates, selfenergy
from becimpurity.quadrature import _NODES


def _captured_integrands(monkeypatch):
    """Wrap integrate at each module binding a route calls it through; list each (f, a, b)."""
    seen = []
    for module in (rates, selfenergy, quadrature):

        def capture(f, a, b, *args, _original=module.integrate, **kwargs):
            seen.append((f, a, b))
            return _original(f, a, b, *args, **kwargs)

        monkeypatch.setattr(module, "integrate", capture)
    return seen


def _hex(values):
    return [v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_every_package_integrand_maps_a_block_as_it_maps_its_rows(monkeypatch, scale):
    # the sound speed, and so q_c and 2mc, is scale
    params = SystemParams(a=0.01, n=scale * scale)
    seen = _captured_integrands(monkeypatch)
    q_c = derive(params).q_c
    transition_rate_quadrature(2.0 * q_c, params)           # the gamma_T shape and gamma_E
    energy_shift_quadrature(0.0, params, 200.0 * scale)     # the shift at rest
    energy_shift_quadrature(0.5 * q_c, params, 200.0 * scale)  # the shift in motion
    effective_mass_quadrature(params)                       # the transformed curvature
    assert len(seen) == 5
    u = np.random.default_rng(7).uniform(size=(257, 15))
    # momenta for the four p-integrands; integrate_semi_infinite's takes t in (0, 1)
    for (f, a, b), x in zip(seen, [scale * u] * 4 + [u]):
        # and the Gauss-Kronrod nodes of 64 panels inside its own interval
        b = float(np.min(b))  # the rate route's one bound comes as a 1-entry array
        edges = np.linspace(a, b, 65)
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _NODES
        assert nodes.shape == (64, 15) and a < nodes.min() and nodes.max() < b
        for x in (x, nodes):
            block = f(x)
            assert block.shape == x.shape
            assert _hex(block) == _hex([f(row) for row in x])
