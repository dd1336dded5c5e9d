import numpy as np

import becimpurity
from becimpurity import (
    bogoliubov,
    checks,
    errors,
    kinematics,
    params,
    quadrature,
    rates,
    selfenergy,
)

_MODULES = (errors, params, bogoliubov, kinematics, quadrature, rates, selfenergy, checks)


def test_package_exports_exactly_what_the_modules_export():
    # a name dropped from a module cannot survive in the package surface
    names = {"__version__"}.union(*(module.__all__ for module in _MODULES))
    assert len(becimpurity.__all__) == len(set(becimpurity.__all__))
    assert set(becimpurity.__all__) == names
    for name in names:
        assert hasattr(becimpurity, name), name


def test_runtime_imports_neither_test_dependency():
    # mpmath and hypothesis are test extras; the package and its rate routes use numpy only
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(becimpurity.__file__).resolve().parent.parent
    code = (
        "import sys, numpy as np, becimpurity\n"
        "becimpurity.transition_rate(np.linspace(0.5, 3.0, 7), becimpurity.SystemParams(g=1.0))\n"
        "print(sorted({'mpmath', 'hypothesis'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_energy_scales_are_0d_arrays_and_scalar_calls_return_floats():
    # 0-d float64 scales spare each integrand call a scalar conversion per ufunc
    unit = params.SystemParams(g=1.0)
    for scale in bogoliubov._energy_scales(unit):
        assert type(scale) is np.ndarray and scale.shape == () and scale.dtype == np.float64
    # ... and the scalar results built on them stay built-in floats
    weak = params.SystemParams(a=0.01, M=3.0)
    for value in (
        bogoliubov.dispersion(2.0, unit),
        bogoliubov.coupling_weight(2.0, unit),
        rates.emission_spectral_density(0.5, 2.0, unit),
        rates.transition_rate_quadrature(2.0, unit).gamma_T,
        selfenergy.energy_shift_quadrature(0.5, weak, 200.0),
        selfenergy.effective_mass_quadrature(weak).M_ef,
        selfenergy.effective_mass_finite_difference(weak).M_ef,
    ):
        assert type(value) is float, type(value)
