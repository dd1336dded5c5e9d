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
