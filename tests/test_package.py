import ast
import pathlib

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


# the fits that go to LAPACK and the products that numpy hands to BLAS
_LAPACK_NAMES = {"polyfit", "lstsq", "linalg", "dot", "inner", "vdot", "matmul", "tensordot"}


def _lapack_uses(source):
    """The LAPACK and BLAS entry points named in source, the @ products and optimized einsums."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _LAPACK_NAMES:
            uses.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in _LAPACK_NAMES:
            uses.append(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            uses += [name for name in names if _LAPACK_NAMES & set(name.split("."))]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append("@")
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
              and any(kw.arg == "optimize" for kw in node.keywords)):
            uses.append("einsum optimize")  # optimize hands contractions to tensordot
    return uses


def test_no_module_fits_or_multiplies_through_lapack_or_blas():
    # the check suite's straight-line fits are closed form (checks._slope) and the
    # Gauss-Kronrod sums numpy's own einsum, so a run never starts LAPACK or BLAS,
    # whose kernels OpenBLAS picks by CPU; each entry point below is refused
    package = pathlib.Path(becimpurity.__file__).parent
    found = {p.name: _lapack_uses(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
    # each form is seen
    assert _lapack_uses("slope = np.polyfit(x, y, 1)[0]") == ["polyfit"]
    assert _lapack_uses("np.linalg.lstsq(a, b)") == ["lstsq", "linalg"]
    assert _lapack_uses("from numpy.linalg import solve") == ["numpy.linalg"]
    assert _lapack_uses("import numpy.linalg as la") == ["numpy.linalg"]
    assert _lapack_uses("from numpy import polyfit as fit") == ["polyfit"]
    assert _lapack_uses("c = a @ b\nc @= b") == ["@", "@"]
    assert _lapack_uses("s = np.dot(w, y)") == ["dot"]
    assert _lapack_uses("s = y.dot(w)") == ["dot"]
    assert _lapack_uses("s = np.inner(w, y)") == ["inner"]
    assert _lapack_uses("s = np.vdot(w, y)") == ["vdot"]
    assert _lapack_uses("s = np.matmul(y, w)") == ["matmul"]
    assert _lapack_uses("s = np.tensordot(y, w, 1)") == ["tensordot"]
    assert _lapack_uses('s = np.einsum("ij,j->i", y, w, optimize=True)') == ["einsum optimize"]
    assert _lapack_uses('s = np.einsum("ij,j->i", y, w)') == []
    assert _lapack_uses("@functools.cache\ndef f(): pass") == []


# numpy's transcendental and power ufuncs, whose loops numpy picks by CPU
_DISPATCHED = {
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
    "arcsinh", "arccosh", "arctanh", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
    "power", "float_power", "cbrt",
}


def _dispatched_uses(source):
    """The np.<ufunc> attributes of source that name a transcendental or power ufunc."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "np" and node.attr in _DISPATCHED]


def test_outputs_take_no_transcendental_or_power_ufunc_of_numpy():
    # outputs take these from libm through bogoliubov._libm; what remains: log1p in
    # the fallback of _log1p (at -1 and below, where every loop gives -inf or nan)
    # and the finite-time kernel's sin, which check reads and test_cli's dispatch
    # test compares; a ** on an array is not seen here
    package = pathlib.Path(becimpurity.__file__).parent
    found = {p.name: _dispatched_uses(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {
        "bogoliubov.py": ["log1p"], "_kernels.py": ["sin"]}
    assert _dispatched_uses("u = 2.0 * np.arcsinh(x) + math.asinh(y)") == ["arcsinh"]
