"""The shared rules: the positivity rule, the real-input test and the out-of-range report."""

import ast
import pathlib

import numpy as np
import pytest

import becimpurity
from becimpurity import (
    I0,
    I1,
    BoxOracleConfig,
    ConfigurationError,
    DomainError,
    NumericalError,
    ParameterDomainError,
    SystemParams,
    box_rate,
    derive,
    dispersion,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    emission_window,
    energy_shift_closed,
    energy_shift_quadrature,
    energy_spectrum,
    integrate,
    max_emission_momentum,
    mean_field_shift,
    omega,
    survival_lower_bound,
    survival_probability,
    transition_rate,
    transition_rate_quadrature,
)
from becimpurity.errors import _in_float_range, _real_array, _require
from becimpurity.params import renormalized_coupling
from becimpurity.quadrature import integrate_semi_infinite, second_derivative

UNIT = SystemParams(g=1.0)
DILUTE = SystemParams(a=0.01)
_QC = derive(DILUTE).q_c
BOX = BoxOracleConfig(L=60.0, eta=0.05, p_cut=3.0)
# p_cut < 2*pi/L: no lattice mode, so the finite-time kernel never sees t
EMPTY_BOX = BoxOracleConfig(L=1.0, eta=0.05, p_cut=3.0)


def _row(label, call, value, error, message):
    return pytest.param(call, value, error, message, id=label)


_QI = "initial momentum must be nonnegative and finite, got "

# (call, bad value, error class, exact message): each site that states the
# rule, then the behaviour that changed when the sites were unified
_SITES = [
    _row("SystemParams-M", lambda v: SystemParams(g=1.0, M=v), -1.0,
         ParameterDomainError, "M must be positive and finite, got -1.0"),
    _row("SystemParams-U0", lambda v: SystemParams(g=1.0, U0=v), float("nan"),
         ParameterDomainError, "U0 must be positive and finite, got nan"),
    _row("renormalized_coupling-m_r", lambda v: renormalized_coupling(0.01, v, 10.0), 0.0,
         ParameterDomainError, "m_r must be positive and finite, got 0.0"),
    _row("renormalized_coupling-cutoff", lambda v: renormalized_coupling(0.01, 0.5, v), -1.0,
         DomainError, "cutoff must be nonnegative and finite, got -1.0"),
    _row("BoxOracleConfig-L", lambda v: BoxOracleConfig(L=v), float("inf"),
         ConfigurationError, "L must be positive and finite, got inf"),
    _row("BoxOracleConfig-eta", lambda v: BoxOracleConfig(eta=v), 0,
         ConfigurationError, "eta must be positive and finite, got 0"),
    _row("survival_probability-t", lambda v: survival_probability(0.5, UNIT, EMPTY_BOX, v), -1.0,
         DomainError, "time must be nonnegative and finite, got -1.0"),
    _row("survival_probability-times",
         lambda v: survival_probability(0.5, UNIT, EMPTY_BOX, np.array([1.0, v])), float("inf"),
         DomainError, "time must be nonnegative and finite, got inf"),
    _row("survival_probability-times-shape",
         lambda v: survival_probability(0.5, UNIT, EMPTY_BOX, v), np.ones((1, 2)),
         DomainError, "times must be a float or a 1-D array, got shape (1, 2)"),
    _row("second_derivative-h", lambda v: second_derivative(abs, 0.0, v), 0.0,
         DomainError, "step h must be positive and finite, got 0.0"),
    _row("I0", I0, -0.5, DomainError, "mass ratio must be positive and finite, got -0.5"),
    _row("I1", I1, 0.0, DomainError, "mass ratio must be positive and finite, got 0.0"),
    _row("energy_shift_quadrature-cutoff",
         lambda v: energy_shift_quadrature(0.0, SystemParams(a=0.01), v), 0.0,
         DomainError, "cutoff must be positive and finite, got 0.0"),
    _row("transition_rate-q_i", lambda v: transition_rate(v, UNIT), -1.0, DomainError, _QI + "-1.0"),
    _row("transition_rate_quadrature-q_i", lambda v: transition_rate_quadrature(v, UNIT),
         float("nan"), DomainError, _QI + "nan"),
    _row("omega-q_i", lambda v: omega(1.0, 0.5, v, UNIT), -1.0, DomainError, _QI + "-1.0"),
    _row("max_emission_momentum-q_i", lambda v: max_emission_momentum(v, UNIT), float("inf"),
         DomainError, _QI + "inf"),
    _row("emission_window-q_i", lambda v: emission_window(v, UNIT), -2.0, DomainError, _QI + "-2.0"),
    _row("box_rate-q_i", lambda v: box_rate(v, UNIT, BOX), -1.0, DomainError, _QI + "-1.0"),
    _row("survival_lower_bound-q_i", lambda v: survival_lower_bound(v, UNIT, BOX), -1.0,
         DomainError, _QI + "-1.0"),
    # non-numeric input raises the package error, where numpy raised TypeError
    _row("str-q_i", lambda v: transition_rate(v, UNIT), "2", DomainError, _QI + "'2'"),
    _row("None-ratio", I0, None, DomainError, "mass ratio must be positive and finite, got None"),
    _row("str-t", lambda v: survival_probability(0.5, UNIT, EMPTY_BOX, v), "1", DomainError,
         "time must be nonnegative and finite, got '1'"),
    # a 0-d array is not a scalar; the initial-momentum check used to take it
    _row("0d-q_i", lambda v: transition_rate(v, UNIT), np.array(2.0), DomainError,
         _QI + "array(2.)"),
    _row("0d-t", lambda v: survival_probability(0.5, UNIT, EMPTY_BOX, v), np.array(1.0), DomainError,
         "time must be nonnegative and finite, got array(1.)"),
    # numeric strings are refused where momenta are not held to the scalar rule
    _row("str-energy_shift_quadrature-q_i",
         lambda v: energy_shift_quadrature(v, DILUTE, 200.0), "0.5", DomainError,
         f"energy shift is defined for |q_i| < q_c = {_QC}, got '0.5'"),
    _row("str-energy_spectrum-q_i", lambda v: energy_spectrum(v, DILUTE), ["0.5"], DomainError,
         f"spectrum is defined for |q_i| < q_c = {_QC}, got '0.5'"),
    _row("str-dispersion-p", lambda v: dispersion(v, UNIT), "2", DomainError,
         "momentum magnitude must be nonnegative and finite"),
    # input types that leaked a raw TypeError or passed where no other input does
    _row("energy_spectrum-2d", lambda v: energy_spectrum(v, DILUTE), np.zeros((2, 2)),
         DomainError, "initial momenta must be a float or a 1-D array, got shape (2, 2)"),
    # a list's entries are read one by one, as the rates read them: a nested one is an offender
    _row("energy_spectrum-nested", lambda v: energy_spectrum(v, DILUTE), [[0.1]],
         DomainError, f"spectrum is defined for |q_i| < q_c = {_QC}, got [0.1]"),
    _row("str-integrate-b", lambda v: integrate(abs, 0.0, v), "1", DomainError,
         "integration bounds must be real numbers, got a=0.0, b='1'"),
    _row("str-integrate-a", lambda v: integrate(abs, v, 1.0), "0", DomainError,
         "integration bounds must be real numbers, got a='0', b=1.0"),
    _row("None-integrate-a", lambda v: integrate(abs, v, 1.0), None, DomainError,
         "integration bounds must be real numbers, got a=None, b=1.0"),
    _row("bool-effective_mass_quadrature-tol",
         lambda v: effective_mass_quadrature(DILUTE, tol=v), True,
         ConfigurationError, "tol must be positive, got True"),
    _row("bool-integrate-tol", lambda v: integrate(abs, 0, 1, v), True,
         ConfigurationError, "tol must be positive, got True"),
    _row("str-transition_rate_quadrature-tol",
         lambda v: transition_rate_quadrature(2.0, UNIT, tol=v), "1e-9",
         ConfigurationError, "tol must be positive, got '1e-9'"),
    # faults that ended in nan with numpy's RuntimeWarnings or in a raw numpy error
    _row("survival_probability-phase",
         lambda v: survival_probability(0.5, UNIT, BoxOracleConfig(L=20.0), v), 1e308,
         NumericalError, "phase omega*t at t = 1e+308 leaves the float range"),
    _row("str-integrate_semi_infinite-a", lambda v: integrate_semi_infinite(abs, v), "0",
         DomainError, "integration bounds must be real numbers, got a='0', b=inf"),
    _row("None-integrate_semi_infinite-a", lambda v: integrate_semi_infinite(abs, v), None,
         DomainError, "integration bounds must be real numbers, got a=None, b=inf"),
    _row("ragged-dispersion-p", lambda v: dispersion(v, UNIT), [[0.1], 0.2], DomainError,
         "momentum magnitude must be nonnegative and finite"),
    _row("ragged-energy_spectrum-q_i", lambda v: energy_spectrum(v, DILUTE), [[0.1], 0.2],
         DomainError, f"spectrum is defined for |q_i| < q_c = {_QC}, got [0.1]"),
    _row("ragged-integrate-b", lambda v: integrate(abs, 0.0, v), [[0.1], 0.2], DomainError,
         "integration bounds must be real numbers, got a=0.0, b=[[0.1], 0.2]"),
    _row("effective_mass_closed-a", lambda v: effective_mass_closed(SystemParams(a=v)), 1e160,
         NumericalError, "closed-form mass correction at m/M = 1.0: its factors leave the float range"),
    # closed energies that came back as inf
    _row("energy_shift_closed-a", lambda v: energy_shift_closed(SystemParams(a=v)), 1e200,
         NumericalError, "closed-form energy shift at a = 1e+200 leaves the float range"),
    _row("energy_shift_closed-minus-a", lambda v: energy_shift_closed(SystemParams(a=v)), -1e200,
         NumericalError, "closed-form energy shift at a = -1e+200 leaves the float range"),
    _row("mean_field_shift-n", lambda v: mean_field_shift(SystemParams(a=1e10, n=v, U0=1e-300)),
         1e300, NumericalError, "mean-field shift at a = 10000000000.0 leaves the float range"),
    _row("energy_shift_closed-n",
         lambda v: energy_shift_closed(SystemParams(a=1e10, n=v, U0=1e-300)), 1e300,
         NumericalError, "mean-field shift at a = 10000000000.0 leaves the float range"),
    # the spectrum reads the closed energy before the closed mass, whose factors leave too
    _row("energy_spectrum-a", lambda v: energy_spectrum(0.0, SystemParams(a=v)), 1e200,
         NumericalError, "closed-form energy shift at a = 1e+200 leaves the float range"),
    # routes that squared a Python float a, where a raw OverflowError escaped
    _row("energy_shift_quadrature-a",
         lambda v: energy_shift_quadrature(0.0, SystemParams(a=v), 10.0), 1e200,
         NumericalError, "energy shift at q_i = 0.0 leaves the float range"),
    _row("effective_mass_quadrature-a", lambda v: effective_mass_quadrature(SystemParams(a=v)),
         1e200, NumericalError, "quadrature mass correction at m/M = 1.0 leaves the float range"),
    _row("effective_mass_finite_difference-a",
         lambda v: effective_mass_finite_difference(SystemParams(a=v)), 1e200,
         NumericalError, "energy shift at q_i = -0.02 leaves the float range"),
    # inputs that errors._real_array refuses, where a raw numpy or Python error escaped
    _row("huge-int-dispersion-p", lambda v: dispersion(v, UNIT), 10**400, DomainError,
         "momentum magnitude must be nonnegative and finite"),
    _row("ragged-omega-x", lambda v: omega(1.0, v, 2.0, UNIT), [[0.1], 0.2], DomainError,
         "direction cosine must lie in [-1, 1]"),
    _row("str-omega-x", lambda v: omega(1.0, v, 2.0, UNIT), "0.5", DomainError,
         "direction cosine must lie in [-1, 1]"),
    # the signed kind of the scalar rule, where a raw TypeError or OverflowError escaped
    _row("str-SystemParams-g", lambda v: SystemParams(g=v), "1", ParameterDomainError,
         "g must be finite, got '1'"),
    _row("array-SystemParams-g", lambda v: SystemParams(g=v), np.array([1.0, 2.0]),
         ParameterDomainError, "g must be finite, got array([1., 2.])"),
    _row("huge-int-SystemParams-a", lambda v: SystemParams(a=v), 10**400, ParameterDomainError,
         f"a must be finite, got {10**400!r}"),
    _row("SystemParams-g-inf", lambda v: SystemParams(g=v), float("inf"), ParameterDomainError,
         "g must be finite, got inf"),
    _row("str-renormalized_coupling-a", lambda v: renormalized_coupling(v, 1.0, 1.0), "x",
         ParameterDomainError, "a must be finite, got 'x'"),
    _row("str-second_derivative-x0", lambda v: second_derivative(abs, v, 0.1), "0",
         DomainError, "point x0 must be finite, got '0'"),
    # a stencil whose 12*h*h underflows, where a raw ZeroDivisionError escaped, and
    # one whose values overflow, where a nan came back
    _row("second_derivative-h-underflow", lambda v: second_derivative(lambda x: x * x, 0.0, v),
         1e-170, NumericalError, "second derivative at step h = 1e-170 leaves the float range"),
    _row("second_derivative-h-overflow", lambda v: second_derivative(lambda x: x * x, 0.0, v),
         1e300, NumericalError, "second derivative at step h = 1e+300 leaves the float range"),
    # a coupling derived to first Born order that leaves the float range
    _row("derived-g", lambda v: SystemParams(M=v, a=1e10), 1e-300, ParameterDomainError,
         "g = 2*pi*a/m_r with a = 10000000000.0 and m_r = 1e-300 leaves the float range"),
    _row("derived-a", lambda v: SystemParams(m=v, M=v, g=1e300), 1e300, ParameterDomainError,
         "a = g*m_r/(2*pi) with g = 1e+300 and m_r = 5e+299 leaves the float range"),
    # a derived scale that leaves the float range; c and q_c were stored as inf or 0.0
    _row("derived-c-inf", lambda v: SystemParams(n=1e308, U0=1e308, m=v, g=1.0), 1e-300,
         ParameterDomainError,
         "c = sqrt(n*U0/m) with n = 1e+308, U0 = 1e+308 and m = 1e-300 leaves the float range"),
    _row("derived-c-zero", lambda v: SystemParams(n=1e-320, U0=1e-320, m=v, g=1.0), 1e300,
         ParameterDomainError,
         "c = sqrt(n*U0/m) with n = 1e-320, U0 = 1e-320 and m = 1e+300 leaves the float range"),
    _row("derived-q_c", lambda v: SystemParams(n=1e-300, U0=1e-300, M=v, a=0.01), 1e-300,
         ParameterDomainError, "q_c = M*c with M = 1e-300 and c = 1e-300 leaves the float range"),
    _row("derived-2mc", lambda v: SystemParams(m=v, n=v, U0=v, g=1.0), 1e300,
         ParameterDomainError, "2*m*c with m = 1e+300 and c = 1e+150 leaves the float range"),
    # the prefactor's 0/0 let a RuntimeWarning escape before the error
    _row("energy_shift_quadrature-prefactor",
         lambda v: energy_shift_quadrature(0.0, SystemParams(M=v, g=1.0), 200.0), 1e-310,
         NumericalError, "energy shift at q_i = 0.0 leaves the float range"),
    # bounds and budgets that a raw error or a bool got past
    _row("huge-int-integrate-a", lambda v: integrate(abs, v, 1.0), 10**400, DomainError,
         f"integration bounds must be real numbers, got a={10**400!r}, b=1.0"),
    _row("huge-int-integrate_semi_infinite-a", lambda v: integrate_semi_infinite(abs, v), 10**400,
         DomainError, f"integration bounds must be real numbers, got a={10**400!r}, b=inf"),
    _row("bool-BoxOracleConfig-max_points", lambda v: BoxOracleConfig(max_points=v), True,
         ConfigurationError, "max_points must be a positive integer, got True"),
    _row("nan-integrate_semi_infinite-a", lambda v: integrate_semi_infinite(abs, v), float("nan"),
         DomainError, "lower bound must be finite"),
    _row("inf-integrate_semi_infinite-a", lambda v: integrate_semi_infinite(abs, v), float("inf"),
         DomainError, "lower bound must be finite"),
    # a box volume L**3 that the box routes divide by; it was 0 (a ZeroDivisionError
    # or nan) or a raw OverflowError, and the config now refuses it when it is built
    _row("survival_lower_bound-volume-zero",
         lambda v: survival_lower_bound(0.5, UNIT, BoxOracleConfig(L=v)), 1e-110,
         ConfigurationError, "box volume L**3 with L = 1e-110 leaves the float range"),
    _row("survival_probability-volume-zero",
         lambda v: survival_probability(0.5, UNIT, BoxOracleConfig(L=v), 1.0), 1e-110,
         ConfigurationError, "box volume L**3 with L = 1e-110 leaves the float range"),
    _row("survival_lower_bound-volume-inf",
         lambda v: survival_lower_bound(0.5, UNIT, BoxOracleConfig(L=v, p_cut=1e-118)), 1e120,
         ConfigurationError, "box volume L**3 with L = 1e+120 leaves the float range"),
    _row("survival_probability-volume-inf",
         lambda v: survival_probability(0.5, UNIT, BoxOracleConfig(L=v, p_cut=1e-118), 1.0), 1e120,
         ConfigurationError, "box volume L**3 with L = 1e+120 leaves the float range"),
    # one shape rule: an array of 2 dimensions where a float or a 1-D array is taken
    *(_row(f"{label}-2d", call, np.zeros((2, 2)), DomainError,
           f"{plural} must be a float or a 1-D array, got shape (2, 2)")
      for label, call, plural in [
          ("transition_rate", lambda v: transition_rate(v, UNIT), "initial momenta"),
          ("survival_probability", lambda v: survival_probability(0.5, UNIT, EMPTY_BOX, v), "times"),
          ("integrate", lambda v: integrate(abs, -1.0, v), "upper bounds"),
      ]),
    # one subcritical rule, naming the first offender; a numeric string is refused
    # by it too (the str- rows above)
    *(_row(f"{label}-{tag}", call, value, DomainError,
           f"{what} is defined for |q_i| < q_c = {_QC}, got {value!r}")
      for tag, value in [("q_c", _QC), ("minus-q_c", -_QC), ("nan", float("nan"))]
      for label, call, what in [
          ("energy_shift_quadrature", lambda v: energy_shift_quadrature(v, DILUTE, 200.0),
           "energy shift"),
          ("energy_spectrum", lambda v: energy_spectrum(v, DILUTE), "spectrum"),
      ]),
    _row("str-energy_spectrum-scalar", lambda v: energy_spectrum(v, DILUTE), "0.5", DomainError,
         f"spectrum is defined for |q_i| < q_c = {_QC}, got '0.5'"),
    _row("survival_lower_bound-q_c", lambda v: survival_lower_bound(v, DILUTE, BOX), _QC,
         DomainError, f"survival bound is defined for |q_i| < q_c = {_QC}, got {_QC!r}"),
]


@pytest.mark.parametrize("call, value, error, message", _SITES)
def test_each_site_raises_the_one_message(call, value, error, message):
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [np.float32(2.0), np.int64(2), np.float16(2.0), 2])
def test_numpy_and_int_scalars_are_accepted_and_stored_as_floats(value):
    params = SystemParams(g=1.0, M=value)
    assert type(params.M) is float and params.M == 2.0
    assert params == SystemParams(g=1.0, M=2.0)
    box = BoxOracleConfig(L=value * 10)
    assert type(box.L) is float and box.L == 20.0


def test_couplings_are_stored_as_floats_and_budgets_as_ints():
    # a bool coupling was stored as the bool, and a numpy integer budget was refused
    assert type(SystemParams(g=True).g) is float and SystemParams(g=True).g == 1.0
    assert type(SystemParams(a=np.int64(2)).a) is float
    box = BoxOracleConfig(max_points=np.int64(5))
    assert type(box.max_points) is int and box.max_points == 5


def test_require_returns_floats_and_refuses_out_of_range_ints():
    assert _require(np.float32(0.5), "x") == 0.5
    assert type(_require(3, "x")) is float
    assert _require(0, "x", kind="nonnegative") == 0.0
    assert str(_require(-0.0, "x", kind="nonnegative")) == "-0.0"
    with pytest.raises(DomainError, match=r"^x must be positive and finite, got 1000"):
        _require(10**400, "x")
    with pytest.raises(ConfigurationError, match=r"^x must be nonnegative and finite, got -1$"):
        _require(-1, "x", kind="nonnegative", error=ConfigurationError)
    assert _require(-2, "x", kind="signed") == -2.0
    with pytest.raises(DomainError, match=r"^x must be finite, got -inf$"):
        _require(-float("inf"), "x", kind="signed")


def test_the_positivity_rule_is_worded_in_errors_only():
    package = pathlib.Path(becimpurity.__file__).parent
    holders = sorted(p.name for p in package.glob("*.py") if "and finite, got" in p.read_text())
    assert holders == ["errors.py"]


def test_real_array_takes_real_scalars_and_numeric_arrays_only():
    assert _real_array(True).dtype == float and _real_array(3).shape == ()
    assert _real_array([1, 2.5]).tolist() == [1.0, 2.5]
    for value in ("1", [[0.1], 0.2], None, 10**400, [10**400], np.array(["1"])):
        assert _real_array(value) is None, value


_STAGES = "first stage at p = {!r}", "second stage at p = {!r}"


def test_out_of_range_report_names_the_first_failing_entry_in_c_order():
    at = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    first = np.ones((2, 3))
    first[1, 0] = np.inf
    second = np.ones((2, 3))
    second[0, 2] = np.nan
    # entry (0, 2) comes before (1, 0) in C order, whatever the stage
    with pytest.raises(NumericalError, match=r"^second stage at p = 3\.0$"):
        _in_float_range(at, (first, _STAGES[0]), (second, _STAGES[1]))
    # at the failing entry, the earliest failing stage gives the message
    second[1, 0], second[0, 2] = np.nan, 1.0
    with pytest.raises(NumericalError, match=r"^first stage at p = 4\.0$"):
        _in_float_range(at, (first, _STAGES[0]), (second, _STAGES[1]))
    # a label that broadcasts: every entry is named by it
    with pytest.raises(NumericalError, match=r"^first stage at p = 7\.0$"):
        _in_float_range(7.0, (first, _STAGES[0]))


def test_out_of_range_report_returns_the_last_stage():
    values = np.arange(3.0)
    assert _in_float_range(values, (-values, _STAGES[0]), (values, _STAGES[1])) is values
    out = _in_float_range(np.array(2.0), (np.array(0.5), _STAGES[0]))
    assert type(out) is float and out == 0.5
    assert type(_in_float_range(2.0, (np.float64(0.25), _STAGES[0]))) is float


@pytest.mark.parametrize("wording, holder", [
    ("must be a float or a 1-D array", "errors.py"),
    ("is defined for |q_i| < q_c", "kinematics.py"),
    # the recoil energy eps + p**2/2M, in the frequency mismatch omega; the
    # lattice kernels keep their own on purpose
    ("p * p / (2.0 * params.M)", "kinematics.py"),
])
def test_each_subcritical_rule_is_worded_in_one_module(wording, holder):
    package = pathlib.Path(becimpurity.__file__).parent
    assert sorted(p.name for p in package.glob("*.py") if wording in p.read_text()) == [holder]


def test_the_finite_time_kernel_stays_in_the_lattice_module():
    # the phase message is worded beside the one kernel that raises it, and the
    # lattice kernels take nothing from the window and momentum rules
    package = pathlib.Path(becimpurity.__file__).parent
    wording = "phase omega*t at t = "
    assert sorted(p.name for p in package.glob("*.py") if wording in p.read_text()) == ["_kernels.py"]
    tree = ast.parse((package / "_kernels.py").read_text())
    own = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert own == {"errors"}


def test_each_shared_rule_is_stated_in_errors_only():
    # the out-of-range report is raised by errors._in_float_range; quadrature's own raises
    # carry the best value and its error estimate
    package = pathlib.Path(becimpurity.__file__).parent
    raisers = sorted(p.name for p in package.glob("*.py") if "raise NumericalError(" in p.read_text())
    assert raisers == ["errors.py", "quadrature.py"]
    testers = sorted(p.name for p in package.glob("*.py") if 'dtype.kind in "biuf"' in p.read_text())
    assert testers == ["errors.py"]
