"""Self-verifying toolkit for a pointlike impurity moving through a dilute
zero-temperature condensate.

Layers, bottom up: params (unit conventions and derived scales), bogoliubov
(excitation spectrum and transform), kinematics (emission thresholds and the
finite-time kernel), rates (golden-rule transition and dissipation rates plus
a finite-box oracle), selfenergy (renormalized energy shift and effective
mass), quadrature (the adaptive integrator everything leans on), and checks
(the named verification suite the CLI exposes as `becimpurity check`).

Every closed-form result has at least one independent numerical route; the
checks compare them at stated tolerances.
"""

__version__ = "0.1.0"

from . import bogoliubov, checks, errors, kinematics, params, quadrature, rates, selfenergy
from .bogoliubov import (
    BogoliubovCoefficients,
    coupling_weight,
    dispersion,
    transform_coefficients,
)
from .checks import DEFAULT_TOLERANCES, EXPECTED_FAILURES, CheckResult, run_all, run_check
from .errors import (
    BecImpurityError,
    ConfigurationError,
    DomainError,
    NumericalError,
    ParameterDomainError,
    PerturbativeBreakdownError,
    SingularityError,
)
from .kinematics import (
    EmissionWindow,
    emission_window,
    finite_time_kernel,
    max_emission_momentum,
    omega,
    resonance_cos,
)
from .params import (
    DerivedQuantities,
    SystemParams,
    born_scattering_length,
    derive,
    renormalized_coupling,
)
from .quadrature import integrate, integrate_semi_infinite, second_derivative
from .rates import (
    BoxOracleConfig,
    RateResult,
    box_rate,
    emission_spectral_density,
    energy_dissipation_rate,
    survival_lower_bound,
    survival_probability,
    transition_rate,
    transition_rate_asymptotic,
    transition_rate_quadrature,
)
from .selfenergy import (
    I0,
    I1,
    MassResult,
    SpectrumPoint,
    effective_mass_closed,
    effective_mass_finite_difference,
    effective_mass_quadrature,
    energy_shift_closed,
    energy_shift_quadrature,
    energy_spectrum,
    mean_field_shift,
)

# built from the modules' own lists, so the package surface cannot drift from them
__all__ = [
    "__version__",
    *errors.__all__, *params.__all__, *bogoliubov.__all__, *kinematics.__all__,
    *quadrature.__all__, *rates.__all__, *selfenergy.__all__, *checks.__all__,
]
