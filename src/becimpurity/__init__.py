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

__all__ = [
    "__version__",
    "BecImpurityError",
    "DomainError",
    "ParameterDomainError",
    "SingularityError",
    "PerturbativeBreakdownError",
    "ConfigurationError",
    "NumericalError",
    "SystemParams",
    "DerivedQuantities",
    "derive",
    "born_scattering_length",
    "renormalized_coupling",
    "BogoliubovCoefficients",
    "dispersion",
    "transform_coefficients",
    "coupling_weight",
    "EmissionWindow",
    "omega",
    "resonance_cos",
    "max_emission_momentum",
    "emission_window",
    "finite_time_kernel",
    "RateResult",
    "BoxOracleConfig",
    "emission_spectral_density",
    "transition_rate",
    "energy_dissipation_rate",
    "transition_rate_quadrature",
    "transition_rate_asymptotic",
    "box_rate",
    "survival_probability",
    "survival_lower_bound",
    "SpectrumPoint",
    "MassResult",
    "I0",
    "I1",
    "mean_field_shift",
    "energy_shift_closed",
    "energy_shift_quadrature",
    "effective_mass_closed",
    "effective_mass_quadrature",
    "effective_mass_finite_difference",
    "energy_spectrum",
    "integrate",
    "integrate_semi_infinite",
    "second_derivative",
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "EXPECTED_FAILURES",
    "run_all",
    "run_check",
]
