"""Self-verifying toolkit for a pointlike impurity moving through a dilute
zero-temperature condensate.

Layers, bottom up: params (unit conventions and derived scales), bogoliubov
(excitation spectrum and transform), kinematics (emission thresholds and the
momentum rules), rates (golden-rule transition and dissipation rates plus a
finite-box oracle), selfenergy (renormalized energy shift and effective
mass), quadrature (the adaptive integrator everything leans on), and checks
(the named verification suite the CLI exposes as `becimpurity check`).

Every closed-form result has at least one independent numerical route; the
checks compare them at stated tolerances.
"""

__version__ = "0.1.0"

from . import bogoliubov, checks, errors, kinematics, params, quadrature, rates, selfenergy

# each module's public names, as its own __all__ lists them
from .bogoliubov import *
from .checks import *
from .errors import *
from .kinematics import *
from .params import *
from .quadrature import *
from .rates import *
from .selfenergy import *

# built from the modules' own lists, so the package surface cannot drift from them
__all__ = [
    "__version__",
    *errors.__all__, *params.__all__, *bogoliubov.__all__, *kinematics.__all__,
    *quadrature.__all__, *rates.__all__, *selfenergy.__all__, *checks.__all__,
]
