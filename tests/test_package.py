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
