"""The package's public names: the ``__all__`` of its modules, each declared once."""

import kkinetics
from kkinetics import fracoracle, kinetics, series, specfun

MODULES = (series, specfun, kinetics, fracoracle)


def test_package_exports_its_modules_all_lists_and_nothing_else():
    names = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert kkinetics.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kkinetics, name) is getattr(module, name), (module.__name__, name)
    bound = {}
    exec("from kkinetics import *", bound)
    del bound["__builtins__"]
    assert sorted(bound) == sorted(names)


def test_every_error_a_public_call_raises_is_exported():
    assert kkinetics.InstabilityError is fracoracle.InstabilityError
    for name in ("log_k_gamma", "log_k_pochhammer", "k_bessel_log_coefficient"):
        assert getattr(kkinetics, name) is getattr(specfun, name)
