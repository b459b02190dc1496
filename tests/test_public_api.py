import types

import mstpp
from mstpp import geometry, inference, intensity, pattern, second_order, simulate

MODULES = (geometry, pattern, simulate, intensity, second_order, inference)


def test_package_exports_exactly_the_modules_public_names():
    exported = {name for name, value in vars(mstpp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    assert exported == set(declared)
