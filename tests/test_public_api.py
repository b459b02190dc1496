import subprocess
import sys
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


def test_importing_the_package_and_cli_loads_no_scipy_special_or_spatial():
    # scipy.special loads for a general Whittle-Matern smoothness only, and
    # scipy.spatial at the first pair search; both take most of the import
    code = ("import sys, mstpp, mstpp.cli; "
            "print([m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
