import subprocess
import sys
import types
from pathlib import Path

import mstpp
from mstpp import geometry, inference, intensity, pattern, second_order, simulate
from mstpp.pattern import save_catalog

from .conftest import uniform_pattern

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


def test_k_and_test_commands_load_no_scipy_spatial(tmp_path):
    # the pair search is a numpy sweep: neither second-order command loads
    # the KD-tree module, nor the sparse and linear algebra it pulls in
    save_catalog(uniform_pattern(120, seed=5, marks="labels"), tmp_path / "catalog.csv")
    head = f"input = {tmp_path / 'catalog.csv'}\nwindow = 0,1,0,1,0,1\nmarks = labels,2\n"
    (tmp_path / "k.cfg").write_text(head + "weights = stationary\nc_set = labels,1\n"
                                    "d_set = labels,2\n")
    (tmp_path / "test.cfg").write_text(head + "c_set = labels,1\nd_set = labels,2\n"
                                       "n_perm = 9\n")
    code = ("import sys, mstpp.cli\n"
            "for command in ('k', 'test'):\n"
            "    argv = [command, '--config', f'{sys.argv[1]}/{command}.cfg',\n"
            "            '--out', f'{sys.argv[1]}/{command}_out']\n"
            "    assert mstpp.cli.main(argv) == 0, command\n"
            "print('scipy.spatial' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    for name in ("k_out/k_surface.csv", "k_out/k_surface.json",
                 "test_out/envelope.csv", "test_out/envelope.json"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_readme_quick_start_runs(capsys):
    # the documented API must stay runnable: run the block as README shows it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library quick start)", "exec"), {})
    fraction = float(capsys.readouterr().out)
    assert 0.0 <= fraction <= 1.0
