import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mstpp
from mstpp import geometry, inference, intensity, pattern, second_order, simulate

MODULES = (geometry, pattern, simulate, intensity, second_order, inference)


def test_package_exports_exactly_the_modules_public_names():
    exported = {name for name, value in vars(mstpp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    assert exported == set(declared)


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # from here on, any import of scipy fails
import mstpp, mstpp.cli
from mstpp import geometry, inference, intensity, pattern, second_order, simulate

out = sys.argv[1]

def run(command, name, cfg):
    with open(f"{out}/{name}.cfg", "w") as f:
        f.write(cfg)
    argv = [command, "--config", f"{out}/{name}.cfg", "--seed", "1", "--out", f"{out}/{name}"]
    assert mstpp.cli.main(argv) == 0, name

for preset in simulate.PRESET_NAMES:
    run("simulate", preset, f"preset = {preset}\\ngrf_cells = 8,8,8\\n")
head = f"input = {out}/poisson-bernoulli/catalog.csv\\nwindow = 0,1,0,1,0,1\\nmarks = labels,2\\n"
run("intensity", "intensity", head + "estimator = ground\\n")
run("k", "k", head + "weights = stationary\\nc_set = labels,1\\nd_set = labels,2\\n")
run("test", "test", head + "c_set = labels,1\\nd_set = labels,2\\nn_perm = 9\\n")
print(simulate.WhittleMatern(1.0, 1.0, 1.0).value([0.0, 1.0]).tolist())
"""


def test_the_package_and_every_command_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, every module
    # imports, the four commands run, and a smoothness without a closed
    # form still evaluates
    out = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # C(1) = (c h) K_1(c h) at c h = 1, K_1(1) = 0.6019072301972346
    values = ast.literal_eval(out.stdout.strip())
    assert values[0] == 1.0 and values[1] == pytest.approx(0.6019072301972346, rel=1e-12)
    names = [f"{preset}/catalog.csv" for preset in simulate.PRESET_NAMES]
    names += ["intensity/intensity.csv", "intensity/audit.txt", "k/k_surface.csv",
              "k/k_surface.json", "test/envelope.csv", "test/envelope.json"]
    for name in names:
        assert (tmp_path / name).stat().st_size > 0, name


def test_readme_quick_start_runs(capsys):
    # the documented API must stay runnable: run the block as README shows it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library quick start)", "exec"), {})
    fraction = float(capsys.readouterr().out)
    assert 0.0 <= fraction <= 1.0
