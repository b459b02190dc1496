"""Smoke tests of the study scripts: each script's `main(argv)` runs end to
end with tiny settings, so a library change that breaks a study fails
here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"

# script, its arguments ({tmp} is the test's directory), the table it
# writes and that table's line count (header included)
RUNS = [
    ("run_poisson_reference", ["--reps", "2", "--lam", "50", "--out", "{tmp}/ref.csv"],
     "ref.csv", 1 + 3 * 3),
    ("run_marking_diagnostics", ["--n-sim", "2", "--grid", "4", "--out", "{tmp}/band.csv"],
     "band.csv", 1 + 4 * 4),
    ("run_random_labelling", ["--n-perm", "3", "--grid", "4", "--out-dir", "{tmp}/rl"],
     "rl/envelope.csv", 1 + 4 * 4),
]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_run():
    assert sorted(path.stem for path in SCRIPTS.glob("*.py")) == sorted(r[0] for r in RUNS)


@pytest.mark.parametrize("name, argv, table, lines", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(tmp_path, capsys, name, argv, table, lines):
    main = load_script(name).main
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert len((tmp_path / table).read_text().splitlines()) == lines
    assert "wrote" in capsys.readouterr().out
