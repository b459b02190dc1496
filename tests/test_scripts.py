"""Smoke tests of the study scripts: each script's `main(argv)` runs end to
end with tiny settings, so a library change that breaks a study fails
here."""

import importlib.util
from pathlib import Path

import numpy as np
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
    ("run_random_labelling", ["--preset", "lgcp-bernoulli", "--n-perm", "3", "--grid", "4",
                              "--out-dir", "{tmp}/rl"], "rl/envelope.csv", 1 + 4 * 4),
    ("run_random_labelling", ["--preset", "lgcp-geostat", "--n-perm", "3", "--grid", "4",
                              "--out-dir", "{tmp}/rl"], "rl/envelope.csv", 1 + 4 * 4),
]

# a run's id is its script's name, with the preset of a run that names one
IDS = [f"{name}-{argv[1]}" if argv[0] == "--preset" else name for name, argv, _, _ in RUNS]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_run():
    assert sorted(path.stem for path in SCRIPTS.glob("*.py")) == sorted({r[0] for r in RUNS})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, argv, table, lines", RUNS, ids=IDS)
def test_script_runs(tmp_path, capsys, name, argv, table, lines):
    main = load_script(name).main
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    rows = (tmp_path / table).read_text().splitlines()
    assert len(rows) == lines
    # every data cell is a number (not, say, "np.float64(0.125)")
    np.array([row.split(",") for row in rows[1:]], dtype=float)
    assert "wrote" in capsys.readouterr().out


def test_poisson_reference_z_is_nan_where_se_is_zero(tmp_path, capsys):
    # with two replicates at this intensity, some lag cells hold the same
    # value in both, so their standard error is 0
    main = load_script("run_poisson_reference").main
    assert main(["--reps", "2", "--lam", "50", "--out", str(tmp_path / "ref.csv")]) == 0
    table = capsys.readouterr().out.splitlines()[1:-1]
    rows = [line.split(",") for line in (tmp_path / "ref.csv").read_text().splitlines()[1:]]
    zero = [float(row[3]) == 0 for row in rows]
    assert any(zero)
    assert [row[5] == "nan" for row in rows] == zero
    assert [line.split()[-1] == "n/a" for line in table] == zero


@pytest.mark.parametrize("argv", [["--reps", "1"], ["--lam", "0"], ["--lam", "-5"],
                                  ["--lam", "nan"]])
def test_poisson_reference_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit) as exc:
        load_script("run_poisson_reference").main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("name, argv", [
    ("run_random_labelling", ["--n-perm", "0"]),
    ("run_random_labelling", ["--grid", "0"]),
    ("run_random_labelling", ["--seed", "-1"]),
    ("run_marking_diagnostics", ["--n-sim", "2.5"]),
    ("run_marking_diagnostics", ["--grid", "-3"]),
    ("run_poisson_reference", ["--reps", "two"]),
], ids=["n-perm-0", "grid-0", "seed-negative", "n-sim-2.5", "grid-negative", "reps-two"])
def test_bad_flags_exit_2_before_any_simulation(monkeypatch, capsys, name, argv):
    module = load_script(name)

    def no_work(*args, **kwargs):
        raise AssertionError("a simulation started before the flags were checked")

    for attr in ("simulate_preset", "sim_poisson"):
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, no_work)
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err
