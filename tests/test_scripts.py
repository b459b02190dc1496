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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, argv, table, lines", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(tmp_path, capsys, name, argv, table, lines):
    main = load_script(name).main
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    assert len((tmp_path / table).read_text().splitlines()) == lines
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
