import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mstpp.cli as cli
import mstpp.intensity as intensity
from mstpp.cli import (
    ConfigError,
    InputError,
    _markset_from,
    _markspace_from,
    _quadrature_from,
    _window_from,
    parse_config_file,
    resolve_config,
)
from mstpp.geometry import Window, erode_window
from mstpp.inference import _check_band
from mstpp.intensity import Quadrature
from mstpp.pattern import (
    ContinuousMarks,
    LabelMarks,
    LabelSet,
    MarkInterval,
    _check_count,
    _check_mark_set,
    _check_retention,
    pattern_from_arrays,
    save_catalog,
)
from mstpp.second_order import (_check_lag_cells, _checked_grids, _mark_mass, _norm_scenario,
                                 weights_from_estimate)
from mstpp.simulate import _grid_shape

from .conftest import UNIT, uniform_pattern
from .test_nearest_search import _narrow_band

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mstpp.cli", *args],
        capture_output=True, text=True,
    )


def write_config(path, text):
    path.write_text(text.strip() + "\n")
    return str(path)


def run_missing_catalog(tmp_path, command, lines):
    """Run ``command`` with ``lines`` on a config whose catalogue does not
    exist: a command that loads it before checking ``lines`` exits 1. A key
    set in ``lines`` replaces its default here."""
    defaults = {"preset": "lgcp-bernoulli"} if command == "simulate" else {
        "input": tmp_path / "missing.csv", "window": "0,1,0,1,0,1", "marks": "labels,2"}
    if command == "test":
        defaults.update(c_set="all", d_set="all")
    given = {line.split("=")[0].strip() for line in lines.splitlines()}
    text = "".join(f"{k} = {v}\n" for k, v in defaults.items() if k not in given)
    cfg = write_config(tmp_path / "c.txt", text + lines)
    return run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"))


@pytest.fixture(scope="module")
def marked_catalog(tmp_path_factory):
    p = uniform_pattern(18, seed=91)
    path = tmp_path_factory.mktemp("catalogs") / "marked.csv"
    save_catalog(p, path)
    return str(path)


@pytest.fixture(scope="module")
def labelled_catalog(tmp_path_factory):
    p = uniform_pattern(15, seed=90, marks="labels")
    path = tmp_path_factory.mktemp("catalogs") / "labelled.csv"
    save_catalog(p, path)
    return str(path)


CATALOG_KEYS = "window = 0,1,0,1,0,1\n"


def count_ground_builds(monkeypatch):
    """The patterns' sizes of every ground Voronoi build from here on, the
    command's own and a separable S2 estimate's factor alike."""
    builds = []
    for module in (cli, intensity):
        def counted(p, *args, _build=module.voronoi_ground, **kwargs):
            builds.append(p.n)
            return _build(p, *args, **kwargs)

        monkeypatch.setattr(module, "voronoi_ground", counted)
    return builds


def ground_built_per_call(monkeypatch):
    """Make the command's weights take a new ground estimate at every call,
    as every permutation and the separable S2 estimate once did."""
    def build(q, mode, scenario, ground=None):
        est = cli._build_estimate(q, mode.split("-")[1], None, False)
        return weights_from_estimate(est, cli.voronoi_ground(q))

    monkeypatch.setattr(cli, "_build_weights", build)


class TestConfigParsing:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "a.txt"
        cfg.write_text("# comment\n\npreset = poisson-bernoulli\n  grf_cells = 8,8,8\n")
        raw = parse_config_file(cfg)
        assert raw == {"preset": "poisson-bernoulli", "grf_cells": "8,8,8"}

    def test_duplicate_key_and_missing_equals(self, tmp_path):
        cfg = tmp_path / "b.txt"
        cfg.write_text("preset = a\npreset = b\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(cfg)
        cfg.write_text("preset a\n")
        with pytest.raises(ConfigError, match="b.txt:1"):
            parse_config_file(cfg)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError, match="config"):
            parse_config_file(tmp_path / "missing.txt")

    def test_resolution_defaults_and_unknowns(self):
        cfg = resolve_config("simulate", {"preset": "poisson-bernoulli"})
        assert cfg["grf_cells"] == (16, 16, 16)
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config("simulate", {"preset": "x", "bogus": "1"})
        with pytest.raises(ConfigError, match="missing required"):
            resolve_config("simulate", {})
        with pytest.raises(ConfigError, match="grf_cells"):
            resolve_config("simulate", {"preset": "x", "grf_cells": "a,b"})

    def test_window_spec(self):
        w = _window_from((0.0, 2.0, 0.0, 1.0, 0.0, 3.0))
        assert w.spatial == ((0.0, 2.0), (0.0, 1.0))
        assert w.temporal == (0.0, 3.0)
        with pytest.raises(ConfigError, match="6 numbers"):
            _window_from((0.0, 1.0))
        with pytest.raises(ConfigError, match="bad window"):
            _window_from((1.0, 0.0, 0.0, 1.0, 0.0, 1.0))

    def test_markspace_spec(self):
        ms = _markspace_from("labels,3,0.2,0.3,0.5")
        assert ms.k == 3 and ms.weights == (0.2, 0.3, 0.5)
        ci = _markspace_from("interval,-1,1,normalized")
        assert ci.lo == -1.0 and ci.reference == "normalized"
        with pytest.raises(ConfigError, match="bad marks"):
            _markspace_from("gaussian,0,1")
        with pytest.raises(ConfigError, match="bad marks"):
            _markspace_from("interval,0")

    def test_markset_spec(self):
        continuous, labels = ContinuousMarks(0.0, 1.0), LabelMarks(3)
        assert _markset_from("all", "c_set", continuous) is None
        assert _markset_from("interval,0,0.5", "c_set", continuous) == MarkInterval(0.0, 0.5)
        assert _markset_from("labels,1,3", "d_set", labels) == LabelSet([1, 3])
        with pytest.raises(ConfigError, match="key 'd_set': bad mark set"):
            _markset_from("ball,1", "d_set", labels)

    def test_markset_mass_is_checked_unless_it_reads_the_marks(self):
        # an empirical mass reads the catalogue's marks, so it is checked
        # after loading; every other reference is checked here
        empirical = ContinuousMarks(0.0, 1.0, "empirical")
        assert _markset_from("interval,2,3", "c_set", empirical) == MarkInterval(2.0, 3.0)
        for space, spec in [(ContinuousMarks(0.0, 1.0), "interval,2,3"),
                            (ContinuousMarks(0.0, 1.0, "normalized"), "interval,1,1"),
                            (LabelMarks(2), "labels,3"),
                            (LabelMarks(3, weights=(1.0, 2.0, 3.0)), "labels,4,5")]:
            with pytest.raises(ConfigError, match="positive reference measure"):
                _markset_from(spec, "c_set", space)

    @pytest.mark.parametrize("spec, message", [
        ("labels", "missing field <k>"),
        ("interval", "missing field <lo>"),
        ("interval,0", "missing field <hi>"),
        ("interval,-8,8,lebesgue,junk", "unexpected field(s) 'junk'"),
        ("labels,2,1,1,1", "need one weight per label"),
    ])
    def test_markspace_spec_field_count(self, spec, message):
        with pytest.raises(ConfigError) as exc:
            _markspace_from(spec)
        assert str(exc.value) == f"key 'marks': bad marks spec {spec!r}: {message}"

    @pytest.mark.parametrize("spec, message", [
        ("all,junk", "unexpected field(s) 'junk'"),
        ("interval,-8", "missing field <b>"),
        ("interval,-8,0,junk", "unexpected field(s) 'junk'"),
        ("interval,-8,0,1,2", "unexpected field(s) '1,2'"),
    ])
    def test_markset_spec_field_count(self, spec, message):
        with pytest.raises(ConfigError) as exc:
            _markset_from(spec, "c_set", ContinuousMarks(-8.0, 8.0))
        assert str(exc.value) == f"key 'c_set': bad mark set {spec!r}: {message}"

    def test_quadrature_overrides(self):
        assert _quadrature_from({}) is None
        quad = _quadrature_from({"quad_space": 24, "quad_time": 12})
        assert quad.n_space == 24 and quad.n_time == 12
        assert quad.n_mark == 14  # untouched default

    @pytest.mark.parametrize("key", ["quad_space", "quad_mark_tm"])
    def test_negative_quadrature_override_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            _quadrature_from({key: -3})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", "bogus = 1")
        res = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_input_error_is_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {tmp_path / 'missing.csv'}\n{CATALOG_KEYS}marks = interval,0,1",
        )
        res = run_cli("intensity", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert "input error" in res.stderr

    def test_numerical_failure_is_3(self, tmp_path):
        # marks in a narrow band that the mark nodes miss: cells stay empty
        # at the quadrature and at its refinement
        save_catalog(_narrow_band(), tmp_path / "band.csv")
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {tmp_path / 'band.csv'}\n{CATALOG_KEYS}marks = interval,0,8\n"
            "estimator = marked\nquad_space = 8\nquad_time = 8\nquad_mark = 4",
        )
        res = run_cli("intensity", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 3
        assert "numerical failure" in res.stderr

    def test_negative_quadrature_is_2_before_loading(self, tmp_path):
        # the catalog does not exist: loading it first would exit 1
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {tmp_path / 'missing.csv'}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "quad_space = -3",
        )
        res = run_cli("intensity", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr and "quad_space" in res.stderr

    @pytest.mark.parametrize("command, lines, key", [
        ("intensity", "eval_cells = 10,10,0", "eval_cells"),
        ("k", "scenario = 5", "scenario"),
        ("k", "n_r = 0", "n_r"),
        ("k", "n_t = -1", "n_t"),
        ("k", "smooth_n = -1", "smooth_n"),
        ("k", "smooth_n = 3\nsmooth_p = 1.5", "smooth_p"),
        ("k", "smooth_n = 3\nsmooth_p = 0", "smooth_p"),
        ("test", "scenario = 0", "scenario"),
        ("test", "n_r = 0", "n_r"),
        ("test", "n_t = 0", "n_t"),
        ("k", "r_max = -0.1", "r_max"),
        ("k", "t_max = -5", "t_max"),
        ("test", "r_max = -0.1", "r_max"),
        ("test", "t_max = -5", "t_max"),
        ("k", "r_max = inf", "r_max"),
        ("k", "t_max = inf", "t_max"),
        ("test", "r_max = inf", "r_max"),
        ("test", "t_max = inf", "t_max"),
        # a NaN interval bound selects no mark but has a positive mass
        ("k", "c_set = interval,nan,1", "bad mark set"),
        ("k", "d_set = interval,0,nan", "bad mark set"),
        # over the pair geometry's cell limit: once a numerical failure (exit
        # 3) after the weights were built
        ("k", "n_r = 50000\nn_t = 50000", "too many cells: 50000 x 50000 lags"),
        ("test", "n_r = 50000\nn_t = 50000", "too many cells: 50000 x 50000 lags"),
        # a non-finite reference mass: once an all-zero K (exit 0), or a
        # numerical failure after the tessellation was built
        ("k", "marks = labels,2,inf,1", "key 'marks': bad marks spec"),
        ("k", "marks = labels,2,nan,1", "key 'marks': bad marks spec"),
        ("k", "marks = interval,0,inf", "key 'marks': bad marks spec"),
        # a mark set of the wrong kind for the mark space: once a traceback
        # (exit 1) from the reference measure
        ("k", "d_set = interval,0,1",
         "key 'd_set': bad mark set 'interval,0,1': a LabelMarks mark space takes a LabelSet"),
        ("test", "c_set = interval,0,1",
         "key 'c_set': bad mark set 'interval,0,1': a LabelMarks mark space takes a LabelSet"),
        ("k", "marks = interval,0,1\nc_set = labels,1",
         "key 'c_set': bad mark set 'labels,1': a ContinuousMarks mark space takes a MarkInterval"),
        # an extra field in a mark spec: once ignored (exit 0)
        ("k", "marks = interval,-8,8\nc_set = interval,-8,0,junk", "unexpected field(s) 'junk'"),
        ("k", "marks = interval,-8,8\nc_set = all,junk", "unexpected field(s) 'junk'"),
        ("k", "marks = interval,-8,8,lebesgue,junk", "unexpected field(s) 'junk'"),
        ("k", "marks = labels", "missing field <k>"),
        # no cell dump for the separable estimators: once silently skipped
        ("intensity", "estimator = s2\ndump_cells = true", "dump_cells"),
        ("intensity", "estimator = marked\neuclidean_tm = true", "euclidean_tm"),
        ("intensity", "estimator = s1\neuclidean_tm = true", "euclidean_tm"),
        # one pair search: no key selects it
        ("k", "route = indexed", "unknown key(s) for 'k': ['route']"),
        ("test", "route = indexed", "unknown key(s) for 'test': ['route']"),
        # the stationary estimator is not symmetrized: once exit 0, with the
        # unsymmetrized surface written and symmetrize = True echoed
        ("k", "weights = stationary\nsymmetrize = true", "symmetrize"),
        # a mark set of no reference mass: once a numerical failure (exit 3)
        # after loading
        ("k", "c_set = labels,3", "key 'c_set': bad mark set 'labels,3': "
         "mark sets must have positive reference measure"),
        ("test", "d_set = labels,3", "key 'd_set': bad mark set 'labels,3': "
         "mark sets must have positive reference measure"),
        ("k", "marks = interval,0,1\nc_set = interval,2,3", "key 'c_set': bad mark set "
         "'interval,2,3': mark sets must have positive reference measure"),
        ("test", "marks = interval,0,1,normalized\nd_set = interval,1,1", "key 'd_set': bad "
         "mark set 'interval,1,1': mark sets must have positive reference measure"),
        # a lag grid the window cannot hold: once a numerical failure (exit
        # 3) after loading
        ("k", "r_max = 0.6", "'r_max', 't_max': erosion exceeds window"),
        ("k", "t_max = 0.5", "'r_max', 't_max': erosion exceeds window"),
        ("test", "r_max = 0.5", "'r_max', 't_max': erosion exceeds window"),
    ], ids=["intensity-eval_cells", "k-scenario", "k-n_r", "k-n_t", "k-smooth_n",
            "k-smooth_p-above", "k-smooth_p-zero", "test-scenario", "test-n_r", "test-n_t",
            "k-r_max", "k-t_max", "test-r_max", "test-t_max", "k-r_max-inf", "k-t_max-inf",
            "test-r_max-inf", "test-t_max-inf", "k-c_set-nan", "k-d_set-nan",
            "k-cells", "test-cells", "k-marks-inf-weight", "k-marks-nan-weight",
            "k-marks-inf-bound", "k-d_set-kind", "test-c_set-kind", "k-c_set-kind",
            "k-c_set-extra", "k-c_set-all-extra", "k-marks-extra", "k-marks-missing",
            "intensity-dump_cells-s2", "intensity-euclidean_tm-marked",
            "intensity-euclidean_tm-s1",
            "k-route", "test-route", "k-stationary-symmetrize", "k-c_set-no-mass",
            "test-d_set-no-mass", "k-interval-no-mass", "test-normalized-no-mass",
            "k-r_max-erosion", "k-t_max-erosion", "test-r_max-erosion"])
    def test_bad_settings_are_2_before_loading(self, tmp_path, command, lines, key):
        res = run_missing_catalog(tmp_path, command, lines)
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr and key in res.stderr

    @pytest.mark.parametrize("command, lines, keys, check", [
        ("simulate", "grf_cells = 100,100,2", "'grf_cells'",
         lambda: _grid_shape((100, 100, 2))),
        ("simulate", "grf_cells = 4,0,4", "'grf_cells'", lambda: _grid_shape((4, 0, 4))),
        ("intensity", "quad_space = -3", "'quad_space'", lambda: Quadrature(n_space=-3)),
        ("k", "r_max = -0.1", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: _checked_grids(-0.1 * np.arange(1, 21) / 20, [1.0])),
        ("test", "t_max = nan", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: _checked_grids([1.0], np.full(20, np.nan))),
        ("k", "n_t = 0", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: _checked_grids([1.0], [])),
        ("test", "n_r = -1", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: _checked_grids([], [1.0])),
        ("test", "n_r = 50000\nn_t = 50000", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: _check_lag_cells(50000, 50000)),
        ("k", "scenario = 5", "'scenario'", lambda: _norm_scenario(5)),
        ("test", "scenario = 0", "'scenario'", lambda: _norm_scenario(0)),
        ("k", "smooth_n = -2", "'smooth_n'", lambda: _check_count(-2, "thinning")),
        ("k", "smooth_n = 3\nsmooth_p = 1.5", "'smooth_p'", lambda: _check_retention(1.5)),
        ("test", "n_perm = 0", "'n_perm'", lambda: _check_count(0, "permutation")),
        ("test", "alpha = 1.7", "'rank', 'alpha'", lambda: _check_band("pointwise", 1.7)),
        ("test", "rank = median", "'rank', 'alpha'", lambda: _check_band("median", 0.05)),
        ("k", "marks = labels,2,inf,1", "'marks'",
         lambda: LabelMarks(2, weights=(np.inf, 1.0))),
        ("k", "marks = interval,0,inf", "'marks'", lambda: ContinuousMarks(0.0, np.inf)),
        ("test", "c_set = interval,nan,1", "'c_set'", lambda: MarkInterval(np.nan, 1.0)),
        ("k", "d_set = interval,0,1", "'d_set'",
         lambda: _check_mark_set(LabelMarks(2), MarkInterval(0.0, 1.0))),
        ("k", "c_set = labels,3", "'c_set'", lambda: _mark_mass(LabelMarks(2), LabelSet([3]))),
        ("test", "marks = interval,0,1\nd_set = interval,2,3", "'d_set'",
         lambda: _mark_mass(ContinuousMarks(0.0, 1.0), MarkInterval(2.0, 3.0))),
        ("k", "r_max = 0.6", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: erode_window(UNIT, 0.6, 0.25)),
        ("test", "t_max = 0.5", "'n_r', 'n_t', 'r_max', 't_max'",
         lambda: erode_window(UNIT, 0.25, 0.5)),
    ], ids=["grf_cells-guard", "grf_cells-zero", "quad_space", "r_max", "t_max", "n_t",
            "n_r", "cells", "k-scenario", "test-scenario", "smooth_n", "smooth_p", "n_perm",
            "alpha", "rank", "marks-weight", "marks-bound", "c_set", "d_set-kind",
            "c_set-mass", "d_set-mass", "r_max-erosion", "t_max-erosion"])
    def test_bad_values_quote_the_library_check(self, tmp_path, command, lines, keys, check):
        # one source for each value rule: the CLI reports the library's own
        # message for the same value, under the key(s) it came from
        with pytest.raises(ValueError) as library:
            check()
        res = run_missing_catalog(tmp_path, command, lines)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"config error: key{'s' if ',' in keys else ''} {keys}: ")
        assert res.stderr.endswith(f"{library.value}\n")

    @pytest.mark.parametrize("threads", ["-4", "0", "two"])
    def test_bad_threads_is_2_before_any_work(self, tmp_path, threads):
        cfg = write_config(tmp_path / "c.txt", "preset = poisson-bernoulli")
        out = tmp_path / "o"
        res = run_cli("simulate", "--config", cfg, "--out", str(out), "--threads", threads)
        assert res.returncode == 2, res.stderr
        assert "--threads" in res.stderr and "positive integer" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "2.5"])
    def test_bad_seed_is_2_before_any_work(self, tmp_path, seed):
        cfg = write_config(tmp_path / "c.txt", "preset = poisson-bernoulli")
        out = tmp_path / "o"
        res = run_cli("simulate", "--config", cfg, "--out", str(out), "--seed", seed)
        assert res.returncode == 2, res.stderr
        assert "--seed" in res.stderr and "non-negative integer" in res.stderr
        assert not out.exists()

    def test_bad_scenario_is_2(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "scenario = 5\nweights = stationary",
        )
        res = run_cli("k", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 2


class TestSimulateCommand:
    def test_poisson_preset_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", "preset = poisson-bernoulli")
        out = tmp_path / "run"
        res = run_cli("simulate", "--config", cfg, "--seed", "7", "--out", str(out))
        assert res.returncode == 0, res.stderr
        catalog = (out / "catalog.csv").read_text().splitlines()
        assert catalog[0] == "x,y,t,mark"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["preset"] == "poisson-bernoulli"
        assert meta["seed"] == 7
        assert meta["n"] == len(catalog) - 1
        echo = (out / "config_used.txt").read_text()
        assert "command = simulate" in echo
        assert "seed = 7" in echo

    def test_oversized_grf_grid_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt",
                           "preset = lgcp-bernoulli\ngrf_cells = 100,100,2")
        out = tmp_path / "run"
        res = run_cli("simulate", "--config", cfg, "--seed", "3", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr and "grf_cells" in res.stderr
        assert not (out / "catalog.csv").exists()

    def test_seed_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt",
                           "preset = lgcp-bernoulli\ngrf_cells = 8,8,8")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli("simulate", "--config", cfg, "--seed", "3",
                       "--out", str(a)).returncode == 0
        assert run_cli("simulate", "--config", cfg, "--seed", "3",
                       "--out", str(b)).returncode == 0
        assert run_cli("simulate", "--config", cfg, "--seed", "4",
                       "--out", str(c)).returncode == 0
        assert (a / "catalog.csv").read_bytes() == (b / "catalog.csv").read_bytes()
        assert (a / "catalog.csv").read_bytes() != (c / "catalog.csv").read_bytes()


class TestIntensityCommand:
    def test_marked_estimator_outputs(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "quad_space = 24\nquad_time = 24\neval_cells = 3,3,2,2\n"
            "dump_cells = true",
        )
        out = tmp_path / "run"
        res = run_cli("intensity", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = (out / "intensity.csv").read_text().splitlines()
        assert rows[0] == "x,y,t,m,lambda_hat"
        assert len(rows) == 1 + 3 * 3 * 2 * 2
        vals = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert np.all(vals > 0)
        audit = (out / "audit.txt").read_text()
        assert "n_points = 18" in audit
        ident = [ln for ln in audit.splitlines()
                 if ln.startswith("identity_relative_error")]
        assert float(ident[0].split("=")[1]) < 1e-9
        cells = (out / "cell_measures.csv").read_text().splitlines()
        assert len(cells) == 1 + 18

    def test_ground_estimator_omits_mark_column(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "estimator = ground\nquad_space = 24\nquad_time = 24\n"
            "eval_cells = 2,2,2",
        )
        out = tmp_path / "run"
        res = run_cli("intensity", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = (out / "intensity.csv").read_text().splitlines()
        assert rows[0] == "x,y,t,lambda_hat"
        assert len(rows) == 1 + 2 * 2 * 2

    def test_separable_estimator_runs(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "estimator = s2\neval_cells = 2,2,2,2",
        )
        out = tmp_path / "run"
        res = run_cli("intensity", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        audit = (out / "audit.txt").read_text()
        assert "mass_estimate" in audit
        assert "reciprocal_sum" not in audit

    def test_audit_reports_default_quadrature(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "eval_cells = 1,1,1,1",
        )
        out = tmp_path / "run"
        res = run_cli("intensity", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        audit = _audit_lines(out)
        # the marked estimator's defaults; no separable resolution is read
        assert audit[-4:] == ["refined = 0", "quad_space = 48", "quad_time = 48",
                              "quad_mark = 14"]

    def test_audit_reports_refined_quadrature(self, tmp_path):
        # the middle cell of three close points holds no node of the 6-node
        # spatial axes, so the S3 spatial factor refines; its time-mark
        # factor is built at the configured resolution
        p = pattern_from_arrays(
            np.array([[0.33, 0.5], [0.375, 0.5], [0.42, 0.5], [0.8, 0.2]]),
            np.array([0.5, 0.5, 0.5, 0.3]), np.array([0.33, 0.375, 0.42, 0.9]),
            UNIT, ContinuousMarks(0.0, 1.0))
        save_catalog(p, tmp_path / "close.csv")
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {tmp_path / 'close.csv'}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "estimator = s3\nquad_space_only = 6\nquad_time_tm = 6\nquad_mark_tm = 6\n"
            "eval_cells = 1,1,1,1",
        )
        out = tmp_path / "run"
        res = run_cli("intensity", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        audit = _audit_lines(out)
        assert audit[-4:] == ["refined = 1", "quad_space_only = 12", "quad_time_tm = 6",
                              "quad_mark_tm = 6"]


def _audit_lines(out):
    """audit.txt's lines, each checked to be ``key = number`` with a key of
    its own."""
    lines = (out / "audit.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert len(set(keys)) == len(lines)
    for line in lines:
        key, value = line.split(" = ")
        assert key.isidentifier()
        float(value)
    return lines


class TestKCommand:
    def test_stationary_surface_outputs(self, tmp_path, labelled_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {labelled_catalog}\n{CATALOG_KEYS}marks = labels,2\n"
            "c_set = labels,1\nd_set = labels,2\nweights = stationary\n"
            "n_r = 4\nn_t = 4",
        )
        out = tmp_path / "run"
        res = run_cli("k", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = (out / "k_surface.csv").read_text().splitlines()
        assert rows[0] == "r,t,k_hat,k_poisson,diff"
        assert len(rows) == 1 + 16
        meta = json.loads((out / "k_surface.json").read_text())
        assert meta["scenario"] == "stationary"
        assert meta["weights_source"] == "Stationary"

    def test_voronoi_weights_surface(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "c_set = interval,0,0.5\nd_set = interval,0.5,1\n"
            "weights = voronoi-ground\nn_r = 3\nn_t = 3",
        )
        out = tmp_path / "run"
        res = run_cli("k", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = json.loads((out / "k_surface.json").read_text())
        assert meta["weights_source"] == "PluggedEstimate"
        assert meta["meta"]["erosion"] == "per-cell"

    def test_smoothing_threads_byte_identity(self, tmp_path, marked_catalog):
        text = (
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "weights = voronoi-ground\nn_r = 3\nn_t = 3\n"
            "smooth_n = 3\nsmooth_p = 0.6"
        )
        cfg = write_config(tmp_path / "c.txt", text)
        one, two = tmp_path / "one", tmp_path / "two"
        res1 = run_cli("k", "--config", cfg, "--seed", "11", "--out", str(one))
        res2 = run_cli("k", "--config", cfg, "--seed", "11", "--out", str(two),
                       "--threads", "2")
        assert res1.returncode == 0, res1.stderr
        assert res2.returncode == 0, res2.stderr
        assert (one / "k_surface.csv").read_bytes() == \
            (two / "k_surface.csv").read_bytes()
        meta = json.loads((one / "k_surface.json").read_text())
        assert meta["weights_source"] == "Smoothed(n=3, p=0.6)"

    @pytest.mark.parametrize("mode, estimates", [
        ("voronoi-ground", 1), ("voronoi-marked", 2), ("separable-s1", 2),
    ])
    def test_floor_hits_count_each_estimate_once(self, tmp_path, mode, estimates):
        # on this window every estimate lies far below the floor at every
        # point; scenario 4 plugs in the ground estimate as well, which the
        # voronoi-ground mode already is
        huge = Window(spatial=((0.0, 1e8), (0.0, 1e8)), temporal=(0.0, 1.0))
        p = uniform_pattern(6, seed=92, window=huge)
        save_catalog(p, tmp_path / "huge.csv")
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {tmp_path / 'huge.csv'}\nwindow = 0,1e8,0,1e8,0,1\n"
            f"marks = interval,0,1\nweights = {mode}\nscenario = 4\nn_r = 2\nn_t = 2",
        )
        out = tmp_path / "run"
        res = run_cli("k", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = json.loads((out / "k_surface.json").read_text())
        assert meta["meta"]["floor_hits"] == estimates * p.n

    def test_separable_s2_plugs_in_its_own_ground_factor(self, tmp_path, monkeypatch,
                                                         marked_catalog):
        # scenario 3 takes the ground estimate as lam_ground; S2's ground
        # factor is that estimate, so it is built once, not twice, and the
        # surface keeps the bytes of a second build
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "c_set = interval,0,0.5\nd_set = interval,0.5,1\n"
            "weights = separable-s2\nscenario = 3\nn_r = 3\nn_t = 3",
        )
        builds = count_ground_builds(monkeypatch)
        assert cli.main(["k", "--config", cfg, "--out", str(tmp_path / "once")]) == 0
        assert builds == [18]
        ground_built_per_call(monkeypatch)
        assert cli.main(["k", "--config", cfg, "--out", str(tmp_path / "twice")]) == 0
        assert builds == [18] * 3
        for name in ("k_surface.csv", "k_surface.json"):
            assert (tmp_path / "once" / name).read_bytes() == \
                (tmp_path / "twice" / name).read_bytes(), name

    def test_stationary_smoothing_rejected(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "weights = stationary\nsmooth_n = 2",
        )
        res = run_cli("k", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert "smoothing" in res.stderr


class TestTestCommand:
    def config_text(self, catalog):
        return (
            f"input = {catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "c_set = interval,0,0.5\nd_set = interval,0.5,1\n"
            "n_perm = 9\nn_r = 3\nn_t = 3"
        )

    def test_end_to_end_outputs(self, tmp_path, marked_catalog):
        cfg = write_config(tmp_path / "c.txt", self.config_text(marked_catalog))
        out = tmp_path / "run"
        res = run_cli("test", "--config", cfg, "--seed", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = (out / "envelope.csv").read_text().splitlines()
        assert rows[0] == "r,t,observed,lower,upper,exceeds"
        assert len(rows) == 1 + 9
        meta = json.loads((out / "envelope.json").read_text())
        assert meta["n_sim"] == 9
        assert meta["generator"] == "mark-permutation"
        summary = (out / "summary.txt").read_text()
        assert "permutations: 9" in summary
        assert "PluggedEstimate" in summary
        assert "indicative" in summary

    def test_threads_and_seed_reproducibility(self, tmp_path, marked_catalog):
        cfg = write_config(tmp_path / "c.txt", self.config_text(marked_catalog))
        one, two = tmp_path / "one", tmp_path / "two"
        res1 = run_cli("test", "--config", cfg, "--seed", "5", "--out", str(one))
        res2 = run_cli("test", "--config", cfg, "--seed", "5", "--out", str(two),
                       "--threads", "2")
        assert res1.returncode == 0, res1.stderr
        assert res2.returncode == 0, res2.stderr
        for name in ("envelope.csv", "envelope.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    @pytest.mark.parametrize("line", ["n_perm = 0", "alpha = 1.7", "alpha = 0"])
    def test_bad_band_settings_are_config_errors(self, tmp_path, marked_catalog, line):
        text = self.config_text(marked_catalog).replace("n_perm = 9", line)
        cfg = write_config(tmp_path / "c.txt", text)
        res = run_cli("test", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr
        assert line.split()[0] in res.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_marked_weights_build_the_ground_estimate_once(self, tmp_path, monkeypatch,
                                                           marked_catalog, threads):
        # scenario 3 takes the ground estimate as lam_ground; it ignores the
        # marks, so one build serves the observed pattern and every
        # permutation, with the bytes of a build per permutation
        text = self.config_text(marked_catalog) + "\nweights = voronoi-marked\nscenario = 3"
        cfg = write_config(tmp_path / "c.txt", text)
        builds = count_ground_builds(monkeypatch)
        args = ["test", "--config", cfg, "--seed", "5", "--threads", threads, "--out"]
        assert cli.main(args + [str(tmp_path / "once")]) == 0
        assert builds == [18]
        ground_built_per_call(monkeypatch)
        assert cli.main(args + [str(tmp_path / "rebuilt")]) == 0
        assert builds == [18] * 11
        for name in ("envelope.csv", "envelope.json", "summary.txt"):
            assert (tmp_path / "once" / name).read_bytes() == \
                (tmp_path / "rebuilt" / name).read_bytes(), name

    def test_degenerate_sets_warn(self, tmp_path, marked_catalog):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {marked_catalog}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "c_set = interval,0,0.5\nd_set = interval,0,0.5\n"
            "n_perm = 3\nn_r = 2\nn_t = 2",
        )
        res = run_cli("test", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        assert "degenerate" in res.stderr


class TestGoldenOutputs:
    def test_stationary_k_matches_golden(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {GOLDEN / 'labelled.csv'}\n{CATALOG_KEYS}marks = labels,2\n"
            "c_set = labels,1\nd_set = labels,2\nweights = stationary\n"
            "n_r = 4\nn_t = 4",
        )
        out = tmp_path / "run"
        res = run_cli("k", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "k_surface.csv").read_bytes() == \
            (GOLDEN / "k_stationary.csv").read_bytes()
        assert (out / "k_surface.json").read_bytes() == \
            (GOLDEN / "k_stationary.json").read_bytes()

    def test_labelling_envelope_matches_golden(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.txt",
            f"input = {GOLDEN / 'marked.csv'}\n{CATALOG_KEYS}marks = interval,0,1\n"
            "c_set = interval,0,0.5\nd_set = interval,0.5,1\n"
            "n_perm = 7\nn_r = 3\nn_t = 3",
        )
        out = tmp_path / "run"
        res = run_cli("test", "--config", cfg, "--seed", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "envelope.csv").read_bytes() == \
            (GOLDEN / "envelope.csv").read_bytes()
        assert (out / "envelope.json").read_bytes() == \
            (GOLDEN / "envelope.json").read_bytes()
