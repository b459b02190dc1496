"""
Batch command-line front end.

Four subcommands tie the library together into reproducible runs::

    mstpp simulate  --config cfg.txt --seed 7 --out runs/sim
    mstpp intensity --config cfg.txt --seed 7 --out runs/lam
    mstpp k         --config cfg.txt --seed 7 --out runs/k
    mstpp test      --config cfg.txt --seed 7 --out runs/test

Config files are plain ``key = value`` text: one setting per line, ``#``
starts a comment, keys are lowercase. This module owns their syntax; the
library owns every rule on a value it reads. Every command runs those
checks before it reads the catalogue (a bad value's message names its
key(s)), echoes the fully resolved configuration to ``config_used.txt``
in the output directory, and writes its CSV/JSON artifacts with
``pattern.write_table``/``pattern.write_json``, byte-identical for a
fixed (config, seed) regardless of ``--threads``.

Shared catalog keys (intensity / k / test)::

    input  = path/to/catalog.csv
    window = x_lo,x_hi,y_lo,y_hi,t_lo,t_hi
    marks  = labels,<k>[,w1,...,wk] | interval,<lo>,<hi>[,lebesgue|normalized|empirical]

Mark sets (``c_set`` / ``d_set``)::

    all | interval,<a>,<b> | labels,<l1>[,<l2>...]

(``labels`` on a label space, ``interval`` on a continuous one), of
positive reference mass; under an empirical reference the mass reads the
catalogue's marks, so it is checked once the catalogue is read.

Exit codes: 0 success, 1 input/output error, 2 configuration error,
3 numerical failure.
"""

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .geometry import ErosionError, Window, erode_window
from .intensity import (
    Quadrature,
    QuadratureError,
    estimate_mass,
    voronoi_ground,
    voronoi_marked,
    voronoi_separable,
)
from .pattern import (
    ContinuousMarks,
    LabelMarks,
    LabelSet,
    MarkInterval,
    _check_count,
    _check_mark_set,
    _check_retention,
    load_catalog,
    save_catalog,
    write_json,
    write_table,
)
from .second_order import (
    _check_lag_cells,
    _checked_grids,
    _mark_mass,
    _norm_scenario,
    default_lag_grids,
    k_inhom,
    k_smoothed,
    k_stationary,
    weights_from_estimate,
)
from .inference import _check_band, random_labelling_test
from .simulate import PRESET_NAMES, FactorizationError, _grid_shape, simulate_preset

__all__ = ["main", "ConfigError", "InputError", "positive_int", "nonnegative_int"]


class ConfigError(ValueError):
    """Invalid or missing configuration (exit code 2)."""


class InputError(RuntimeError):
    """Unreadable or malformed input data (exit code 1)."""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------


def parse_config_file(path):
    raw = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                key = key.strip().lower()
                if key in raw:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                raw[key] = value.strip()
    except OSError as e:
        raise InputError(f"cannot read config file: {e}") from e
    return raw


def _p_int(v):
    try:
        return int(v)
    except ValueError as e:
        raise ConfigError(f"expected an integer, got {v!r}") from e


def _p_float(v):
    try:
        return float(v)
    except ValueError as e:
        raise ConfigError(f"expected a number, got {v!r}") from e


def _p_bool(v):
    low = v.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected true/false, got {v!r}")


def _p_str(v):
    return v.strip()


def _p_floats(v):
    return tuple(_p_float(part) for part in v.split(","))


def _p_ints(v):
    return tuple(_p_int(part) for part in v.split(","))


def _choice(*options):
    def parse(v):
        v = v.strip().lower()
        if v not in options:
            raise ConfigError(f"expected one of {options}, got {v!r}")
        return v

    return parse


_REQUIRED = object()

# intensity config key -> Quadrature field, in the order of the audit lines
_QUAD_KEYS = {
    "quad_space": "n_space",
    "quad_time": "n_time",
    "quad_mark": "n_mark",
    "quad_space_only": "n_space_only",
    "quad_time_tm": "n_time_tm",
    "quad_mark_tm": "n_mark_tm",
}

# the catalogue's keys, shared by intensity, k and test
_CATALOG_KEYS = {
    "input": (_p_str, _REQUIRED),
    "window": (_p_floats, _REQUIRED),
    "marks": (_p_str, _REQUIRED),
}
# the lag grids' and the normalisation's keys, shared by k and test
_LAG_KEYS = {
    "n_r": (_p_int, 20),
    "n_t": (_p_int, 20),
    "r_max": (_p_float, 0.0),
    "t_max": (_p_float, 0.0),
    "scenario": (_p_int, 2),
    "erosion": (_choice("per-cell", "fixed"), "per-cell"),
}

SCHEMAS = {
    "simulate": {
        "preset": (_p_str, _REQUIRED),
        "grf_cells": (_p_ints, (16, 16, 16)),
    },
    "intensity": {
        **_CATALOG_KEYS,
        "estimator": (_choice("ground", "marked", "s1", "s2", "s3"), "marked"),
        "euclidean_tm": (_p_bool, False),
        "eval_cells": (_p_ints, (10, 10, 5, 5)),
        **{key: (_p_int, 0) for key in _QUAD_KEYS},
        "dump_cells": (_p_bool, False),
    },
    "k": {
        **_CATALOG_KEYS,
        "c_set": (_p_str, "all"),
        "d_set": (_p_str, "all"),
        **_LAG_KEYS,
        "weights": (
            _choice("voronoi-marked", "voronoi-ground", "separable-s1",
                    "separable-s2", "separable-s3", "stationary"),
            "voronoi-marked",
        ),
        "symmetrize": (_p_bool, False),
        "smooth_n": (_p_int, 0),
        "smooth_p": (_p_float, 0.5),
    },
    "test": {
        **_CATALOG_KEYS,
        "c_set": (_p_str, _REQUIRED),
        "d_set": (_p_str, _REQUIRED),
        **_LAG_KEYS,
        "weights": (_choice("voronoi-ground", "voronoi-marked"), "voronoi-ground"),
        "rebuild_weights": (_p_bool, True),
        "n_perm": (_p_int, 99),
        "rank": (str.lower, "pointwise"),
        "alpha": (_p_float, 0.05),
    },
}


@contextmanager
def _named(*keys, prefix=""):
    """A ValueError raised in the block, as by a library check, becomes a
    ConfigError that names the config ``keys`` and quotes its message."""
    try:
        yield
    except ValueError as e:
        names = ", ".join(repr(key) for key in keys)
        raise ConfigError(f"key{'s' * (len(keys) > 1)} {names}: {prefix}{e}") from e


def resolve_config(command, raw):
    schema = SCHEMAS[command]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) for {command!r}: {sorted(unknown)}")
    resolved = {}
    for key, (parser, default) in schema.items():
        if key in raw:
            with _named(key):
                resolved[key] = parser(raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for {command!r}")
        else:
            resolved[key] = default
    return resolved


def _window_from(vals):
    if len(vals) != 6:
        raise ConfigError("window needs 6 numbers: x_lo,x_hi,y_lo,y_hi,t_lo,t_hi")
    with _named("window", prefix="bad window: "):
        return Window(
            spatial=((vals[0], vals[1]), (vals[2], vals[3])),
            temporal=(vals[4], vals[5]),
        )


def _fields(args, names, optional=0):
    """The fields of a spec after its kind: one per name in ``names``, then
    at most ``optional`` more."""
    if len(args) < len(names):
        raise ValueError(f"missing field <{names[len(args)]}>")
    extra = args[len(names) + optional:]
    if extra:
        raise ValueError(f"unexpected field(s) {','.join(extra)!r}")
    return args


def _markspace_from(spec):
    kind, *args = [s.strip() for s in spec.split(",")]
    with _named("marks", prefix=f"bad marks spec {spec!r}: "):
        if kind == "labels":
            # any number of weights: LabelMarks checks there is one per label
            k, *weights = _fields(args, ["k"], optional=len(args))
            return LabelMarks(int(k), weights=tuple(float(v) for v in weights) or None)
        if kind == "interval":
            lo, hi, *reference = _fields(args, ["lo", "hi"], optional=1)
            return ContinuousMarks(float(lo), float(hi), *reference)
        raise ValueError("expected labels,... or interval,...")


def _markset_from(spec, key, mark_space):
    """The mark set of ``spec`` (None for all marks), of the kind that
    ``mark_space`` takes, with a positive reference mass unless that mass
    reads the catalogue's marks (an empirical reference)."""
    kind, *args = [s.strip() for s in spec.split(",")]
    with _named(key, prefix=f"bad mark set {spec!r}: "):
        if kind == "all":
            _fields(args, [])
            return None
        if kind == "interval":
            lo, hi = _fields(args, ["a", "b"])
            mark_set = MarkInterval(float(lo), float(hi))
        elif kind == "labels":
            mark_set = LabelSet([int(v) for v in args])
        else:
            raise ValueError("expected all, interval,.. or labels,..")
        _check_mark_set(mark_space, mark_set)
        if mark_space.is_labelled or mark_space.reference != "empirical":
            _mark_mass(mark_space, mark_set)
        return mark_set


def _quadrature_from(cfg):
    """Quadrature from the nonzero quad_* keys (0: the default), or None."""
    overrides = {key: field for key, field in _QUAD_KEYS.items() if cfg.get(key, 0)}
    if not overrides:
        return None
    with _named(*overrides):
        return replace(Quadrature(), **{field: cfg[key] for key, field in overrides.items()})


def _load_pattern(cfg):
    window = _window_from(cfg["window"])
    mark_space = _markspace_from(cfg["marks"])
    try:
        return load_catalog(cfg["input"], window, mark_space)
    except OSError as e:
        raise InputError(f"cannot read catalog: {e}") from e
    except ValueError as e:
        raise InputError(f"bad catalog {cfg['input']!r}: {e}") from e


def _echo_config(out_dir, command, cfg, seed, threads):
    lines = [f"command = {command}", f"seed = {seed}", f"threads = {threads}"]
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    with open(os.path.join(out_dir, "config_used.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x):
    return repr(float(x))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_simulate(cfg, out_dir, seed, threads):
    preset = cfg["preset"]
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {PRESET_NAMES}")
    with _named("grf_cells"):
        shape = _grid_shape(cfg["grf_cells"])
    p = simulate_preset(preset, seed=seed, grf_shape=shape)
    save_catalog(p, os.path.join(out_dir, "catalog.csv"))
    meta = {
        "preset": preset,
        "seed": seed,
        "n": p.n,
        "window": {"spatial": p.window.spatial, "temporal": p.window.temporal},
        "marks": str(p.mark_space),
    }
    write_json(os.path.join(out_dir, "meta.json"), meta)


def _build_estimate(p, estimator, quad, euclidean_tm):
    if estimator == "ground":
        return voronoi_ground(p, quad)
    if estimator == "marked":
        return voronoi_marked(p, quad)
    return voronoi_separable(p, estimator.upper(), euclidean_tm=euclidean_tm,
                             quadrature=quad)


def cmd_intensity(cfg, out_dir, seed, threads):
    quad = _quadrature_from(cfg)
    cells = cfg["eval_cells"]
    if len(cells) == 3:
        cells = cells + (5,)
    if len(cells) != 4 or any(v < 1 for v in cells):
        raise ConfigError("eval_cells needs 3 or 4 positive integers")
    nx, ny, nt, nm = cells
    estimator = cfg["estimator"]
    if cfg["dump_cells"] and estimator not in ("ground", "marked"):
        raise ConfigError(f"dump_cells needs the ground or marked estimator, not {estimator!r}")
    if cfg["euclidean_tm"] and estimator != "s3":
        raise ConfigError(f"euclidean_tm needs the s3 estimator, not {estimator!r}")
    p = _load_pattern(cfg)
    est = _build_estimate(p, estimator, quad, cfg["euclidean_tm"])

    lo, hi = p.window.spatial_bounds()
    xs = lo[0] + (np.arange(nx) + 0.5) * (hi[0] - lo[0]) / nx
    ys = lo[1] + (np.arange(ny) + 0.5) * (hi[1] - lo[1]) / ny
    ts = p.window.temporal[0] + (np.arange(nt) + 0.5) * p.window.temporal_length / nt
    axes = [xs, ys, ts]
    if estimator != "ground":
        ms = p.mark_space
        if ms.is_labelled:
            axes.append(np.arange(1, ms.k + 1, dtype=float))
        else:
            axes.append(ms.lo + (np.arange(nm) + 0.5) * (ms.hi - ms.lo) / nm)
    columns = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    columns.append(est.at(np.column_stack(columns[:2]), *columns[2:]))
    header = ["x", "y", "t", "m"][:len(axes)] + ["lambda_hat"]
    write_table(os.path.join(out_dir, "intensity.csv"), header, columns)

    mass = estimate_mass(est)
    lines = [
        f"n_points = {p.n}",
        f"mass_estimate = {_fmt(mass)}",
        f"relative_mass_error = {_fmt(abs(mass - p.n) / p.n)}",
    ]
    if estimator in ("ground", "marked"):
        recip = float(np.sum(1.0 / est.weights_for_own_points()))
        total = p.window.volume if estimator == "ground" else p.window.volume * p.nu_total()
        lines.append(f"reciprocal_sum = {_fmt(recip)}")
        lines.append(f"domain_measure = {_fmt(total)}")
        lines.append(f"identity_relative_error = {_fmt(abs(recip - total) / total)}")
    # the quadrature the build used: the resolutions its tessellations read
    res = est.resolutions()
    lines.append(f"refined = {int(est.refined)}")
    lines += [f"{key} = {res[f]}" for key, f in _QUAD_KEYS.items() if f in res]
    with open(os.path.join(out_dir, "audit.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if cfg["dump_cells"]:
        idx, measure = est.cell_measure_rows().T
        write_table(os.path.join(out_dir, "cell_measures.csv"),
                    ["point_index", "cell_measure"], [idx.astype(int), measure])


def _build_weights(p, mode, scenario, ground=None):
    """Plug-in weights of a ``voronoi-*`` or ``separable-*`` mode at the
    default quadratures, with the ground estimate as lam_ground for the
    ``voronoi-ground`` mode and for scenarios 3 and 4: the mode's own
    estimate, S2's ground factor, or ``ground()`` (by default a new build
    on the locations of ``p``; the ground estimate ignores the marks)."""
    est = _build_estimate(p, mode.split("-")[1], None, False)
    if mode == "voronoi-ground":
        ground = est
    elif scenario not in ("S3", "S4"):
        ground = None
    elif mode == "separable-s2":
        ground = est.factors["ground"]
    else:
        ground = voronoi_ground(p) if ground is None else ground()
    return weights_from_estimate(est, ground)


def _second_order_from(cfg):
    """The scenario, the mark sets and the lag grids of a k or test config,
    after the library's checks, the window's erosion at the maximal lags
    included. A maximal lag of 0 is the default grid's."""
    with _named("scenario"):
        scenario = _norm_scenario(cfg["scenario"])
    mark_space = _markspace_from(cfg["marks"])
    C, D = (_markset_from(cfg[key], key, mark_space) for key in ("c_set", "d_set"))
    window = _window_from(cfg["window"])
    r_default, t_default = default_lag_grids(window)
    r_max = cfg["r_max"] or float(r_default[-1])
    t_max = cfg["t_max"] or float(t_default[-1])
    n_r, n_t = cfg["n_r"], cfg["n_t"]
    with _named("n_r", "n_t", "r_max", "t_max"):
        _check_lag_cells(n_r, n_t)  # before the grids are allocated
        r_grid, t_grid = _checked_grids(r_max * np.arange(1, n_r + 1) / n_r,
                                        t_max * np.arange(1, n_t + 1) / n_t)
        erode_window(window, float(r_grid[-1]), float(t_grid[-1]))  # _checked_lags's rule
    return scenario, C, D, r_grid, t_grid


def cmd_k(cfg, out_dir, seed, threads):
    scenario, C, D, r_grid, t_grid = _second_order_from(cfg)
    mode = cfg["weights"]
    if cfg["smooth_n"]:  # 0: no smoothing
        with _named("smooth_n"):
            _check_count(cfg["smooth_n"], "thinning")
        if mode == "stationary":
            raise ConfigError("smoothing is not defined for the stationary estimator")
        with _named("smooth_p"):
            _check_retention(cfg["smooth_p"])
    if mode == "stationary" and cfg["symmetrize"]:
        raise ConfigError("symmetrize is not defined for the stationary estimator")
    p = _load_pattern(cfg)
    if mode == "stationary":
        surf = k_stationary(p, C, D, r_grid, t_grid, erosion=cfg["erosion"])
    elif cfg["smooth_n"]:
        def builder(q, keep):
            return _build_weights(q, mode, scenario)

        surf = k_smoothed(
            p, C, D, r_grid, t_grid, weights_builder=builder,
            retention=cfg["smooth_p"], n=cfg["smooth_n"], scenario=scenario,
            erosion=cfg["erosion"], symmetrize=cfg["symmetrize"], seed=seed,
            threads=threads,
        )
    else:
        w = _build_weights(p, mode, scenario)
        surf = k_inhom(p, C, D, r_grid, t_grid, w, scenario=scenario,
                       erosion=cfg["erosion"], symmetrize=cfg["symmetrize"])
    surf.write_csv(os.path.join(out_dir, "k_surface.csv"))
    surf.write_meta(os.path.join(out_dir, "k_surface.json"))


def cmd_test(cfg, out_dir, seed, threads):
    with _named("n_perm"):
        _check_count(cfg["n_perm"], "permutation")
    with _named("rank", "alpha"):
        _check_band(cfg["rank"], cfg["alpha"])
    scenario, C, D, r_grid, t_grid = _second_order_from(cfg)
    p = _load_pattern(cfg)
    builder = None
    if cfg["weights"] == "voronoi-marked":
        # the ground estimate ignores the marks, so one build serves every
        # permutation; the builder's first call, on the observed pattern in
        # this thread, builds it before any permutation runs on the pool
        ground = functools.cache(lambda: voronoi_ground(p))

        def builder(q):
            return _build_weights(q, "voronoi-marked", scenario, ground)

    env = random_labelling_test(
        p, C, D, r_grid, t_grid, weights_builder=builder,
        n_perm=cfg["n_perm"], rank=cfg["rank"], alpha=cfg["alpha"],
        scenario=scenario, erosion=cfg["erosion"], seed=seed,
        rebuild_weights=cfg["rebuild_weights"], threads=threads,
    )
    env.write_csv(os.path.join(out_dir, "envelope.csv"))
    env.write_meta(os.path.join(out_dir, "envelope.json"))
    n_cells = int(env.exceeds.size)
    n_exceed = int(np.sum(env.exceeds))
    summary = [
        "random labelling test (mark permutation)",
        f"statistic: Delta = K_CD - K_DC ({env.observed.meta['weights_source']} weights)",
        f"permutations: {env.n_sim}",
        f"band: {env.rank}",
        f"cells exceeding the band: {n_exceed} of {n_cells} "
        f"({env.exceedance_fraction:.4f})",
        "",
        env.meta["disclaimer"],
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")


COMMANDS = {
    "simulate": cmd_simulate,
    "intensity": cmd_intensity,
    "k": cmd_k,
    "test": cmd_test,
}


def _int_at_least(low, kind):
    def parse(v):
        try:
            n = int(v)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {v!r}")
        return n

    return parse


# argparse types of counts and seeds, shared with the study scripts: any
# other value is a usage error (exit 2) before any work
positive_int = _int_at_least(1, "positive")
nonnegative_int = _int_at_least(0, "non-negative")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mstpp",
        description="Marked spatio-temporal point process toolkit (batch front end).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="key = value config file")
        cp.add_argument("--seed", type=nonnegative_int, default=0, help="root random seed")
        cp.add_argument("--out", required=True, help="output directory")
        cp.add_argument("--threads", type=positive_int, default=1,
                        help="worker thread cap (>= 1)")
    args = parser.parse_args(argv)
    try:
        raw = parse_config_file(args.config)
        cfg = resolve_config(args.command, raw)
        os.makedirs(args.out, exist_ok=True)
        _echo_config(args.out, args.command, cfg, args.seed, args.threads)
        COMMANDS[args.command](cfg, args.out, args.seed, args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    except (QuadratureError, ErosionError, FactorizationError,
            np.linalg.LinAlgError, FloatingPointError, ValueError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
