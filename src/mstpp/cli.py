"""
Batch command-line front end.

Four subcommands tie the library together into reproducible runs::

    mstpp simulate  --config cfg.txt --seed 7 --out runs/sim
    mstpp intensity --config cfg.txt --seed 7 --out runs/lam
    mstpp k         --config cfg.txt --seed 7 --out runs/k
    mstpp test      --config cfg.txt --seed 7 --out runs/test

Config files are plain ``key = value`` text: one setting per line, ``#``
starts a comment, keys are lowercase. Every command validates its keys
against a schema before computing anything, echoes the fully resolved
configuration to ``config_used.txt`` in the output directory, and writes
CSV/JSON artifacts that are byte-identical for a fixed (config, seed)
regardless of ``--threads``.

Shared catalog keys (intensity / k / test)::

    input  = path/to/catalog.csv
    window = x_lo,x_hi,y_lo,y_hi,t_lo,t_hi
    marks  = labels,<k>[,w1,...,wk] | interval,<lo>,<hi>[,lebesgue|normalized|empirical]

Mark sets (``c_set`` / ``d_set``)::

    all | interval,<a>,<b> | labels,<l1>[,<l2>...]

Exit codes: 0 success, 1 input/output error, 2 configuration error,
3 numerical failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .geometry import ErosionError, Window
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
    load_catalog,
    save_catalog,
)
from .second_order import (
    _MAX_BINS,
    default_lag_grids,
    k_inhom,
    k_smoothed,
    k_stationary,
    weights_from_estimate,
)
from .inference import random_labelling_test
from .simulate import DENSE_CELL_GUARD, PRESET_NAMES, FactorizationError, simulate_preset

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

SCHEMAS = {
    "simulate": {
        "preset": (_p_str, _REQUIRED),
        "grf_cells": (_p_ints, (16, 16, 16)),
    },
    "intensity": {
        "input": (_p_str, _REQUIRED),
        "window": (_p_floats, _REQUIRED),
        "marks": (_p_str, _REQUIRED),
        "estimator": (_choice("ground", "marked", "s1", "s2", "s3"), "marked"),
        "euclidean_tm": (_p_bool, False),
        "eval_cells": (_p_ints, (10, 10, 5, 5)),
        **{key: (_p_int, 0) for key in _QUAD_KEYS},
        "dump_cells": (_p_bool, False),
    },
    "k": {
        "input": (_p_str, _REQUIRED),
        "window": (_p_floats, _REQUIRED),
        "marks": (_p_str, _REQUIRED),
        "c_set": (_p_str, "all"),
        "d_set": (_p_str, "all"),
        "n_r": (_p_int, 20),
        "n_t": (_p_int, 20),
        "r_max": (_p_float, 0.0),
        "t_max": (_p_float, 0.0),
        "scenario": (_p_int, 2),
        "weights": (
            _choice("voronoi-marked", "voronoi-ground", "separable-s1",
                    "separable-s2", "separable-s3", "stationary"),
            "voronoi-marked",
        ),
        "erosion": (_choice("per-cell", "fixed"), "per-cell"),
        "symmetrize": (_p_bool, False),
        "smooth_n": (_p_int, 0),
        "smooth_p": (_p_float, 0.5),
    },
    "test": {
        "input": (_p_str, _REQUIRED),
        "window": (_p_floats, _REQUIRED),
        "marks": (_p_str, _REQUIRED),
        "c_set": (_p_str, _REQUIRED),
        "d_set": (_p_str, _REQUIRED),
        "n_r": (_p_int, 20),
        "n_t": (_p_int, 20),
        "r_max": (_p_float, 0.0),
        "t_max": (_p_float, 0.0),
        "scenario": (_p_int, 2),
        "weights": (_choice("voronoi-ground", "voronoi-marked"), "voronoi-ground"),
        "rebuild_weights": (_p_bool, True),
        "n_perm": (_p_int, 99),
        "rank": (_choice("pointwise", "minmax"), "pointwise"),
        "alpha": (_p_float, 0.05),
        "erosion": (_choice("per-cell", "fixed"), "per-cell"),
    },
}


def resolve_config(command, raw):
    schema = SCHEMAS[command]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) for {command!r}: {sorted(unknown)}")
    resolved = {}
    for key, (parser, default) in schema.items():
        if key in raw:
            try:
                resolved[key] = parser(raw[key])
            except ConfigError as e:
                raise ConfigError(f"key {key!r}: {e}") from e
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for {command!r}")
        else:
            resolved[key] = default
    return resolved


def _window_from(vals):
    if len(vals) != 6:
        raise ConfigError("window needs 6 numbers: x_lo,x_hi,y_lo,y_hi,t_lo,t_hi")
    try:
        return Window(
            spatial=((vals[0], vals[1]), (vals[2], vals[3])),
            temporal=(vals[4], vals[5]),
        )
    except ValueError as e:
        raise ConfigError(f"bad window: {e}") from e


def _markspace_from(spec):
    parts = [s.strip() for s in spec.split(",")]
    try:
        if parts[0] == "labels":
            k = int(parts[1])
            weights = tuple(float(v) for v in parts[2:]) or None
            return LabelMarks(k, weights=weights)
        if parts[0] == "interval":
            lo, hi = float(parts[1]), float(parts[2])
            reference = parts[3] if len(parts) > 3 else "lebesgue"
            return ContinuousMarks(lo, hi, reference=reference)
    except (IndexError, ValueError) as e:
        raise ConfigError(f"bad marks spec {spec!r}: {e}") from e
    raise ConfigError(f"bad marks spec {spec!r}: expected labels,... or interval,...")


def _markset_from(spec):
    parts = [s.strip() for s in spec.split(",")]
    try:
        if parts[0] == "all":
            return None
        if parts[0] == "interval":
            return MarkInterval(float(parts[1]), float(parts[2]))
        if parts[0] == "labels":
            return LabelSet([int(v) for v in parts[1:]])
    except (IndexError, ValueError) as e:
        raise ConfigError(f"bad mark set {spec!r}: {e}") from e
    raise ConfigError(f"bad mark set {spec!r}: expected all, interval,.. or labels,..")


def _quadrature_from(cfg):
    """Quadrature from the quad_* keys; a key left at 0 keeps its default."""
    for key in _QUAD_KEYS:
        if cfg.get(key, 0) < 0:
            raise ConfigError(f"key {key!r}: expected a positive integer (0: the default), "
                              f"got {cfg[key]}")
    overrides = {field: cfg.get(key, 0) for key, field in _QUAD_KEYS.items()}
    if not any(overrides.values()):
        return None
    base = Quadrature()
    return Quadrature(**{f: (v if v else getattr(base, f)) for f, v in overrides.items()})


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
    shape = cfg["grf_cells"]
    if len(shape) != 3 or any(v < 1 for v in shape):
        raise ConfigError("grf_cells needs 3 positive integers")
    nx, ny, nt = shape
    if max(nx * ny, nt) > DENSE_CELL_GUARD:
        raise ConfigError(f"grf_cells {nx},{ny},{nt} has {nx * ny} spatial cells and {nt} "
                          f"time slices; at most {DENSE_CELL_GUARD} of each")
    p = simulate_preset(preset, seed=seed, grf_shape=tuple(shape))
    save_catalog(p, os.path.join(out_dir, "catalog.csv"))
    meta = {
        "preset": preset,
        "seed": seed,
        "n": p.n,
        "window": {
            "spatial": [list(b) for b in p.window.spatial],
            "temporal": list(p.window.temporal),
        },
        "marks": str(p.mark_space),
    }
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    p = _load_pattern(cfg)
    estimator = cfg["estimator"]
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
    import csv as _csv

    with open(os.path.join(out_dir, "intensity.csv"), "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])

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
    if cfg.get("dump_cells") and hasattr(est, "cell_measure_rows"):
        with open(os.path.join(out_dir, "cell_measures.csv"), "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["point_index", "cell_measure"])
            for idx, measure in est.cell_measure_rows():
                writer.writerow([str(int(idx)), _fmt(measure)])


def _grids_from(cfg):
    for key in ("r_max", "t_max"):
        if not 0 <= cfg[key] < np.inf:  # NaN too
            raise ConfigError(f"{key} must be finite and nonnegative (0: the default), "
                              f"got {cfg[key]}")
    r_default, t_default = default_lag_grids(_window_from(cfg["window"]))
    r_max = cfg["r_max"] if cfg["r_max"] > 0 else float(r_default[-1])
    t_max = cfg["t_max"] if cfg["t_max"] > 0 else float(t_default[-1])
    n_r, n_t = cfg["n_r"], cfg["n_t"]
    if n_r < 1 or n_t < 1:
        raise ConfigError("n_r and n_t must be positive")
    if (n_r + 1) * (n_t + 1) > _MAX_BINS:
        raise ConfigError(f"n_r = {n_r} and n_t = {n_t} give too many lag cells: "
                          f"(n_r + 1)(n_t + 1) must not exceed {_MAX_BINS}")
    r_grid = r_max * np.arange(1, n_r + 1) / n_r
    t_grid = t_max * np.arange(1, n_t + 1) / n_t
    return r_grid, t_grid


def _build_weights(p, mode, scenario):
    """Plug-in weights of a ``voronoi-*`` or ``separable-*`` mode at the
    default quadratures, with the ground estimate as lam_ground for the
    ``voronoi-ground`` mode and for scenarios 3 and 4."""
    est = _build_estimate(p, mode.split("-")[1], None, False)
    if mode == "voronoi-ground":
        ground = est
    else:
        ground = voronoi_ground(p) if scenario in (3, 4) else None
    return weights_from_estimate(est, ground)


def _scenario_from(cfg):
    if cfg["scenario"] not in (1, 2, 3, 4):
        raise ConfigError("scenario must be 1, 2, 3 or 4")
    return cfg["scenario"]


def cmd_k(cfg, out_dir, seed, threads):
    C = _markset_from(cfg["c_set"])
    D = _markset_from(cfg["d_set"])
    r_grid, t_grid = _grids_from(cfg)
    mode = cfg["weights"]
    scenario = _scenario_from(cfg)
    if cfg["smooth_n"] < 0:
        raise ConfigError("smooth_n must be nonnegative (0: no smoothing)")
    if cfg["smooth_n"] > 0:
        if mode == "stationary":
            raise ConfigError("smoothing is not defined for the stationary estimator")
        if not 0.0 < cfg["smooth_p"] < 1.0:
            raise ConfigError("smooth_p must lie in (0, 1)")
    p = _load_pattern(cfg)
    if mode == "stationary":
        surf = k_stationary(p, C, D, r_grid, t_grid, erosion=cfg["erosion"])
    elif cfg["smooth_n"] > 0:
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
    if cfg["n_perm"] < 1:
        raise ConfigError("n_perm must be at least 1")
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    C = _markset_from(cfg["c_set"])
    D = _markset_from(cfg["d_set"])
    r_grid, t_grid = _grids_from(cfg)
    scenario = _scenario_from(cfg)
    p = _load_pattern(cfg)
    builder = None
    if cfg["weights"] == "voronoi-marked":
        def builder(q):
            return _build_weights(q, "voronoi-marked", scenario)

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
