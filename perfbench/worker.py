"""One workload in its own process: set-up, timed passes, output checks and,
with ``--trace 1``, one more pass with spans on.

Started by ``run.py``, which pins BLAS threads, reads the process's peak
RSS after it exits and prints the result. Every operation is one
``mstpp.cli.main(argv)`` call with ``--threads 1``, run in the work
directory so that configs and artifacts carry only relative paths.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

import mstpp
import mstpp.cli
from mstpp.pattern import save_catalog
from mstpp.simulate import (
    Bernoulli,
    IntensityField,
    assign_marks_iid,
    poisson_preset_intensity,
    preset_sampler,
    sim_poisson,
    simulate_preset,
)

from spans import LAYER_METRICS, Tracer

IMPORT_S = time.perf_counter() - T_START

WINDOW = "0,1,0,1,0,1"
# Catalogs are pinned to a narrow size band: the quadrature work grows with
# n, the pair work with n^2, and the LGCP count alone varies by about 18%
# between seeds, which would swamp any change a later commit makes.
LGCP_BAND = (460, 480)
POISSON_BAND = (472, 490)
K_LARGE_BAND = (9580, 9680)
SETUP_REPS = 3
EXPECTED_FILES = {
    "simulate": ("catalog.csv", "meta.json"),
    "intensity": ("intensity.csv", "audit.txt"),
    "k": ("k_surface.csv", "k_surface.json"),
    "test": ("envelope.csv", "envelope.json", "summary.txt"),
}
MASS_ERROR_MAX = 0.01        # acceptance 3's bounds for ground / marked
IDENTITY_ERROR_MAX = 1e-9
NUMERICAL_FAILURE = 3        # the CLI's exit code for a numerical failure


@dataclass
class Op:
    name: str
    command: str
    config: dict
    seed: int
    band: tuple = None       # expected catalog size of a simulate op

    def argv(self):
        return [self.command, "--config", f"cfg/{self.name}.cfg", "--seed", str(self.seed),
                "--out", f"out/{self.name}", "--threads", "1"]


def pinned_seed(size_of, seed, band):
    """First seed derived from the workload seed for which ``size_of(seed)``,
    a catalog size, falls in ``band``."""
    for k in range(1000):
        s = 1000 * seed + k
        if band[0] <= size_of(s) <= band[1]:
            return s
    raise RuntimeError(f"no catalog size in {band} among 1000 seeds")


def preset_seed(preset, seed, band, sampler=None):
    return pinned_seed(lambda s: simulate_preset(preset, seed=s, sampler=sampler).n, seed, band)


def k_large_field():
    """The poisson-bernoulli preset's intensity times 20 (n about 9.6k)."""
    base = poisson_preset_intensity()
    return IntensityField(fn=lambda x, t: 20.0 * base.fn(x, t), window=base.window,
                          lam_max=20.0 * base.lam_max)


LGCP_MARKS = {"lgcp-bernoulli": "labels,2", "lgcp-geostat": "interval,-8,8"}


def search_estimate(seed):
    # one dense GRF factor per preset, alive only during its own search
    return {preset: preset_seed(preset, seed, LGCP_BAND, preset_sampler(preset))
            for preset in LGCP_MARKS}


def setup_estimate(seed, sim_seeds):
    ops = [Op(f"simulate-{preset}", "simulate", {"preset": preset}, sim_seeds[preset], LGCP_BAND)
           for preset in LGCP_MARKS]
    for estimator in ("ground", "marked", "s1", "s2", "s3"):
        for preset, marks in LGCP_MARKS.items():
            ops.append(Op(f"intensity-{preset}-{estimator}", "intensity",
                          {"input": f"out/simulate-{preset}/catalog.csv", "window": WINDOW,
                           "marks": marks, "estimator": estimator}, seed))
    return ops


def search_k_large(seed):
    field = k_large_field()
    return pinned_seed(lambda s: sim_poisson(field, seed=s).n, seed, K_LARGE_BAND)


def setup_k_large(seed, sim_seed):
    rng = np.random.default_rng(sim_seed)
    p = assign_marks_iid(sim_poisson(k_large_field(), seed=rng), Bernoulli(0.4), seed=rng)
    os.makedirs("in", exist_ok=True)
    save_catalog(p, "in/k-large.csv")
    return [Op("k", "k", {"input": "in/k-large.csv", "window": WINDOW, "marks": "labels,2",
                          "weights": "stationary", "c_set": "labels,1", "d_set": "labels,2",
                          "n_r": 20, "n_t": 20}, seed)]


def setup_labelling(seed, sim_seed):
    preset = "poisson-bernoulli"
    return [
        Op(f"simulate-{preset}", "simulate", {"preset": preset}, sim_seed, POISSON_BAND),
        Op("test", "test", {"input": f"out/simulate-{preset}/catalog.csv", "window": WINDOW,
                            "marks": "labels,2", "c_set": "labels,1", "d_set": "labels,2",
                            "weights": "voronoi-ground", "n_perm": 999}, seed),
    ]


# workload -> (seed search, run once; set-up that writes the inputs, repeated)
SETUPS = {
    "estimate": (search_estimate, setup_estimate),
    "k-large": (search_k_large, setup_k_large),
    "labelling": (lambda seed: preset_seed("poisson-bernoulli", seed, POISSON_BAND),
                  setup_labelling),
}


def set_up(setup, seed, sim_seeds):
    shutil.rmtree("cfg", ignore_errors=True)
    shutil.rmtree("in", ignore_errors=True)
    ops = setup(seed, sim_seeds)
    os.makedirs("cfg")
    for op in ops:
        with open(f"cfg/{op.name}.cfg", "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in op.config.items())
    return ops


def digests(directory):
    root = Path(directory)
    if not root.is_dir():
        return {}
    return {str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.rglob("*")) if f.is_file()}


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def _finite(value):
    return math.isfinite(float(value))


def _json_numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _json_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


def _csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _audit(path):
    with open(path) as fh:
        return {k.strip(): float(v) for k, v in (line.split("=") for line in fh if line.strip())}


def check_op(op, code):
    """Problems with one operation's outputs (empty when it succeeded and
    every check holds), and its relative mass error when it has one."""
    out = Path("out") / op.name
    if code != 0:
        return [f"exit code {code}"], None
    missing = [f for f in EXPECTED_FILES[op.command] if not (out / f).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"], None
    problems, mass_err = [], None
    try:
        for f in sorted(out.iterdir()):
            if f.suffix == ".csv":
                _, rows = _csv_rows(f)
                if not all(_finite(v) for row in rows for v in row):
                    problems.append(f"{f.name}: non-finite number")
            elif f.suffix == ".json":
                if not all(_finite(v) for v in _json_numbers(json.loads(f.read_text()))):
                    problems.append(f"{f.name}: non-finite number")
        if op.command == "simulate":
            n = json.loads((out / "meta.json").read_text())["n"]
            if len(_csv_rows(out / "catalog.csv")[1]) != n:
                problems.append("catalog.csv row count differs from meta.json n")
            if op.band and not op.band[0] <= n <= op.band[1]:
                problems.append(f"catalog size {n} outside the pinned band {op.band}")
        elif op.command == "intensity":
            audit = _audit(out / "audit.txt")
            if not all(_finite(v) for v in audit.values()):
                problems.append("audit.txt: non-finite number")
            mass_err = audit["relative_mass_error"]
            if op.config["estimator"] in ("ground", "marked"):
                if not mass_err <= MASS_ERROR_MAX:
                    problems.append(f"relative_mass_error {mass_err!r} > {MASS_ERROR_MAX}")
                if not audit["identity_relative_error"] <= IDENTITY_ERROR_MAX:
                    problems.append(f"identity_relative_error {audit['identity_relative_error']!r}"
                                    f" > {IDENTITY_ERROR_MAX}")
        elif op.command == "test":
            header, rows = _csv_rows(out / "envelope.csv")
            lo, hi = header.index("lower"), header.index("upper")
            if any(row[lo] > row[hi] for row in rows):
                problems.append("envelope.csv: lower > upper")
    except (ValueError, KeyError, IndexError) as e:
        problems.append(f"unreadable output: {e!r}")
    return problems, mass_err


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------


def run_op(op, tracer=None):
    """Exit code of one CLI call; None when it raised instead of exiting."""
    try:
        if tracer is None:
            return mstpp.cli.main(op.argv())
        return tracer.call(f"cli.{op.command}", mstpp.cli.main, (op.argv(),), {})
    except Exception:
        traceback.print_exc()
        return None


def run_pass(ops, tracer=None):
    shutil.rmtree("out", ignore_errors=True)
    codes, stamps, cpu0 = [], [time.perf_counter()], time.process_time()
    for op in ops:
        codes.append(run_op(op, tracer))
        stamps.append(time.perf_counter())
    wall, cpu = stamps[-1] - stamps[0], time.process_time() - cpu0
    ops_out = []
    for op, code, t0, t1 in zip(ops, codes, stamps, stamps[1:]):
        problems, mass_err = check_op(op, code)
        ops_out.append({"op": op.name, "exit": code, "seconds": t1 - t0, "problems": problems,
                        "relative_mass_error": mass_err,
                        "sha256": digests(Path("out") / op.name)})
    return wall, cpu, ops_out


def environment(seed, ops):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "op_seeds": {op.name: op.seed for op in ops},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    if not Path(mstpp.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"mstpp was imported from {mstpp.__file__}, not from {ROOT / 'src'}")
    os.chdir(args.workdir)
    problems = []

    search, setup = SETUPS[args.workload]
    t0 = time.perf_counter()
    sim_seeds = search(args.seed)
    search_s = time.perf_counter() - t0
    setup_times, inputs = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        ops = set_up(setup, args.seed, sim_seeds)
        setup_times.append(time.perf_counter() - t0)
        inputs.append((digests("cfg"), digests("in"), [op.argv() for op in ops]))
    if any(d != inputs[0] for d in inputs):
        problems.append("set-up made different inputs from one seed")

    walls, cpus, passes = [], [], []
    while sum(walls) < args.seconds:
        wall, cpu, ops_out = run_pass(ops)
        walls.append(wall)
        cpus.append(cpu)
        passes.append(ops_out)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _, ops_out = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        passes.append(ops_out)

    results = [r for ops_out in passes for r in ops_out]
    failed = sum(1 for r in results if r["problems"])
    for r in results:
        if r["exit"] is None:
            problems.append(f"{r['op']} raised instead of exiting")
        elif r["exit"] not in (0, NUMERICAL_FAILURE):
            problems.append(f"{r['op']} exited with code {r['exit']}")
        elif r["exit"] == 0 and r["problems"]:
            problems.append(f"{r['op']}: {'; '.join(r['problems'])}")
    if any([r["sha256"] for r in ops_out] != [r["sha256"] for r in passes[0]]
           for ops_out in passes):
        problems.append("artifacts differ between passes")
    mass_errors = [r["relative_mass_error"] for r in results
                   if not r["problems"] and r["relative_mass_error"] is not None]

    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": IMPORT_S + search_s + statistics.median(setup_times),
        "fail_frac": failed / len(results),
        "mass_err_max": max(mass_errors, default=0.0),
    }
    record = {"environment": environment(args.seed, ops), "import_s": IMPORT_S,
              "search_s": search_s, "setup_times_s": setup_times,
              "pass_walls_s": walls, "pass_cpu_s": cpus, "passes": passes}
    if tracer is not None:
        layers, errors = tracer.layer_metrics()
        problems += errors
        metrics.update(layers)
        metrics["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        record["traced_wall_s"] = traced_wall
        record["spans"] = tracer.spans
    result = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "units": {name: unit for name, (unit, _) in LAYER_METRICS.items()},
        "moves": {name: note for name, (_, note) in LAYER_METRICS.items()},
        "record": record,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
