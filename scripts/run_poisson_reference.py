#!/usr/bin/env python3
"""Replicate study: the marked K estimate of a homogeneous Poisson process
with iid uniform marks against the closed-form reference 2*pi*r^2*t.

Simulates `--reps` unit-window patterns of intensity `--lam`, estimates
K^{CD} for the lower/upper mark halves with true-intensity weights, and
prints the replicate mean, Monte-Carlo standard error, the reference and
the z-score of the mean at each lag cell. The z-score is NaN (`n/a` in the
table) where the standard error is 0, as it is where every replicate has
the same value. Optionally writes the table as CSV.
"""

import argparse
import sys

import numpy as np

from mstpp.cli import nonnegative_int, positive_int
from mstpp.geometry import Window
from mstpp.pattern import MarkInterval, write_table
from mstpp.second_order import Weights, k_inhom
from mstpp.simulate import IntensityField, UniformInterval, assign_marks_iid, sim_poisson


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=positive_int, default=100, help="number of replicates")
    ap.add_argument("--lam", type=float, default=200.0, help="Poisson intensity")
    ap.add_argument("--seed", type=nonnegative_int, default=0, help="root seed")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)
    if args.reps < 2:
        ap.error(f"--reps must be at least 2 for a standard error, got {args.reps}")
    if not args.lam > 0:
        ap.error(f"--lam must be positive, got {args.lam}")

    window = Window(((0.0, 1.0), (0.0, 1.0)), (0.0, 1.0))
    field = IntensityField(lambda x, t: np.full(len(t), args.lam), window, args.lam)
    lower = MarkInterval(0.0, 0.5)
    upper = MarkInterval(0.5, 1.0, closed_lo=False)
    r_grid = t_grid = np.array([0.05, 0.10, 0.15])

    seeds = np.random.SeedSequence(args.seed).spawn(args.reps)
    stack = []
    for child in seeds:
        rng = np.random.default_rng(child)
        ground = sim_poisson(field, seed=rng)
        p = assign_marks_iid(ground, UniformInterval(0.0, 1.0), seed=rng)
        w = Weights(lam=np.full(p.n, args.lam))
        surf = k_inhom(p, lower, upper, r_grid, t_grid, weights=w, scenario="S1")
        stack.append(surf.values)
    stack = np.stack(stack)

    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / np.sqrt(args.reps)
    rows = []
    print(f"{'r':>6} {'t':>6} {'mean':>12} {'se':>12} {'reference':>12} {'z':>8}")
    for a, r in enumerate(r_grid):
        for b, t in enumerate(t_grid):
            ref = 2.0 * np.pi * r**2 * t
            spread = se[a, b] > 0
            z = (mean[a, b] - ref) / se[a, b] if spread else float("nan")
            rows.append((r, t, mean[a, b], se[a, b], ref, z))
            zs = f"{z:8.2f}" if spread else f"{'n/a':>8}"
            print(f"{r:6.3f} {t:6.3f} {mean[a, b]:12.6g} {se[a, b]:12.6g} {ref:12.6g} {zs}")

    if args.out:
        write_table(args.out, ["r", "t", "mean", "se", "reference", "z"], zip(*rows))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
