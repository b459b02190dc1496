#!/usr/bin/env python3
"""Envelope study of the independent-marking diagnostic on a benchmark
log-Gaussian Cox model with iid Bernoulli labels.

Each replicate simulates the `lgcp-bernoulli` preset, computes the
difference between the marked K estimate for the two label classes and
the ground K estimate (zero in expectation when marks are independent of
locations), and pools the replicates into a MinMax envelope. Prints the
fraction of lag cells whose envelope covers zero.
"""

import argparse
import sys

import numpy as np

from mstpp.cli import nonnegative_int, positive_int
from mstpp.inference import envelopes
from mstpp.pattern import LabelSet, write_table
from mstpp.second_order import default_lag_grids, weights_from_function
from mstpp.inference import diag_independent_marks
from mstpp.simulate import UNIT_WINDOW, preset_intensity, preset_sampler, simulate_preset


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-sim", type=positive_int, default=99,
                    help="number of simulated replicates")
    ap.add_argument("--seed", type=nonnegative_int, default=0, help="root seed")
    ap.add_argument("--grid", type=positive_int, default=20,
                    help="lag grid resolution per axis")
    ap.add_argument("--out", default=None, help="optional CSV output path for the band")
    args = ap.parse_args(argv)

    r_grid, t_grid = default_lag_grids(UNIT_WINDOW, args.grid)
    sampler = preset_sampler("lgcp-bernoulli", (16, 16, 16))
    ground_fn, marked_fn = preset_intensity("lgcp-bernoulli")
    label_1, label_2 = LabelSet((1,)), LabelSet((2,))

    def simulator(index, seed):
        p = simulate_preset("lgcp-bernoulli", seed=seed, sampler=sampler)
        weights = weights_from_function(p, marked_fn=marked_fn, ground_fn=ground_fn)
        diag = diag_independent_marks(
            p, label_1, label_2, r_grid, t_grid, weights=weights, scenario="S1"
        )
        return diag.values

    env = envelopes(
        np.zeros((args.grid, args.grid)), simulator, args.n_sim,
        rank="minmax", seed=args.seed, generator="lgcp-bernoulli",
    )
    covered = 1.0 - env.exceedance_fraction
    print(f"replicates: {args.n_sim}")
    print(f"cells whose MinMax envelope covers zero: {covered:.1%}")

    if args.out:
        r, t = np.meshgrid(r_grid, t_grid, indexing="ij")
        write_table(args.out, ["r", "t", "lower", "upper", "covers_zero"],
                    [g.ravel() for g in (r, t, env.lower, env.upper, ~env.exceeds)])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
