"""End-to-end acceptance checks.

Each test prints one `[acceptance N] ... PASS/FAIL (...) [Xs]` scorecard
line directly to the real stdout (bypassing capture) so a logged run
shows the full scorecard, then asserts. The checks pin the library to
closed-form references, exact identities, replicate studies, and
byte-level determinism of the command-line interface.
"""

import functools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from mstpp.geometry import Window
from mstpp.inference import diag_independent_marks, envelopes, random_labelling_test
from mstpp.intensity import estimate_mass, voronoi_ground, voronoi_marked, voronoi_separable
from mstpp.pattern import LabelSet, MarkInterval, rescale, save_catalog
from mstpp.second_order import (
    ConeSet,
    Weights,
    default_lag_grids,
    k_cross_multitype,
    k_ground,
    k_inhom,
    k_measure_hat,
    poisson_reference,
    weights_from_function,
)
from mstpp.simulate import (
    IntensityField,
    UniformInterval,
    assign_marks_iid,
    preset_intensity,
    preset_sampler,
    sim_poisson,
    simulate_preset,
)

from .conftest import UNIT, uniform_pattern
from .oracles import denominator_oracle, k_values_oracle, pair_geometry_oracle

R3 = T3 = np.array([0.05, 0.10, 0.15])
R20, T20 = default_lag_grids(UNIT, 20)
LOWER_HALF = MarkInterval(0.0, 0.5)
UPPER_HALF = MarkInterval(0.5, 1.0, closed_lo=False)
LABEL_1, LABEL_2 = LabelSet((1,)), LabelSet((2,))


def _report(cap, num, name, ok, detail, t0):
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {name}: {verdict} ({detail}) [{time.time() - t0:.1f}s]"
    with cap.disabled():
        print(line, flush=True)
    assert ok, line


@functools.lru_cache(maxsize=None)
def _sampler(name):
    return preset_sampler(name, (16, 16, 16))


def _true_weights(name):
    """Weights builder from the preset's true intensity."""
    ground_fn, marked_fn = preset_intensity(name)
    return lambda p: weights_from_function(p, marked_fn=marked_fn, ground_fn=ground_fn)


# ------------------------------------------------------------------
# shared replicate study for the homogeneous-Poisson reference checks
# ------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _poisson_uniform_replicates():
    """100 homogeneous Poisson(200) patterns with iid uniform marks: the
    marked K surface on the 3x3 lag grid and the K-measure of a fixed
    quarter double-cone, both with true-intensity weights."""
    field = IntensityField(lambda x, t: np.full(len(t), 200.0), UNIT, 200.0)
    cone = ConeSet(0.0, np.pi / 2, 0.15, 0.1)
    surfaces, cones = [], []
    for child in np.random.SeedSequence(101).spawn(100):
        rng = np.random.default_rng(child)
        ground = sim_poisson(field, seed=rng)
        p = assign_marks_iid(ground, UniformInterval(0.0, 1.0), seed=rng)
        w = Weights(lam=np.full(p.n, 200.0))
        surf = k_inhom(p, LOWER_HALF, UPPER_HALF, R3, T3, weights=w, scenario="S1")
        surfaces.append(surf.values)
        cones.append(k_measure_hat(p, LOWER_HALF, UPPER_HALF, cone, w))
    return np.stack(surfaces), np.asarray(cones), cone.volume(2)


class TestAcceptance:
    def test_01_poisson_reference(self, capsys):
        t0 = time.time()
        stack, _, _ = _poisson_uniform_replicates()
        mean = stack.mean(axis=0)
        se = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
        ref = poisson_reference(R3, T3, 2).values
        z = (mean - ref) / se
        ok = bool(np.all(np.abs(z) <= 3.0))
        _report(capsys, 1, "marked K of Poisson(200) vs 2*pi*r^2*t",
                ok, f"max |z| = {np.abs(z).max():.2f} over 9 cells, 100 replicates", t0)

    def test_02_lag_set_unbiasedness(self, capsys):
        t0 = time.time()
        _, cones, target = _poisson_uniform_replicates()
        se = cones.std(ddof=1) / np.sqrt(len(cones))
        z = (cones.mean() - target) / se
        ok = bool(abs(z) <= 3.0)
        _report(capsys, 2, "K-measure of a quarter double-cone vs its volume",
                ok, f"mean {cones.mean():.3e} vs {target:.3e}, z = {z:.2f}", t0)

    def test_03_voronoi_mass_preservation(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(33)
        mass_errs, joint_ham, sep_ham = [], [], []
        for _ in range(20):
            n = int(rng.integers(10, 501))
            p = uniform_pattern(n, seed=int(rng.integers(0, 2**31)))
            domain = p.window.volume  # reference mark measure has total mass 1
            ests = [
                ("marked", voronoi_marked(p)),
                ("ground", voronoi_ground(p)),
                ("S1", voronoi_separable(p, "S1")),
                ("S2", voronoi_separable(p, "S2")),
                ("S3", voronoi_separable(p, "S3")),
            ]
            for kind, est in ests:
                mass_errs.append(abs(estimate_mass(est) - n) / n)
                ham = abs(float(np.sum(1.0 / est.weights_for_own_points())) - domain) / domain
                (joint_ham if kind in ("marked", "ground") else sep_ham).append(ham)
        ok = max(mass_errs) <= 0.01 and max(joint_ham) <= 0.01
        _report(capsys, 3, "tessellation mass preservation, 20 patterns x 5 estimators",
                ok,
                f"max mass err {max(mass_errs):.2e}; reciprocal-sum identity "
                f"{max(joint_ham):.1e} (joint), {max(sep_ham):.1e} (separable, informative)",
                t0)

    def test_04_scaling_identity(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(44)
        base_r = base_t = np.linspace(0.05, 0.25, 5)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(20, 201))
            p = uniform_pattern(n, seed=int(rng.integers(0, 2**31)))
            w = weights_from_function(p, marked_fn=lambda x, t, m: 15.0 + 10.0 * x[:, 0] + 5.0 * t)
            ref = k_inhom(p, LOWER_HALF, UPPER_HALF, base_r, base_t, weights=w, scenario="S1")
            for bs, bt in ((2.0, 0.5), (10.0, 3.0)):
                q = rescale(p, bs, bt)
                factor = bs**2 * bt
                w2 = Weights(lam=w.lam / factor)
                scaled = k_inhom(q, LOWER_HALF, UPPER_HALF, base_r * bs, base_t * bt,
                                 weights=w2, scenario="S1")
                target = factor * ref.values
                # cells with no qualifying pairs hold signed accumulation
                # residue of order 1e-18; compare those absolutely
                scale = np.max(np.abs(target))
                dust = np.abs(target) <= 1e-12 * scale
                assert np.all(np.abs(scaled.values[dust] - target[dust]) <= 1e-12 * scale)
                nz = ~dust
                if np.any(nz):
                    worst = max(worst, float(np.max(
                        np.abs(scaled.values[nz] - target[nz]) / np.abs(target[nz]))))
        ok = worst <= 1e-9
        _report(capsys, 4, "rescaling identity, 10 patterns x 2 scale pairs",
                ok, f"max relative deviation {worst:.2e}", t0)

    def test_05_indexed_equals_brute(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(55)
        all_equal = True
        for _ in range(50):
            n = int(rng.integers(5, 201))
            p = uniform_pattern(n, seed=int(rng.integers(0, 2**31)))
            w = weights_from_function(
                p,
                marked_fn=lambda x, t, m: 15.0 + 10.0 * x[:, 0] + 5.0 * t,
                ground_fn=lambda x, t: 20.0 + 10.0 * x[:, 1],
            )
            ki = k_inhom(p, LOWER_HALF, UPPER_HALF, R20, T20, weights=w)
            gi = k_ground(p, R20, T20, weights=w)
            # the estimators' formulas on the pairs of a plain O(N^2) scan
            full = pair_geometry_oracle(p, R20, T20)
            mC = LOWER_HALF.mask(p.marks).astype(float)
            mD = UPPER_HALF.mask(p.marks).astype(float)
            inv, inv_g = 1.0 / w.lam, 1.0 / w.lam_ground
            denom = denominator_oracle(full, "S2", mC, mD, inv, None,
                                       p.nu(LOWER_HALF), p.nu(UPPER_HALF))
            kb = k_values_oracle(full, inv[full.I] * inv[full.J], mC, mD, denom)
            ones = np.ones(p.n)
            denom = denominator_oracle(full, "S1", ones, ones, inv_g, inv_g, 1.0, 1.0)
            gb = k_values_oracle(full, inv_g[full.I] * inv_g[full.J], ones, ones, denom)
            all_equal = all_equal and np.array_equal(ki.values, kb)
            all_equal = all_equal and np.array_equal(gi.values, gb)
        _report(capsys, 5, "indexed vs brute-force pair enumeration, 50 patterns",
                all_equal, "marked and ground surfaces bit-identical to the scan oracle", t0)

    def test_06_independent_marks_envelope(self, capsys):
        t0 = time.time()
        sampler = _sampler("lgcp-bernoulli")
        true_weights = _true_weights("lgcp-bernoulli")

        def simulator(index, seed):
            p = simulate_preset("lgcp-bernoulli", seed=seed, sampler=sampler)
            diag = diag_independent_marks(
                p, LABEL_1, LABEL_2, R20, T20, weights=true_weights(p), scenario="S1"
            )
            return diag.values

        env = envelopes(np.zeros((20, 20)), simulator, 99, rank="minmax",
                        seed=606, generator="lgcp-bernoulli")
        covered = 1.0 - env.exceedance_fraction
        ok = covered >= 0.95
        _report(capsys, 6, "label K minus ground K MinMax envelope covers 0 (99 sims)",
                ok, f"covered {covered:.1%} of 400 cells", t0)

    def test_07_independent_components_envelope(self, capsys):
        t0 = time.time()
        sampler = _sampler("bivariate")
        bench = poisson_reference(R20, T20, 2).values
        _, marked_fn = preset_intensity("bivariate")

        def simulator(index, seed):
            p = simulate_preset("bivariate", seed=seed, sampler=sampler)
            w = weights_from_function(p, marked_fn=marked_fn)
            kx = k_cross_multitype(p, 1, 2, R20, T20, weights=w)
            return kx.values - bench

        env = envelopes(np.zeros((20, 20)), simulator, 99, rank="minmax",
                        seed=707, generator="bivariate")
        covered = 1.0 - env.exceedance_fraction
        ok = covered >= 0.95
        _report(capsys, 7, "cross-type K minus 2*pi*r^2*t MinMax envelope covers 0 (99 sims)",
                ok, f"covered {covered:.1%} of 400 cells", t0)

    def test_08_random_labelling_calibration_and_power(self, capsys):
        t0 = time.time()
        bernoulli_builder = _true_weights("poisson-bernoulli")
        exceed = np.zeros((20, 20))
        null_any = 0
        for s, child in enumerate(np.random.SeedSequence(808).spawn(100)):
            p = simulate_preset("poisson-bernoulli", seed=child)
            res = random_labelling_test(
                p, LABEL_1, LABEL_2, R20, T20, weights_builder=bernoulli_builder,
                n_perm=99, rank="pointwise", alpha=0.05, seed=1000 + s,
            )
            exceed += res.exceeds
            null_any += bool(res.exceeds.any())
        freq = exceed / 100.0
        cal_ok = 0.01 <= freq.mean() <= 0.12

        sampler = _sampler("lgcp-geostat")
        c_neg = MarkInterval(-8.0, 0.0)
        d_pos = MarkInterval(0.0, 8.0, closed_lo=False)
        geostat_builder = _true_weights("lgcp-geostat")

        power_hits = 0
        for s, child in enumerate(np.random.SeedSequence(809).spawn(50)):
            p = simulate_preset("lgcp-geostat", seed=child, sampler=sampler)
            res = random_labelling_test(
                p, c_neg, d_pos, R20, T20, weights_builder=geostat_builder,
                n_perm=99, rank="pointwise", alpha=0.05, seed=2000 + s,
            )
            power_hits += bool(res.exceeds.any())
        power_ok = power_hits >= 25

        _report(capsys, 8, "random-labelling test: calibration and power",
                cal_ok and power_ok,
                f"null per-cell exceedance mean {freq.mean():.3f} "
                f"(cells {freq.min():.2f}..{freq.max():.2f}, any-cell {null_any}/100); "
                f"geostat marks flagged {power_hits}/50",
                t0)

    def test_09_simulation_means(self, capsys):
        t0 = time.time()
        counts = [simulate_preset("poisson-bernoulli", seed=s).n for s in range(500)]
        # intensity 5t*exp(5+x/2): time integral 5/2, x integral 2 e^5 (sqrt(e)-1),
        # y integral 1 -> expected count 5 e^5 (sqrt(e)-1)
        oracle_p = 5.0 * np.exp(5.0) * (np.exp(0.5) - 1.0)
        rel_p = abs(np.mean(counts) / oracle_p - 1.0)

        sampler = _sampler("lgcp-bernoulli")
        lgcp_counts = [
            simulate_preset("lgcp-bernoulli", seed=10_000 + s, sampler=sampler).n
            for s in range(200)
        ]
        # log-normal mean: exp(log 750 - (y+t)/2 - s2/2 + s2/2) integrated over
        # the unit cube -> 750 ((1-e^{-1/2})/(1/2))^2
        oracle_l = 750.0 * ((1.0 - np.exp(-0.5)) / 0.5) ** 2
        rel_l = abs(np.mean(lgcp_counts) / oracle_l - 1.0)

        ok = rel_p <= 0.02 and rel_l <= 0.05
        _report(capsys, 9, "simulated counts vs closed-form means",
                ok,
                f"Poisson preset {np.mean(counts):.1f} vs {oracle_p:.1f} "
                f"(rel {rel_p:.3%}, 500 seeds); log-Gaussian Cox "
                f"{np.mean(lgcp_counts):.1f} vs {oracle_l:.1f} (rel {rel_l:.3%}, 200 seeds)",
                t0)

    def test_10_cli_determinism(self, capsys, tmp_path):
        t0 = time.time()

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "mstpp.cli", *args],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc

        def csv_bytes(d):
            return {f.name: f.read_bytes() for f in sorted(d.glob("*.csv"))}

        catalog = tmp_path / "catalog.csv"
        save_catalog(uniform_pattern(24, seed=90, marks="labels"), catalog)

        checks = []

        # simulate: same seed twice
        conf = tmp_path / "sim.cfg"
        conf.write_text("preset = poisson-bernoulli\n")
        a, b = tmp_path / "sim_a", tmp_path / "sim_b"
        for out in (a, b):
            run(["simulate", "--config", str(conf), "--seed", "7", "--out", str(out)])
        checks.append(("simulate", csv_bytes(a) == csv_bytes(b)))

        # intensity: same input twice
        conf = tmp_path / "int.cfg"
        conf.write_text(
            f"input = {catalog}\nwindow = 0,1,0,1,0,1\nmarks = labels,2\n"
            "estimator = marked\n"
            "quad_space = 20\nquad_time = 20\nquad_mark = 6\n"
            "eval_cells = 3,3,2,2\ndump_cells = true\n"
        )
        a, b = tmp_path / "int_a", tmp_path / "int_b"
        for out in (a, b):
            run(["intensity", "--config", str(conf), "--out", str(out)])
        checks.append(("intensity", csv_bytes(a) == csv_bytes(b)))

        # k with resampling smoothing: serial vs two threads, same seed
        conf = tmp_path / "k.cfg"
        conf.write_text(
            f"input = {catalog}\nwindow = 0,1,0,1,0,1\nmarks = labels,2\n"
            "c_set = labels,1\nd_set = labels,2\nweights = voronoi-ground\n"
            "n_r = 4\nn_t = 4\nsmooth_n = 3\nsmooth_p = 0.6\n"
        )
        a, b = tmp_path / "k_a", tmp_path / "k_b"
        run(["k", "--config", str(conf), "--seed", "11", "--threads", "1", "--out", str(a)])
        run(["k", "--config", str(conf), "--seed", "11", "--threads", "2", "--out", str(b)])
        checks.append(("k", csv_bytes(a) == csv_bytes(b)))

        # test: serial vs two threads, same seed
        conf = tmp_path / "test.cfg"
        conf.write_text(
            f"input = {catalog}\nwindow = 0,1,0,1,0,1\nmarks = labels,2\n"
            "c_set = labels,1\nd_set = labels,2\nweights = voronoi-ground\n"
            "n_r = 3\nn_t = 3\nn_perm = 9\n"
        )
        a, b = tmp_path / "t_a", tmp_path / "t_b"
        run(["test", "--config", str(conf), "--seed", "5", "--threads", "1", "--out", str(a)])
        run(["test", "--config", str(conf), "--seed", "5", "--threads", "2", "--out", str(b)])
        checks.append(("test", csv_bytes(a) == csv_bytes(b)))

        ok = all(eq for _, eq in checks)
        failed = [name for name, eq in checks if not eq]
        _report(capsys, 10, "byte-identical CLI outputs, serial vs parallel",
                ok, "all four commands" if ok else f"mismatch in {failed}", t0)
