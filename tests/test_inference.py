import csv
import json

import numpy as np
import pytest

import mstpp.inference as inference
import mstpp.pattern as pattern
import mstpp.second_order as second_order
from mstpp.inference import (
    DISCLAIMER,
    DeltaSurface,
    EnvelopeSet,
    decomposition_residual,
    delta_surface,
    diag_independent_components,
    diag_independent_marks,
    envelopes,
    random_labelling_test,
)
from mstpp.pattern import (
    ContinuousMarks,
    LabelMarks,
    LabelSet,
    MarkInterval,
    pattern_from_arrays,
    permute_marks,
)
from mstpp.second_order import Weights, k_ground, k_inhom, pair_geometry

from .conftest import UNIT, uniform_pattern
from .oracles import (
    denominator_oracle,
    k_cells_oracle,
    k_values_oracle,
    pair_geometry_oracle,
)

R_GRID = np.linspace(0.05, 0.25, 5)
T_GRID = np.linspace(0.05, 0.25, 5)
C_HALF = MarkInterval(0.0, 0.5)
D_HALF = MarkInterval(0.5, 1.0, closed_lo=False)
ZERO_MASS = MarkInterval(0.5, 0.5)
LAM20 = np.full(20, 12.0)  # one weight per point of small_marked


def const_weights(p):
    return Weights(lam=np.full(p.n, 12.0), lam_ground=np.full(p.n, 12.0))


def mark_weights(p):
    """Weights that depend on the marks, so every permutation changes them."""
    lam = 10.0 + 5.0 * p.marks + 3.0 * p.x[:, 0]
    return Weights(lam=lam, lam_ground=1.5 * lam)


def no_work(*args, **kw):
    raise AssertionError("work started before the arguments were checked")


def forbid_geometry(monkeypatch):
    """Make every pair-geometry build fail, wherever it is looked up."""
    monkeypatch.setattr(inference, "pair_geometry", no_work)
    monkeypatch.setattr(second_order, "pair_geometry", no_work)


class TestDeltaSurface:
    def test_antisymmetry_exact(self, small_marked):
        w = const_weights(small_marked)
        for scenario in ("S1", "S2"):
            cd = delta_surface(small_marked, C_HALF, D_HALF, R_GRID, T_GRID, w,
                               scenario=scenario)
            dc = delta_surface(small_marked, D_HALF, C_HALF, R_GRID, T_GRID, w,
                               scenario=scenario)
            assert np.array_equal(cd.values, -dc.values), scenario

    def test_equals_difference_of_k_surfaces(self, small_marked):
        p = small_marked
        w = const_weights(p)
        geom = pair_geometry(p, R_GRID, T_GRID)
        delta = delta_surface(p, C_HALF, D_HALF, weights=w, geometry=geom)
        cd = k_inhom(p, C_HALF, D_HALF, weights=w, geometry=geom)
        dc = k_inhom(p, D_HALF, C_HALF, weights=w, geometry=geom)
        assert np.array_equal(delta.values, cd.values - dc.values)

    def test_matches_oracle(self, small_marked):
        p = small_marked
        w = const_weights(p)
        delta = delta_surface(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S2")
        cm, dm = C_HALF.mask(p.marks), D_HALF.mask(p.marks)
        want = k_cells_oracle(p, R_GRID, T_GRID, w.lam, c_mask=cm, d_mask=dm,
                              scenario="S2") - \
            k_cells_oracle(p, R_GRID, T_GRID, w.lam, c_mask=dm, d_mask=cm,
                           scenario="S2")
        assert np.allclose(delta.values, want, rtol=1e-9, atol=1e-12)

    def test_identical_sets_give_zero(self, small_marked):
        delta = delta_surface(small_marked, C_HALF, C_HALF, R_GRID, T_GRID,
                              const_weights(small_marked))
        assert np.all(delta.values == 0.0)

    def test_statistic_and_meta(self, small_marked):
        delta = delta_surface(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                              const_weights(small_marked), scenario=2)
        assert delta.statistic == "K_CD - K_DC"
        assert delta.meta["scenario"] == "S2"
        assert delta.meta["erosion"] == "per-cell"
        assert delta.meta["weights_source"] == "TrueIntensity"

    def test_validation(self, small_marked):
        with pytest.raises(ValueError, match="weights"):
            delta_surface(small_marked, C_HALF, D_HALF, R_GRID, T_GRID, None)
        with pytest.raises(ValueError, match="lam_ground"):
            delta_surface(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                          Weights(lam=np.ones(small_marked.n)), scenario="S3")
        with pytest.raises(ValueError, match="shape"):
            DeltaSurface(r_grid=np.array([0.1]), t_grid=np.array([0.1]),
                         values=np.zeros((2, 2)), C=None, D=None, statistic="x")
        with pytest.raises(ValueError, match="finite"):
            DeltaSurface(r_grid=np.array([0.1]), t_grid=np.array([0.1]),
                         values=np.array([[np.nan]]), C=None, D=None, statistic="x")

    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_zero_mass_mark_sets_rejected(self, small_marked, scenario):
        w = const_weights(small_marked)
        for C, D in ((ZERO_MASS, D_HALF), (C_HALF, ZERO_MASS)):
            with pytest.raises(ValueError, match="positive reference measure"):
                delta_surface(small_marked, C, D, R_GRID, T_GRID, w, scenario=scenario)

    @pytest.mark.parametrize("C, weights, scenario, match", [
        (C_HALF, None, "S2", "weights"),
        (C_HALF, Weights(lam=LAM20), "S3", "lam_ground"),
        (C_HALF, Weights(lam=LAM20), "S4", "lam_ground"),
        (ZERO_MASS, Weights(lam=LAM20), "S1", "positive reference measure"),
        (ZERO_MASS, Weights(lam=LAM20), "S2", "positive reference measure"),
    ])
    def test_bad_arguments_fail_before_any_work(self, small_marked, monkeypatch,
                                                C, weights, scenario, match):
        forbid_geometry(monkeypatch)
        with pytest.raises(ValueError, match=match):
            delta_surface(small_marked, C, D_HALF, R_GRID, T_GRID, weights,
                          scenario=scenario)

    def test_geometry_must_match_the_call(self, small_marked):
        w = const_weights(small_marked)
        other = pair_geometry(uniform_pattern(30, seed=3), R_GRID, T_GRID)
        with pytest.raises(ValueError, match="30 points, the pattern 20"):
            delta_surface(small_marked, C_HALF, D_HALF, weights=w, geometry=other)
        geom = pair_geometry(small_marked, R_GRID, T_GRID)
        with pytest.raises(ValueError, match="not both"):
            delta_surface(small_marked, C_HALF, D_HALF, R_GRID, T_GRID, w, geometry=geom)
        with pytest.raises(ValueError, match="erosion 'fixed' differs from the geometry's"):
            delta_surface(small_marked, C_HALF, D_HALF, weights=w, erosion="fixed",
                          geometry=geom)
        surf = delta_surface(small_marked, C_HALF, D_HALF, weights=w, geometry=geom)
        assert surf.meta["erosion"] == "per-cell"


@pytest.mark.parametrize("diagnostic", [
    lambda p, C, w, sc: diag_independent_marks(p, C, D_HALF, R_GRID, T_GRID, w, scenario=sc),
    lambda p, C, w, sc: diag_independent_components(p, C, D_HALF, R_GRID, T_GRID, w,
                                                    scenario=sc),
    lambda p, C, w, sc: decomposition_residual(p, C, R_GRID, T_GRID, w, scenario=sc),
], ids=["marks", "components", "residual"])
@pytest.mark.parametrize("C, weights, scenario, match", [
    (C_HALF, None, "S2", "weights"),
    (C_HALF, Weights(lam=LAM20), 3, "lam_ground"),
    (ZERO_MASS, Weights(lam=LAM20), "S2", "positive reference measure"),
    (C_HALF, Weights(lam=LAM20), 7, "scenario"),
], ids=["weights", "lam_ground", "zero-mass", "scenario"])
def test_diagnostics_fail_before_any_work(small_marked, monkeypatch, diagnostic,
                                          C, weights, scenario, match):
    forbid_geometry(monkeypatch)
    with pytest.raises(ValueError, match=match):
        diagnostic(small_marked, C, weights, scenario)


@pytest.mark.parametrize("diagnostic", [
    lambda p, w: diag_independent_marks(p, C_HALF, D_HALF, R_GRID, T_GRID, w),
    lambda p, w: decomposition_residual(p, C_HALF, R_GRID, T_GRID, w),
], ids=["marks", "residual"])
def test_diagnostic_terms_are_one_sum_on_one_geometry(small_marked, monkeypatch, diagnostic):
    builds, sums = [], []
    build, k_values = second_order.pair_geometry, second_order._k_values

    def counting_build(*args, **kw):
        builds.append(1)
        return build(*args, **kw)

    def counting_sum(geom, inv, *args, **kw):
        sums.append(len(inv))
        return k_values(geom, inv, *args, **kw)

    for module in (inference, second_order):
        monkeypatch.setattr(module, "pair_geometry", counting_build)
    monkeypatch.setattr(second_order, "_k_values", counting_sum)
    diagnostic(small_marked, const_weights(small_marked))
    assert builds == [1] and sums == [2]


class TestIndependentMarksDiagnostic:
    def test_full_sets_identically_zero(self, small_marked):
        w = const_weights(small_marked)
        for C, D in ((None, None), (MarkInterval(0.0, 1.0), MarkInterval(0.0, 1.0))):
            diff = diag_independent_marks(small_marked, C, D, R_GRID, T_GRID, w)
            assert np.all(diff.values == 0.0)

    def test_matches_manual_difference(self, small_marked):
        p = small_marked
        w = const_weights(p)
        diff = diag_independent_marks(p, C_HALF, D_HALF, R_GRID, T_GRID, w)
        geom = pair_geometry(p, R_GRID, T_GRID)
        marked = k_inhom(p, C_HALF, D_HALF, weights=w, geometry=geom)
        ground = k_inhom(p, None, None, weights=w, geometry=geom)
        assert np.array_equal(diff.values, marked.values - ground.values)
        assert diff.statistic == "K_CD - K_ground"

    def test_location_determined_marks_suppress_cross_pairs(self):
        base = uniform_pattern(150, seed=80, marks=None)
        p = base.with_marks(base.x[:, 0].copy(), ContinuousMarks(0.0, 1.0, "lebesgue"))
        w = Weights(lam=np.full(p.n, 150.0))
        diff = diag_independent_marks(p, C_HALF, D_HALF, R_GRID, T_GRID, w)
        # marks equal the first spatial coordinate, so C-D pairs must
        # straddle the mid-plane: far fewer close pairs than the ground rate
        assert np.all(diff.values[0, :] < 0.0)
        assert diff.values[0, 0] < -0.5 * k_inhom(
            p, None, None, R_GRID, T_GRID, w
        ).values[0, 0]


class TestIndependentComponentsDiagnostic:
    def test_matches_manual_difference(self, small_labelled):
        p = small_labelled
        w = const_weights(p)
        C, D = LabelSet([1]), LabelSet([2])
        diff = diag_independent_components(p, C, D, R_GRID, T_GRID, w)
        surf = k_inhom(p, C, D, R_GRID, T_GRID, w)
        assert np.array_equal(diff.values, surf.values - surf.poisson_surface())
        assert diff.statistic == "K_CD - poisson"

    def test_coupled_components_deviate_at_small_lags(self):
        base = uniform_pattern(60, seed=81, marks=None)
        x = np.vstack([base.x, base.x])
        t = np.concatenate([base.t, base.t])
        marks = np.concatenate([np.ones(60), np.full(60, 2.0)])
        p = pattern_from_arrays(x, t, marks, UNIT, LabelMarks(k=2))
        w = Weights(lam=np.full(p.n, 60.0))
        diff = diag_independent_components(
            p, LabelSet([1]), LabelSet([2]), R_GRID, T_GRID, w
        )
        # every type-1 point has a type-2 twin at zero lag: far above Poisson
        assert diff.values[0, 0] > 10.0 * np.outer(
            R_GRID**2, 2.0 * T_GRID
        )[0, 0] * np.pi


class TestDecompositionResidual:
    def test_full_set_residual_is_zero(self, small_marked):
        w = const_weights(small_marked)
        res = decomposition_residual(small_marked, MarkInterval(0.0, 1.0),
                                     R_GRID, T_GRID, w)
        assert np.allclose(res.values, 0.0, atol=1e-15)

    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_full_mark_space_residual_is_exactly_zero(self, small_marked, small_labelled,
                                                     scenario):
        # C = None is the full mark space, as in every K-family function
        for p in (small_marked, small_labelled):
            res = decomposition_residual(p, None, R_GRID, T_GRID, mark_weights(p),
                                         scenario=scenario)
            assert np.all(res.values == 0.0)

    def test_matches_manual_combination(self, small_labelled):
        p = small_labelled
        w = const_weights(p)
        C = LabelSet([1])
        res = decomposition_residual(p, C, R_GRID, T_GRID, w)
        geom = pair_geometry(p, R_GRID, T_GRID)
        k_cm = k_inhom(p, C, None, weights=w, geometry=geom)
        k_cc = k_inhom(p, C, C, weights=w, geometry=geom)
        bench = np.outer(R_GRID**2, 2.0 * T_GRID) * np.pi
        want = k_cm.values - 0.5 * bench - 0.5 * k_cc.values
        assert np.allclose(res.values, want, rtol=1e-12, atol=1e-15)
        assert res.statistic == "K_CM decomposition residual"
        # each term keeps the bits of its own estimate
        exact = k_cm.values - 0.5 * k_cm.poisson_surface() - 0.5 * k_cc.values
        assert np.array_equal(res.values, exact)

    def test_weights_required(self, small_marked):
        with pytest.raises(ValueError, match="weights"):
            decomposition_residual(small_marked, C_HALF, R_GRID, T_GRID, None)


class TestEnvelopes:
    @staticmethod
    def noise_simulator(i, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(3, 4))

    def test_minmax_matches_recomputed_stack(self):
        observed = np.zeros((3, 4))
        env = envelopes(observed, self.noise_simulator, n_sim=12, seed=5)
        children = np.random.SeedSequence(5).spawn(12)
        stack = np.stack([self.noise_simulator(i, children[i]) for i in range(12)])
        assert np.array_equal(env.lower, stack.min(axis=0))
        assert np.array_equal(env.upper, stack.max(axis=0))
        assert env.rank == "MinMax"
        assert np.array_equal(env.exceeds,
                              (observed < env.lower) | (observed > env.upper))

    def test_pointwise_matches_quantiles(self):
        observed = np.zeros((3, 4))
        env = envelopes(observed, self.noise_simulator, n_sim=40,
                        rank="pointwise", alpha=0.1, seed=6)
        children = np.random.SeedSequence(6).spawn(40)
        stack = np.stack([self.noise_simulator(i, children[i]) for i in range(40)])
        assert np.array_equal(env.lower, np.quantile(stack, 0.05, axis=0))
        assert np.array_equal(env.upper, np.quantile(stack, 0.95, axis=0))
        assert env.rank == "Pointwise(0.1)"

    @pytest.mark.parametrize("n_sim", [19, 99, 999])
    def test_pointwise_bounds_have_the_bits_of_separate_quantiles(self, n_sim):
        # both bounds come from one np.quantile call; its partition can
        # pick the other of two tied zeros, -0.0 and +0.0, which a
        # difference surface never holds (x - x is +0.0), so the ties here
        # are +0.0 alone
        rng = np.random.default_rng(n_sim)
        stack = rng.normal(size=(n_sim, 20, 20))
        stack[:, :5] = np.round(stack[:, :5]) + 0.0
        for alpha in (0.01, 0.05, 0.1, 0.5):
            env = inference._envelope(np.zeros((20, 20)), stack, "pointwise", alpha, "noise")
            assert env.lower.tobytes() == np.quantile(stack, alpha / 2.0, axis=0).tobytes()
            assert env.upper.tobytes() == np.quantile(stack, 1.0 - alpha / 2.0,
                                                      axis=0).tobytes()

    def test_single_simulation_minmax_is_that_replicate(self):
        env = envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=1, seed=7)
        assert np.array_equal(env.lower, env.upper)
        assert env.n_sim == 1

    def test_observed_replicate_never_exits_minmax(self):
        observed = np.full((2, 2), 3.0)

        def sim(i, seed):
            if i == 0:
                return observed
            return np.random.default_rng(seed).normal(size=(2, 2))

        env = envelopes(observed, sim, n_sim=10, seed=8)
        assert not env.exceeds.any()
        assert env.exceedance_fraction == 0.0

    def test_thread_count_does_not_change_results(self):
        a = envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=9, seed=9)
        b = envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=9, seed=9,
                      threads=2)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_seed_sensitivity(self):
        a = envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=9, seed=10)
        b = envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=9, seed=11)
        assert not np.array_equal(a.lower, b.lower)

    def test_replicate_failure_reports_index(self):
        def sim(i, seed):
            if i == 3:
                raise ValueError("boom")
            return np.zeros((2, 2))

        with pytest.raises(RuntimeError, match="replicate 3"):
            envelopes(np.zeros((2, 2)), sim, n_sim=5, seed=12)

    @pytest.mark.parametrize("rank", ["minmax", "pointwise"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_replicate_reports_index(self, rank, bad, threads):
        # a NaN replicate once made the band NaN in every cell, so that no
        # cell exceeded it; it fails as a raising replicate does
        def sim(i, seed):
            values = np.zeros((2, 2))
            values[1, 0] = bad if i == 3 else 0.0
            return values

        with pytest.raises(RuntimeError, match="non-finite statistic at replicate 3"):
            envelopes(np.zeros((2, 2)), sim, n_sim=5, rank=rank, seed=12, threads=threads)

    @pytest.mark.parametrize("rank", ["minmax", "pointwise"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observed_fails_before_any_replicate(self, rank, bad):
        observed = np.zeros((2, 2))
        observed[0, 1] = bad
        with pytest.raises(ValueError, match="observed statistic must be finite"):
            envelopes(observed, no_work, n_sim=5, rank=rank, seed=12)

    def test_shape_mismatch_rejected(self):
        def sim(i, seed):
            return np.zeros((3, 3))

        with pytest.raises(ValueError, match="shape"):
            envelopes(np.zeros((2, 2)), sim, n_sim=2, seed=13)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_sim=0), "simulation"),
        (dict(n_sim=2.5), "simulation"),
        (dict(n_sim=True), "simulation"),
        (dict(seed=-1), "seed"),
        (dict(seed=2.5), "seed"),
        (dict(threads=0), "thread"),
        (dict(threads=2.5), "thread"),
    ])
    def test_bad_counts_fail_before_any_simulation(self, kwargs, match):
        kwargs = {"n_sim": 3, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=match):
            envelopes(np.zeros((2, 2)), no_work, **kwargs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="simulation"):
            envelopes(np.zeros((2, 2)), self.noise_simulator, n_sim=0)
        with pytest.raises(ValueError, match="rank"):
            envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=2,
                      rank="global", seed=1)
        for alpha in (0.0, 1.0, 1.7):
            with pytest.raises(ValueError, match="alpha"):
                envelopes(np.zeros((3, 4)), self.noise_simulator, n_sim=2,
                          rank="pointwise", alpha=alpha)
        with pytest.raises(ValueError, match="crossed"):
            EnvelopeSet(observed=None, lower=np.ones(3), upper=np.zeros(3),
                        rank="MinMax", n_sim=1, generator="g",
                        exceeds=np.zeros(3, dtype=bool))


class TestRandomLabelling:
    def test_deterministic_under_seed(self, small_marked):
        kw = dict(r_grid=R_GRID, t_grid=T_GRID, weights_builder=const_weights,
                  n_perm=19, seed=21)
        a = random_labelling_test(small_marked, C_HALF, D_HALF, **kw)
        b = random_labelling_test(small_marked, C_HALF, D_HALF, **kw)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)
        assert np.array_equal(a.exceeds, b.exceeds)
        assert a.generator == "mark-permutation"
        assert a.meta["disclaimer"] == DISCLAIMER
        assert a.meta["exceedance_fraction"] == a.exceedance_fraction

    def test_default_builder_modes_coincide(self):
        p = uniform_pattern(15, seed=82)
        a = random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                  n_perm=9, seed=22, rebuild_weights=True)
        b = random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                  n_perm=9, seed=22, rebuild_weights=False)
        assert np.array_equal(a.observed.values, b.observed.values)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)
        assert a.meta["weights_mode"] == "rebuilt"
        assert b.meta["weights_mode"] == "fixed"
        assert a.observed.meta["weights_source"] == "PluggedEstimate"

    def test_null_data_mostly_inside_pointwise_bands(self):
        p = uniform_pattern(40, seed=83)
        env = random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                    weights_builder=const_weights,
                                    n_perm=99, seed=23)
        assert env.exceedance_fraction <= 0.25

    def test_permutation_mean_delta_vanishes(self, small_marked):
        p = small_marked
        geom = pair_geometry(p, R_GRID, T_GRID)
        w = const_weights(p)
        children = np.random.SeedSequence(24).spawn(60)
        stack = np.stack([
            delta_surface(permute_marks(p, seed=s), C_HALF, D_HALF,
                          weights=w, geometry=geom).values
            for s in children
        ])
        se = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
        ok = np.abs(stack.mean(axis=0)) <= 3.0 * se + 1e-12
        assert ok.mean() >= 0.9

    def test_ground_statistic_invariant_under_permutation(self, small_marked):
        p = small_marked
        q = permute_marks(p, seed=25)
        w = Weights(lam_ground=np.full(p.n, 20.0))
        a = k_ground(p, R_GRID, T_GRID, w)
        b = k_ground(q, R_GRID, T_GRID, w)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_and_invalid_inputs(self, small_marked):
        with pytest.warns(UserWarning, match="degenerate"):
            random_labelling_test(small_marked, C_HALF, C_HALF, R_GRID, T_GRID,
                                  weights_builder=const_weights, n_perm=3, seed=26)
        unmarked = uniform_pattern(5, seed=84, marks=None)
        with pytest.raises(ValueError, match="marked"):
            random_labelling_test(unmarked, C_HALF, D_HALF, R_GRID, T_GRID,
                                  weights_builder=const_weights, n_perm=3)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(scenario=7), "scenario"),
        (dict(n_perm=0), "permutation"),
        (dict(n_perm=2.5), "permutation"),
        (dict(n_perm=True), "permutation"),
        (dict(seed=-1), "seed"),
        (dict(seed=2.5), "seed"),
        (dict(threads=0), "thread"),
        (dict(threads=2.5), "thread"),
        (dict(alpha=1.7), "alpha"),
        (dict(alpha=0.0), "alpha"),
        (dict(rank="global"), "rank"),
        (dict(r_grid=np.array([np.nan, 0.1])), "finite"),
        (dict(t_grid=np.array([0.1, np.nan])), "finite"),
    ])
    def test_bad_arguments_fail_before_any_work(self, small_marked, monkeypatch,
                                                kwargs, match):
        def no_work(*args, **kw):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(inference, "pair_geometry", no_work)
        kwargs = {"r_grid": R_GRID, "t_grid": T_GRID, **kwargs}
        with pytest.raises(ValueError, match=match):
            random_labelling_test(small_marked, C_HALF, D_HALF,
                                  weights_builder=no_work, **kwargs)

    def test_delta_surface_checks_scenario_first(self, small_marked, monkeypatch):
        forbid_geometry(monkeypatch)
        with pytest.raises(ValueError, match="scenario"):
            delta_surface(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                          const_weights(small_marked), scenario=7)

    @pytest.mark.parametrize("C, D", [(ZERO_MASS, D_HALF), (C_HALF, ZERO_MASS)])
    def test_zero_mass_mark_set_fails_before_any_work(self, small_marked, monkeypatch,
                                                       C, D):
        forbid_geometry(monkeypatch)
        monkeypatch.setattr(inference, "_default_builder", no_work)
        for builder in (no_work, None):
            with pytest.raises(ValueError, match="positive reference measure"):
                random_labelling_test(small_marked, C, D, R_GRID, T_GRID,
                                      weights_builder=builder, n_perm=3)

    def test_coincident_locations_fail_before_any_work(self, monkeypatch):
        # two points at one (x, t) with different labels form a simple
        # pattern, but about half of all permutations give them one label
        base = uniform_pattern(60, seed=86, marks="labels")
        x, t, marks = base.x.copy(), base.t.copy(), base.marks.copy()
        x[1], t[1] = x[0], t[0]
        marks[:2] = 1.0, 2.0
        p = pattern_from_arrays(x, t, marks, UNIT, LabelMarks(k=2))
        with pytest.raises(ValueError, match="not simple"):
            for s in range(20):
                permute_marks(p, seed=s)
        forbid_geometry(monkeypatch)
        monkeypatch.setattr(inference, "permute_marks", no_work)
        with pytest.raises(ValueError, match="distinct point locations"):
            random_labelling_test(p, LabelSet([1]), LabelSet([2]), R_GRID, T_GRID,
                                  weights_builder=no_work, n_perm=20, seed=0)

    def test_distinct_locations_checked_once(self, monkeypatch):
        # the test's own check and the permutations share the pattern's
        # cached result
        p = uniform_pattern(40, seed=87, marks="labels")
        real, widths = pattern._first_rows, []

        def counting(rows):
            widths.append(rows.shape[1])
            return real(rows)

        monkeypatch.setattr(pattern, "_first_rows", counting)
        random_labelling_test(p, LabelSet([1]), LabelSet([2]), R_GRID, T_GRID,
                              weights_builder=const_weights, n_perm=5, seed=0)
        # one (x, t) check; a checked (x, t, mark) pattern would add 4s
        assert widths == [3]

    def test_serialization_round_trip(self, small_marked, tmp_path):
        env = random_labelling_test(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                                    weights_builder=const_weights, n_perm=9, seed=27)
        surface_csv = tmp_path / "bands.csv"
        env.write_csv(surface_csv)
        with open(surface_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "t", "observed", "lower", "upper", "exceeds"]
        assert len(rows) == 1 + R_GRID.size * T_GRID.size
        back = np.array([float(v[3]) for v in rows[1:]]).reshape(env.lower.shape)
        assert np.array_equal(back, env.lower)
        meta_json = tmp_path / "bands.meta.json"
        env.write_meta(meta_json)
        doc = json.loads(meta_json.read_text())
        assert doc["rank"] == "Pointwise(0.05)"
        assert doc["n_sim"] == 9
        assert doc["generator"] == "mark-permutation"
        assert doc["meta"]["disclaimer"] == DISCLAIMER


class TestBatchedPermutations:
    """The permutations are summed a batch of surfaces at a time. Every
    band and the observed surface must equal the per-permutation
    `delta_surface` values bit for bit, whatever the batch and pair-chunk
    lengths."""

    @staticmethod
    def spy_batches(monkeypatch):
        # the row count of every call of the evaluator core `_k_rows`, the
        # observed surface's (through `_k_surface`) first
        sizes, real = [], second_order._k_rows

        def spy(geom, scenario, terms, *args, **kw):
            sizes.append(len(terms[0]))
            return real(geom, scenario, terms, *args, **kw)

        for module in (inference, second_order):
            monkeypatch.setattr(module, "_k_rows", spy)
        return sizes

    @staticmethod
    def set_batch(monkeypatch, geom, batch):
        # random_labelling_test batches 2 * _CHUNK // (stored pairs + bins)
        # permutations
        entries = geom.I.size + (R_GRID.size + 1) * (T_GRID.size + 1)
        monkeypatch.setattr(inference, "_CHUNK", -(-batch * entries // 2))

    @pytest.mark.parametrize("n_perm, batch, chunk, sizes", [
        (1, None, None, [1, 1]),
        (10, 4, None, [1, 4, 4, 2]),
        (7, 3, 5, [1, 3, 3, 1]),
    ], ids=["one", "batches-4-4-2", "batches-3-3-1-chunk5"])
    @pytest.mark.parametrize("builder, rebuild", [(const_weights, False), (mark_weights, True)],
                             ids=["fixed-weights", "mark-dependent"])
    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_band_equals_per_permutation_oracle(self, monkeypatch, scenario, erosion,
                                                builder, rebuild, n_perm, batch, chunk,
                                                sizes):
        p = uniform_pattern(80, seed=88)
        geom = pair_geometry(p, R_GRID, T_GRID, erosion=erosion)
        w_obs = builder(p)
        want = []
        for child in np.random.SeedSequence(31).spawn(n_perm):
            q = permute_marks(p, seed=child)
            want.append(delta_surface(q, C_HALF, D_HALF, weights=builder(q) if rebuild else w_obs,
                                      scenario=scenario, geometry=geom).values)
        want = np.stack(want)
        assert np.any(want != 0.0)
        observed = delta_surface(p, C_HALF, D_HALF, weights=w_obs, scenario=scenario,
                                 geometry=geom)
        if batch is not None:
            self.set_batch(monkeypatch, geom, batch)
        if chunk is not None:
            monkeypatch.setattr(second_order, "_CHUNK", chunk)
        got = self.spy_batches(monkeypatch)
        env = random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID, weights_builder=builder,
                                    n_perm=n_perm, rank="minmax", scenario=scenario,
                                    erosion=erosion, seed=31, rebuild_weights=rebuild)
        assert got == sizes
        assert env.observed.values.tobytes() == observed.values.tobytes()
        assert env.lower.tobytes() == want.min(axis=0).tobytes()
        assert env.upper.tobytes() == want.max(axis=0).tobytes()

    def test_thread_count_does_not_change_results(self, monkeypatch):
        p = uniform_pattern(60, seed=89)
        self.set_batch(monkeypatch, pair_geometry(p, R_GRID, T_GRID), 4)
        got = self.spy_batches(monkeypatch)
        runs = [random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                      weights_builder=mark_weights, n_perm=11, seed=32,
                                      threads=threads)
                for threads in (1, 2, 3)]
        assert got == [1, 4, 4, 3] * 3
        for env in runs[1:]:
            assert env.observed.values.tobytes() == runs[0].observed.values.tobytes()
            for name in ("lower", "upper", "exceeds"):
                assert getattr(env, name).tobytes() == getattr(runs[0], name).tobytes()

    def test_thread_count_does_not_change_results_with_the_default_builder(self, monkeypatch):
        # every permutation keeps the observed weights object and its 1/lam
        p = uniform_pattern(60, seed=90)
        self.set_batch(monkeypatch, pair_geometry(p, R_GRID, T_GRID), 4)
        got = self.spy_batches(monkeypatch)
        runs = [random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID, n_perm=11, seed=33,
                                      rank="minmax", threads=threads)
                for threads in (1, 2, 3)]
        assert got == [1, 4, 4, 3] * 3
        assert np.any(runs[0].upper != runs[0].lower)
        for env in runs[1:]:
            assert env.observed.values.tobytes() == runs[0].observed.values.tobytes()
            for name in ("lower", "upper", "exceeds"):
                assert getattr(env, name).tobytes() == getattr(runs[0], name).tobytes()

    def test_one_thread_pool_serves_every_batch(self, monkeypatch):
        p = uniform_pattern(60, seed=89)
        self.set_batch(monkeypatch, pair_geometry(p, R_GRID, T_GRID), 4)
        got = self.spy_batches(monkeypatch)
        pools, real = [], second_order.ThreadPoolExecutor

        def counting(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(second_order, "ThreadPoolExecutor", counting)
        for threads in (1, 2):
            random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                  weights_builder=mark_weights, n_perm=11, seed=32,
                                  threads=threads)
        assert got == [1, 4, 4, 3] * 2
        assert pools == [2]


class TestSharedDenominator:
    """A (D, C) surface summed beside its (C, D) one reads the (C, D)
    denominator: each surface pair sums one C row and one D row of
    reciprocal intensities (and, under S4, one window row), not two of
    each, and keeps the bits of the two surfaces summed apart."""

    @staticmethod
    def spy_point_surfaces(monkeypatch):
        # the row count of every `_point_surface` call
        rows, real = [], second_order._point_surface

        def spy(geom, point_w):
            rows.append(len(point_w))
            return real(geom, point_w)

        monkeypatch.setattr(second_order, "_point_surface", spy)
        return rows

    @staticmethod
    def per_pair(scenario, pairs):
        # S2: the C and D rows in one call; S4: the window rows first
        return [2 * pairs] if scenario == "S2" else [pairs, 2 * pairs]

    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    @pytest.mark.parametrize("scenario", ["S2", "S4"])
    def test_delta_and_symmetrized_k(self, monkeypatch, scenario, erosion):
        p = uniform_pattern(80, seed=93)
        w = mark_weights(p)
        geom = pair_geometry(p, R_GRID, T_GRID, erosion=erosion)
        cd, dc = (k_inhom(p, C, D, weights=w, scenario=scenario, geometry=geom).values
                  for C, D in ((C_HALF, D_HALF), (D_HALF, C_HALF)))
        assert np.any(cd != dc)
        rows = self.spy_point_surfaces(monkeypatch)
        delta = delta_surface(p, C_HALF, D_HALF, weights=w, scenario=scenario, geometry=geom)
        assert rows == self.per_pair(scenario, 1)
        rows.clear()
        sym = k_inhom(p, C_HALF, D_HALF, weights=w, scenario=scenario, geometry=geom,
                      symmetrize=True)
        assert rows == self.per_pair(scenario, 1)
        assert delta.values.tobytes() == (cd - dc).tobytes()
        assert sym.values.tobytes() == (0.5 * (cd + dc)).tobytes()

    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    @pytest.mark.parametrize("scenario", ["S2", "S4"])
    def test_one_labelling_batch(self, monkeypatch, scenario, erosion):
        p = uniform_pattern(80, seed=94)
        geom = pair_geometry(p, R_GRID, T_GRID, erosion=erosion)
        n_perm = 5

        def per_row_delta(q):
            w = mark_weights(q)
            cd, dc = (k_inhom(q, C, D, weights=w, scenario=scenario, geometry=geom).values
                      for C, D in ((C_HALF, D_HALF), (D_HALF, C_HALF)))
            return cd - dc

        want = np.stack([per_row_delta(permute_marks(p, seed=child))
                         for child in np.random.SeedSequence(35).spawn(n_perm)])
        TestBatchedPermutations.set_batch(monkeypatch, geom, n_perm)
        rows = self.spy_point_surfaces(monkeypatch)
        env = random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                    weights_builder=mark_weights, n_perm=n_perm, rank="minmax",
                                    scenario=scenario, erosion=erosion, seed=35)
        # the observed surface, then the one batch
        assert rows == self.per_pair(scenario, 1) + self.per_pair(scenario, n_perm)
        assert env.observed.values.tobytes() == per_row_delta(p).tobytes()
        assert env.lower.tobytes() == want.min(axis=0).tobytes()
        assert env.upper.tobytes() == want.max(axis=0).tobytes()


def _oracle_delta(full, q, w, C, D, scenario):
    """K^CD - K^DC of the pattern ``q`` under ``w`` by the full-array
    formulas of the reference geometry ``full``, with q's own masks and
    mark-set masses."""
    mC, mD = C.mask(q.marks).astype(float), D.mask(q.marks).astype(float)
    inv, inv_g = 1.0 / w.lam, 1.0 / w.lam_ground
    denom = denominator_oracle(full, scenario, mC, mD, inv, inv_g, q.nu(C), q.nu(D))
    pw = inv[full.I] * inv[full.J]
    return k_values_oracle(full, pw, mC, mD, denom) - k_values_oracle(full, pw, mD, mC, denom)


class TestLabellingAgainstOracle:
    """The random-labelling band against the full-array formulas of
    `tests/oracles.py`, evaluated permutation by permutation: a check that
    does not share the library's batched sum."""

    @staticmethod
    def check(monkeypatch, p, builder, rebuild, scenario, n_perm=7):
        full = pair_geometry_oracle(p, R_GRID, T_GRID)
        w_obs = builder(p)
        want = np.stack([
            _oracle_delta(full, q, builder(q) if rebuild else w_obs, C_HALF, D_HALF, scenario)
            for q in (permute_marks(p, seed=child)
                      for child in np.random.SeedSequence(34).spawn(n_perm))])
        assert np.any(want != 0.0)
        # batches of 3 permutations, over chunks of 50 stored pairs
        entries = pair_geometry(p, R_GRID, T_GRID).I.size + (R_GRID.size + 1) * (T_GRID.size + 1)
        monkeypatch.setattr(inference, "_CHUNK", -(-3 * entries // 2))
        monkeypatch.setattr(second_order, "_CHUNK", 50)
        env = random_labelling_test(p, C_HALF, D_HALF, R_GRID, T_GRID, weights_builder=builder,
                                    n_perm=n_perm, rank="minmax", scenario=scenario, seed=34,
                                    rebuild_weights=rebuild)
        assert env.observed.values.tobytes() == _oracle_delta(
            full, p, w_obs, C_HALF, D_HALF, scenario).tobytes()
        assert env.lower.tobytes() == want.min(axis=0).tobytes()
        assert env.upper.tobytes() == want.max(axis=0).tobytes()

    @pytest.mark.parametrize("builder, rebuild", [(const_weights, False), (const_weights, True),
                                                  (mark_weights, True)],
                             ids=["fixed-weights", "rebuilt-equal-weights", "mark-dependent"])
    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_band_equals_oracle(self, monkeypatch, scenario, builder, rebuild):
        self.check(monkeypatch, uniform_pattern(80, seed=91), builder, rebuild, scenario)

    @pytest.mark.parametrize("builder, rebuild", [(const_weights, False), (mark_weights, True)],
                             ids=["fixed-weights", "mark-dependent"])
    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_empirical_masses_equal_oracle(self, monkeypatch, scenario, builder, rebuild):
        # the masses of an empirical reference read the marks: the test
        # takes the observed ones for every permutation
        p = uniform_pattern(80, seed=92, mark_space=ContinuousMarks(0.0, 1.0, "empirical"))
        assert p.nu(C_HALF) != C_HALF.hi - C_HALF.lo
        self.check(monkeypatch, p, builder, rebuild, scenario)
