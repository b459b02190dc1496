import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from mstpp.geometry import Window
from mstpp.pattern import ContinuousMarks, LabelMarks, LabelSet, restrict_marks
from mstpp.simulate import (
    PRESET_NAMES,
    SIGMA2,
    UNIT_WINDOW,
    Bernoulli,
    Constant,
    Exponential,
    FactorizationError,
    GridField,
    GRFSampler,
    IntensityField,
    SeparableCovariance,
    UniformInterval,
    UserTable,
    WhittleMatern,
    _BENCH_COV,
    _pairwise_distances,
    assign_marks_geostat,
    assign_marks_iid,
    lgcp_mean,
    poisson_preset_intensity,
    preset_intensity,
    preset_sampler,
    sim_grf,
    sim_lgcp,
    sim_poisson,
    simulate_preset,
    superpose,
)

from .conftest import UNIT, uniform_pattern

CONST_100 = IntensityField(
    fn=lambda x, t: np.full(np.asarray(t).shape, 100.0), window=UNIT, lam_max=100.0
)


def _midpoints(n):
    # the cell midpoints (x, t) of an n x n x n grid on the unit cube
    c = (np.arange(n) + 0.5) / n
    x, y, t = (g.ravel() for g in np.meshgrid(c, c, c, indexing="ij"))
    return np.column_stack([x, y]), t


@pytest.fixture(scope="module")
def lgcp_counts():
    sampler = preset_sampler("lgcp-bernoulli", grf_shape=(12, 12, 12))
    return np.array(
        [sim_lgcp(sampler=sampler, seed=s).n for s in range(300)], dtype=float
    )


class TestPoisson:
    def test_constant_rate_mean_count(self):
        counts = [sim_poisson(CONST_100, seed=s).n for s in range(500)]
        assert 98.7 <= np.mean(counts) <= 101.3

    def test_counts_pass_poisson_gof(self):
        counts = np.array([sim_poisson(CONST_100, seed=s).n for s in range(500)])
        edges = np.unique(scipy.stats.poisson.ppf(np.linspace(0.1, 0.9, 9), 100.0))
        bins = np.concatenate([[-0.5], edges + 0.5, [np.inf]])
        observed, _ = np.histogram(counts, bins=bins)
        cdf = scipy.stats.poisson.cdf(np.concatenate([[-1], edges, [1e9]]), 100.0)
        expected = 500.0 * np.diff(cdf)
        _, p = scipy.stats.chisquare(observed, expected)
        assert p > 0.01

    def test_inhomogeneous_mean_matches_closed_form(self):
        field = poisson_preset_intensity()
        target = 5.0 * math.exp(5.0) * (math.exp(0.5) - 1.0)
        assert target == pytest.approx(481.4, abs=0.1)
        # the midpoint rule for the integral of the true ground intensity
        ground_fn, _ = preset_intensity("poisson-bernoulli")
        assert ground_fn(*_midpoints(48)).mean() == pytest.approx(target, rel=1e-4)
        counts = [sim_poisson(field, seed=s).n for s in range(300)]
        assert abs(np.mean(counts) - target) < 0.02 * target

    def test_all_points_inside_window(self):
        p = sim_poisson(poisson_preset_intensity(), seed=3)
        assert np.all(UNIT_WINDOW.contains(p.x, p.t))
        assert not p.is_marked

    def test_declared_bound_enforced(self):
        lying = IntensityField(
            fn=lambda x, t: np.full(np.asarray(t).shape, 100.0), window=UNIT, lam_max=50.0
        )
        with pytest.raises(ValueError, match="lam_max"):
            sim_poisson(lying, seed=0)

    def test_determinism(self):
        a = sim_poisson(CONST_100, seed=11)
        b = sim_poisson(CONST_100, seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)


class TestWhittleMatern:
    # every preset uses nu = 0.5: only these reach the Bessel form
    def test_bessel_form_at_nu_1(self):
        cov = WhittleMatern(2.0, 1.0, 1.0)
        values = cov.value(np.array([0.0, 1.0]))
        assert values[0] == 2.0
        # sigma2 (c h) K_1(c h) at c h = 1, K_1(1) = 0.6019072301972346
        assert values[1] == pytest.approx(2.0 * 0.6019072301972346, rel=1e-12)

    @pytest.mark.parametrize("dnu", [-1e-9, 1e-9])
    def test_bessel_form_meets_the_closed_form_at_nu_1_5(self, dnu):
        h = np.linspace(0.0, 3.0, 61)
        closed = WhittleMatern(2.0, 1.5, 3.0).value(h)
        np.testing.assert_allclose(WhittleMatern(2.0, 1.5 + dnu, 3.0).value(h), closed,
                                   rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("nu", [0.3, 1.0, 1.7, 3.2, 7.5, 20.0, 40.0])
    def test_bessel_form_matches_scipy_kv(self, nu):
        # the numpy integral for K_nu against scipy's, wherever the
        # reference term exceeds 1e-300
        x = np.logspace(-6, 2.5, 2001)
        got = WhittleMatern(1.0, nu, 1.0).value(x)
        ref = 2.0 ** (1.0 - nu) / math.gamma(nu) * x**nu * scipy.special.kv(nu, x)
        keep = ref > 1e-300
        assert keep.sum() > 1000
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("nu", [0.3, 1.0, 1.7, 3.2, 7.5, 20.0, 40.0])
    def test_bessel_form_stays_accurate_at_tiny_lags(self, nu):
        # a fixed 200-node rule is too coarse for the integrand's peak here
        # (it read 1.23 at nu = 1, x = 1e-300)
        x = np.concatenate([[5e-324, 1e-310], np.logspace(-300, -6, 295)])
        got = WhittleMatern(1.0, nu, 1.0).value(x)
        # the term tends to 1; the rounding of nu log x (up to 3e4) leaves 1e-11
        np.testing.assert_allclose(got[:10], 1.0, rtol=1e-11, atol=0.0)
        assert np.all(got <= 1.0 + 1e-11)
        with np.errstate(over="ignore", invalid="ignore"):  # kv overflows first
            ref = 2.0 ** (1.0 - nu) / math.gamma(nu) * x**nu * scipy.special.kv(nu, x)
        keep = np.isfinite(ref) & (ref > 1e-300)
        assert keep.any()
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0.0)


BAD_LAWS = [
    (WhittleMatern, (math.nan, 0.5, 1.0)), (WhittleMatern, (1.0, math.nan, 1.0)),
    (WhittleMatern, (1.0, 0.5, math.nan)), (WhittleMatern, (1.0, 0.5, -1.0)),
    (Exponential, (math.nan,)), (Exponential, (0.0,)), (Constant, (math.nan,)),
    (Constant, (math.inf,)), (UniformInterval, (1.0, 0.0)), (UniformInterval, (0.0, math.nan)),
    (UniformInterval, (math.nan, 1.0)), (UniformInterval, (0.0, math.inf)),
    (Bernoulli, (1.2,)), (Bernoulli, (math.nan,)), (UserTable, ((0.5, 0.6),)),
    (UserTable, ((1.0,),)),
]


@pytest.mark.parametrize("law, args", BAD_LAWS, ids=[f"{c.__name__}{a}" for c, a in BAD_LAWS])
def test_bad_law_parameters_are_refused(law, args):
    with pytest.raises(ValueError):
        law(*args)


class TestGaussianField:
    cov = SeparableCovariance(WhittleMatern(SIGMA2, 0.5, 1.0), Constant(1.0))

    def test_marginal_variance(self):
        sampler = GRFSampler.build(lambda x, y, t: 0.0 * x, self.cov, (8, 8, 4), UNIT)
        draws = np.stack([sampler.sample(seed=s).values for s in range(100)])
        var = draws.var()
        assert abs(var - SIGMA2) < 0.2 * SIGMA2

    def test_mean_function_respected(self):
        f = sim_grf(lambda x, y, t: 3.0 + y - t, self.cov, (6, 6, 6), UNIT, seed=5)
        centers = f.cell_centers()
        my, mt = np.meshgrid(centers[1], centers[2], indexing="ij")
        expected = 3.0 + my - mt
        observed = f.values.mean(axis=0)
        assert np.all(np.abs(observed - expected) < 4.0 * math.sqrt(SIGMA2))

    def test_degenerate_covariance_reproduces_mean(self):
        zero = SeparableCovariance(Constant(0.0), Constant(1.0))
        f = sim_grf(lambda x, y, t: 2.0 + 0.0 * x, zero, (6, 6, 6), UNIT, seed=1)
        assert np.all(np.abs(f.values - 2.0) < 1e-3)

    def test_sampler_reuse_matches_one_shot(self):
        sampler = GRFSampler.build(lgcp_mean(-0.5), self.cov, (6, 6, 6), UNIT)
        on_the_fly = sim_grf(lgcp_mean(-0.5), self.cov, (6, 6, 6), UNIT, seed=17)
        assert np.array_equal(sampler.sample(seed=17).values, on_the_fly.values)

    @staticmethod
    def _unused_mean(x, y, t):
        raise AssertionError("mean evaluated before the argument checks")

    def test_dense_guard(self):
        # an 8100-cell spatial factor would be a 525 MB matrix, and so
        # would an 8001-slice temporal one
        for shape in [(90, 90, 1), (1, 1, 8001)]:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="guard"):
                    GRFSampler.build(self._unused_mean, self.cov, shape, UNIT)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, shape

    def test_large_grid_builds(self):
        # 27000 cells: beyond the dense guard as one matrix, but its
        # spatial factor has only 900 cells
        f = sim_grf(lambda x, y, t: 1.0 + 0.0 * x, self.cov, (30, 30, 30), UNIT, seed=3)
        assert f.shape == (30, 30, 30)
        assert np.all(np.isfinite(f.values))
        # the constant temporal factor makes the field constant in time, up
        # to the roots of rounding-level eigenvalues (a jittered dense
        # factor would add noise of sd 1e-5 or more)
        assert np.allclose(f.values, f.values[:, :, :1], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 3, 1), (4, 0, 3), (4, -1, 3),
                                       (4, 4, 3.0), (True, 4, 3), 16, None, "443"])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="three positive integers"):
            GRFSampler.build(self._unused_mean, self.cov, shape, UNIT)

    def test_numpy_integer_shape_accepted(self):
        sampler = GRFSampler.build(lambda x, y, t: 0.0 * x, self.cov, np.array([3, 2, 2]), UNIT)
        assert sampler.shape == (3, 2, 2)
        assert all(type(v) is int for v in sampler.shape)

    def test_non_separable_covariance_rejected(self):
        with pytest.raises(ValueError, match="SeparableCovariance"):
            GRFSampler.build(self._unused_mean, WhittleMatern(SIGMA2, 0.5, 1.0), (4, 4, 3), UNIT)

    @pytest.mark.parametrize("cov, shape", [
        (_BENCH_COV, (4, 4, 3)),
        (SeparableCovariance(WhittleMatern(1.0, 1.5, 3.0), Exponential(0.5)), (5, 4, 3)),
    ])
    def test_sampler_applies_the_symmetric_square_root(self, cov, shape):
        sampler = GRFSampler.build(lambda x, y, t: 0.0 * x, cov, shape, UNIT)
        n = sampler.mean.size
        # A: the matrix of the linear map z -> field - mean
        a = np.column_stack([sampler._field(e).values.ravel() for e in np.eye(n)])
        grid = GridField(window=UNIT, shape=shape, values=np.zeros(shape))
        mx, my, mt = np.meshgrid(*grid.cell_centers(), indexing="ij")
        target = cov.matrix(np.column_stack([mx.ravel(), my.ravel()]), mt.ravel())
        scale = np.abs(target).max()
        assert np.abs(a - a.T).max() <= 1e-12 * scale
        assert np.abs(a @ a - target).max() <= 1e-12 * scale
        # positive semidefinite as well, so A is the unique root C^(1/2)
        assert np.linalg.eigvalsh(a).min() >= -1e-12 * scale

    def test_bench_covariance_has_degenerate_eigenspaces(self):
        # what makes the root's uniqueness matter in the test above: a
        # rank-1 temporal factor, and repeated spatial eigenvalues from the
        # lattice's x <-> y symmetry
        sampler = GRFSampler.build(lambda x, y, t: 0.0 * x, _BENCH_COV, (4, 4, 3), UNIT)
        live = sampler.root.max(axis=0) > 1e-6
        assert np.count_nonzero(live) == 1
        assert np.min(np.diff(np.sort(sampler.root[:, live].ravel()))) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairwise_distances_match_the_direct_formula(self, d):
        x = np.random.default_rng(d).random((57, d))
        diff = x[:, None, :] - x[None, :, :]
        assert np.array_equal(_pairwise_distances(x), np.sqrt(np.sum(diff * diff, axis=2)))

    def test_spatial_correlation_decays(self):
        sampler = GRFSampler.build(lambda x, y, t: 0.0 * x, self.cov, (8, 8, 1), UNIT)
        draws = np.stack([sampler.sample(seed=s).values[:, :, 0] for s in range(200)])
        corr_adjacent = np.corrcoef(draws[:, 0, 0], draws[:, 0, 1])[0, 1]
        corr_far = np.corrcoef(draws[:, 0, 0], draws[:, 0, 7])[0, 1]
        assert corr_adjacent > corr_far
        assert corr_adjacent == pytest.approx(math.exp(-1.0 / 8.0), abs=0.15)

    def test_grid_field_nearest_cell_lookup(self):
        values = np.arange(8, dtype=float).reshape(2, 2, 2)
        f = GridField(window=UNIT, shape=(2, 2, 2), values=values)
        assert f.at(np.array([[0.1, 0.1]]), np.array([0.1]))[0] == 0.0
        assert f.at(np.array([[0.9, 0.1]]), np.array([0.9]))[0] == values[1, 0, 1]
        assert f.at(np.array([[1.0, 1.0]]), np.array([1.0]))[0] == values[1, 1, 1]
        with pytest.raises(ValueError, match="finite"):
            GridField(window=UNIT, shape=(1, 1, 1), values=np.array([np.nan]))

    def test_factorization_failure_is_reported(self):
        broken = SeparableCovariance(Constant(-1.0), Constant(1.0))
        ground = uniform_pattern(3, seed=5, marks=None)
        with pytest.raises(FactorizationError):
            assign_marks_geostat(ground, broken, seed=0)
        with pytest.raises(FactorizationError):
            GRFSampler.build(lambda x, y, t: 0.0 * x, broken, (3, 3, 2), UNIT)


class TestCox:
    def test_mean_count_matches_closed_form(self, lgcp_counts):
        target = 750.0 * (2.0 * (1.0 - math.exp(-0.5))) ** 2
        assert target == pytest.approx(464.4, abs=0.1)
        ground_fn, _ = preset_intensity("lgcp-bernoulli")
        assert ground_fn(*_midpoints(48)).mean() == pytest.approx(target, rel=1e-4)
        assert abs(lgcp_counts.mean() - target) < 0.03 * target

    def test_counts_overdispersed_relative_to_poisson(self, lgcp_counts):
        assert lgcp_counts.var(ddof=1) > 2.0 * lgcp_counts.mean()

    def test_requires_model_or_sampler(self):
        with pytest.raises(ValueError, match="sampler"):
            sim_lgcp(seed=0)

    def test_points_inside_window(self):
        sampler = preset_sampler("lgcp-bernoulli", grf_shape=(8, 8, 8))
        p = sim_lgcp(sampler=sampler, seed=2)
        assert np.all(UNIT_WINDOW.contains(p.x, p.t))


class TestMarkingLaws:
    def test_bernoulli_fraction(self):
        marks = np.concatenate(
            [simulate_preset("poisson-bernoulli", seed=s).marks for s in range(3)]
        )
        frac = np.mean(marks == 2.0)
        sigma = math.sqrt(0.4 * 0.6 / marks.size)
        assert abs(frac - 0.4) < 3.0 * sigma

    def test_bernoulli_extremes(self):
        ground = uniform_pattern(40, seed=6, marks=None)
        assert np.all(assign_marks_iid(ground, Bernoulli(1.0), seed=0).marks == 2.0)
        assert np.all(assign_marks_iid(ground, Bernoulli(0.0), seed=0).marks == 1.0)

    def test_uniform_interval_law(self):
        ground = uniform_pattern(500, seed=7, marks=None)
        p = assign_marks_iid(ground, UniformInterval(2.0, 4.0), seed=1)
        assert p.marks.min() >= 2.0 and p.marks.max() <= 4.0
        assert abs(p.marks.mean() - 3.0) < 3.0 * (2.0 / math.sqrt(12 * 500))
        assert p.mark_space == ContinuousMarks(2.0, 4.0, reference="lebesgue")

    def test_user_table_law(self):
        ground = uniform_pattern(2000, seed=8, marks=None)
        p = assign_marks_iid(ground, UserTable((0.2, 0.3, 0.5)), seed=2)
        assert p.mark_space == LabelMarks(k=3)
        for label, prob in ((1, 0.2), (2, 0.3), (3, 0.5)):
            frac = np.mean(p.marks == label)
            assert abs(frac - prob) < 3.0 * math.sqrt(prob * (1 - prob) / 2000)

    def test_marking_refuses_marked_input(self):
        p = uniform_pattern(5, seed=9)
        with pytest.raises(ValueError, match="already"):
            assign_marks_iid(p, Bernoulli(0.5))
        with pytest.raises(ValueError, match="already"):
            assign_marks_geostat(p, SeparableCovariance(Exponential(1.0), Constant(1.0)))


class TestGeostatMarking:
    mark_cov = SeparableCovariance(Exponential(1.0), Constant(1.0))

    def test_nearby_points_get_nearly_identical_marks(self):
        x = np.array([[0.5, 0.5], [0.5 + 1e-9, 0.5]])
        t = np.array([0.5, 0.5])
        from mstpp.pattern import pattern_from_arrays

        ground = pattern_from_arrays(x, t, window=UNIT)
        p = assign_marks_geostat(ground, self.mark_cov, seed=4)
        assert abs(p.marks[0] - p.marks[1]) < 1e-3

    def test_close_pairs_more_similar_than_far_pairs(self):
        from mstpp.pattern import pattern_from_arrays

        ground = pattern_from_arrays(
            np.array([[0.5, 0.5], [0.55, 0.5], [0.05, 0.05]]),
            np.array([0.5, 0.5, 0.5]),
            window=UNIT,
        )
        wins = 0
        for s in range(300):
            m = assign_marks_geostat(ground, self.mark_cov, seed=s).marks
            wins += abs(m[0] - m[1]) < abs(m[0] - m[2])
        assert wins > 0.65 * 300

    def test_degenerate_covariance_gives_constant_marks(self):
        ground = uniform_pattern(20, seed=10, marks=None)
        zero = SeparableCovariance(Constant(0.0), Constant(1.0))
        p = assign_marks_geostat(ground, zero, seed=0, mean=1.5)
        assert np.all(np.abs(p.marks - 1.5) < 1e-3)

    def test_dense_guard(self):
        ground = uniform_pattern(8001, seed=11, marks=None)
        with pytest.raises(ValueError, match="guard"):
            assign_marks_geostat(ground, self.mark_cov)


class TestSuperpose:
    def test_counts_and_labels(self):
        a = uniform_pattern(3, seed=12, marks=None)
        b = uniform_pattern(5, seed=13, marks=None)
        p = superpose([a, b])
        assert p.n == 8
        assert p.mark_space == LabelMarks(k=2)
        assert int(np.sum(p.marks == 1.0)) == 3 and int(np.sum(p.marks == 2.0)) == 5

    def test_component_recovery(self):
        a = uniform_pattern(4, seed=14, marks=None)
        b = uniform_pattern(6, seed=15, marks=None)
        p = superpose([a, b])
        back = restrict_marks(p, LabelSet([1]))
        assert np.array_equal(np.sort(back.x[:, 0]), np.sort(a.x[:, 0]))

    def test_window_mismatch_rejected(self):
        a = uniform_pattern(3, seed=16, marks=None)
        other = Window(spatial=((0.0, 2.0), (0.0, 2.0)), temporal=(0.0, 1.0))
        b = uniform_pattern(3, seed=17, window=other, marks=None)
        with pytest.raises(ValueError, match="windows"):
            superpose([a, b])
        with pytest.raises(ValueError, match="at least one"):
            superpose([])


class TestPresets:
    def test_every_preset_runs_and_is_marked(self):
        for name in PRESET_NAMES:
            p = simulate_preset(name, seed=0, grf_shape=(8, 8, 8))
            assert p.is_marked and p.n > 0
            assert p.window == UNIT_WINDOW

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            simulate_preset("nope", seed=0)
        with pytest.raises(ValueError, match="unknown preset"):
            preset_intensity("nope")
        with pytest.raises(ValueError, match="Gaussian-field"):
            preset_sampler("poisson-bernoulli")

    def test_determinism_and_seed_sensitivity(self):
        a = simulate_preset("poisson-bernoulli", seed=42)
        b = simulate_preset("poisson-bernoulli", seed=42)
        c = simulate_preset("poisson-bernoulli", seed=43)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.marks, b.marks)
        assert a.n != c.n or not np.array_equal(a.x, c.x)

    def test_prebuilt_sampler_changes_nothing(self):
        for name in ("lgcp-bernoulli", "bivariate", "lgcp-geostat"):
            sampler = preset_sampler(name, grf_shape=(8, 8, 8))
            direct = simulate_preset(name, seed=5, grf_shape=(8, 8, 8))
            reused = simulate_preset(name, seed=5, grf_shape=(8, 8, 8), sampler=sampler)
            assert np.array_equal(direct.x, reused.x)
            assert np.array_equal(direct.t, reused.t)
            assert np.array_equal(direct.marks, reused.marks)

    def test_geostat_preset_mark_space(self):
        p = simulate_preset("lgcp-geostat", seed=1, grf_shape=(8, 8, 8))
        assert p.mark_space == ContinuousMarks(-8.0, 8.0, "lebesgue")
        assert np.all(np.abs(p.marks) < 8.0)

    def test_bivariate_mixes_two_labels(self):
        p = simulate_preset("bivariate", seed=2, grf_shape=(8, 8, 8))
        assert set(np.unique(p.marks)) == {1.0, 2.0}


class TestPresetIntensity:
    @pytest.mark.parametrize("name", ["poisson-bernoulli", "lgcp-bernoulli", "bivariate"])
    def test_labels_sum_to_the_ground(self, name):
        (x, t), (ground_fn, marked_fn) = _midpoints(8), preset_intensity(name)
        total = sum(marked_fn(x, t, np.full(t.size, label)) for label in (1.0, 2.0))
        np.testing.assert_allclose(total, ground_fn(x, t), rtol=1e-14, atol=0.0)

    def test_geostat_mark_density_integrates_to_one(self):
        m = -8.0 + (np.arange(1600) + 0.5) / 100.0
        x, t = np.tile([[0.3, 0.7]], (m.size, 1)), np.full(m.size, 0.4)
        ground_fn, marked_fn = preset_intensity("lgcp-geostat")
        assert marked_fn(x, t, m).sum() / 100.0 == pytest.approx(ground_fn(x, t)[0], rel=1e-9)

    @pytest.mark.parametrize("name", ["lgcp-bernoulli", "bivariate", "lgcp-geostat"])
    def test_cox_part_is_the_field_mean_intensity(self, name):
        # exp(mu + sigma2 / 2) at the cell centres of the preset's own field
        (x, t), (ground_fn, marked_fn) = _midpoints(3), preset_intensity(name)
        cox = marked_fn(x, t, np.full(t.size, 2.0)) if name == "bivariate" else ground_fn(x, t)
        mean = preset_sampler(name, grf_shape=(3, 3, 3)).mean
        np.testing.assert_allclose(cox, np.exp(mean + SIGMA2 / 2.0), rtol=1e-13)
