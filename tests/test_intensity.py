import numpy as np
import pytest

import mstpp.intensity as intensity
from mstpp.geometry import Window
from mstpp.intensity import (
    Quadrature,
    QuadratureError,
    SeparableIntensity,
    VoronoiEstimate,
    estimate_mass,
    voronoi_ground,
    voronoi_marked,
    voronoi_separable,
)
from mstpp.pattern import ContinuousMarks, LabelMarks, pattern_from_arrays
from mstpp.second_order import weights_from_estimate
from mstpp.simulate import IntensityField, sim_poisson

from .conftest import UNIT, uniform_pattern
from .oracles import marked_masses_oracle, voronoi_masses_oracle


def single_point(window=UNIT, marks=None, mark_space=None):
    lo, hi = window.spatial_bounds()
    x = np.array([(lo + hi) / 2.0])
    t = np.array([(window.temporal[0] + window.temporal[1]) / 2.0])
    return pattern_from_arrays(x, t, marks, window, mark_space)


@pytest.mark.parametrize("field, value", [
    ("chunk", 0), ("n_space", 0), ("n_time", -2), ("n_mark", 2.5),
    ("n_space_only", True), ("n_time_tm", "8"), ("n_mark_tm", None),
])
def test_quadrature_fields_must_be_positive_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        Quadrature(**{field: value})


def test_quadrature_accepts_numpy_integers():
    quad = Quadrature(n_space=np.int64(8), chunk=np.int32(1))
    assert quad.refined().n_space == 16


SMALL = Quadrature(n_space=12, n_time=12, n_mark=4, n_space_only=24, n_time_tm=16,
                   n_mark_tm=16)
EMPIRICAL = ContinuousMarks(-1.0, 1.0, "empirical")


@pytest.mark.parametrize("estimator, marks, mark_space, want", [
    ("ground", "interval", None, {"n_space", "n_time"}),
    ("marked", "interval", None, {"n_space", "n_time", "n_mark"}),
    ("marked", "labels", None, {"n_space", "n_time"}),
    ("marked", "interval", EMPIRICAL, {"n_space", "n_time"}),
    ("S1", "interval", None, {"n_space_only"}),
    ("S2", "labels", None, {"n_space", "n_time"}),
    ("S3", "interval", None, {"n_space_only", "n_time_tm", "n_mark_tm"}),
    ("S3", "labels", None, {"n_space_only", "n_time_tm"}),
    ("S3", "interval", EMPIRICAL, {"n_space_only", "n_time_tm"}),
])
def test_resolutions_name_the_fields_the_tessellations_read(estimator, marks, mark_space,
                                                             want):
    """Label spaces and empirical references enumerate their marks, and
    exact 1D and label cells read no quadrature."""
    p = uniform_pattern(6, seed=93, marks=marks, mark_space=mark_space)
    if estimator == "ground":
        est = voronoi_ground(p, SMALL)
    elif estimator == "marked":
        est = voronoi_marked(p, SMALL)
    else:
        est = voronoi_separable(p, estimator, quadrature=SMALL)
    assert not est.refined
    assert est.resolutions() == {f: getattr(SMALL, f) for f in want}


class TestGroundEstimator:
    def test_single_point_reciprocal_window_volume(self):
        box = Window(spatial=((0.0, 2.0), (0.0, 2.0)), temporal=(0.0, 2.0))
        est = voronoi_ground(single_point(box))
        assert est.weights_for_own_points()[0] == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_symmetric_pair_halves_window(self):
        # all coordinates distinct and the bisector clear of grid diagonals:
        # the sup-metric bisector then has measure zero and the symmetric
        # pair splits the window into equal cells
        p = pattern_from_arrays(
            np.array([[0.312, 0.407], [0.688, 0.593]]),
            np.array([0.289, 0.711]),
            window=UNIT,
        )
        est = voronoi_ground(p)
        node_vol = UNIT.volume / (56 * 56 * 56)
        assert np.all(np.abs(est.measures - 0.5) < 10 * node_vol)
        assert np.allclose(est.weights_for_own_points(), 2.0, rtol=1e-3)

    def test_shared_coordinate_pair_still_partitions_window(self):
        # same-time pair: the sup-metric bisector is fat and resolves to the
        # lower index, so the cells are unequal but still tile the window
        p = pattern_from_arrays(
            np.array([[0.25, 0.5], [0.75, 0.5]]), np.array([0.5, 0.5]), window=UNIT
        )
        est = voronoi_ground(p)
        assert est.measures[0] > est.measures[1]
        assert np.sum(est.measures) == pytest.approx(UNIT.volume, rel=1e-12)

    def test_cell_measures_match_fine_reference_grid(self):
        p = pattern_from_arrays(
            np.array([[0.21, 0.76], [0.55, 0.41], [0.83, 0.18]]),
            np.array([0.3, 0.62, 0.95]),
            window=UNIT,
        )
        est = voronoi_ground(p)
        reference = voronoi_masses_oracle(p, 560, 560)
        assert np.all(np.abs(est.measures - reference) / reference < 0.005)

    def test_evaluation_matches_own_weights(self):
        p = uniform_pattern(15, seed=31, marks=None)
        est = voronoi_ground(p)
        assert np.allclose(est.at(p.x, p.t), est.weights_for_own_points(), rtol=1e-12)

    def test_duplicate_ground_location_multiplicity(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.1]])
        t = np.array([0.5, 0.5, 0.9])
        m = np.array([1.0, 2.0, 1.0])
        p = pattern_from_arrays(x, t, m, UNIT, LabelMarks(k=2))
        est = voronoi_ground(p)
        w = est.weights_for_own_points()
        assert w[0] == w[1]
        assert est.measures.shape[0] == 2
        pair_cell = est.measures[est.group_of_point[0]]
        assert w[0] == pytest.approx(2.0 / pair_cell, rel=1e-12)
        # reference masses are per point; the coincident pair funnels to index 0
        ref = voronoi_masses_oracle(p, 300, 300)
        assert ref[1] == 0.0
        assert np.all(
            np.abs(est.measures - ref[[0, 2]]) / ref[[0, 2]] < 0.01
        )

    def test_reciprocal_sum_recovers_window_volume(self):
        p = uniform_pattern(40, seed=32, marks=None)
        est = voronoi_ground(p)
        total = np.sum(1.0 / est.weights_for_own_points())
        assert total == pytest.approx(UNIT.volume, rel=1e-9)

    def test_empty_pattern_rejected(self):
        empty = pattern_from_arrays(np.zeros((0, 2)), np.zeros(0), window=UNIT)
        with pytest.raises(ValueError, match="empty"):
            voronoi_ground(empty)

    def test_unresolvable_cell_raises_after_refinement(self):
        x = np.array([[0.5 - 1e-9, 0.5], [0.5, 0.5], [0.5 + 1e-9, 0.5]])
        t = np.array([0.5, 0.5, 0.5])
        p = pattern_from_arrays(x, t, window=UNIT)
        with pytest.raises(QuadratureError):
            voronoi_ground(p, Quadrature(n_space=8, n_time=8))

    def test_floor_clamps_vanishing_values(self):
        huge = Window(spatial=((0.0, 1e6), (0.0, 1e6)), temporal=(0.0, 2.0))
        est = voronoi_ground(single_point(huge))
        w = est.weights_for_own_points()
        assert w[0] == pytest.approx(1e-12)
        assert est.floor_hits == 1
        # evaluation clamps too, but never changes the estimate's count
        assert est.at(np.array([[1.0, 1.0]]), np.array([1.0]))[0] == pytest.approx(1e-12)
        for _ in range(3):
            assert np.array_equal(est.weights_for_own_points(), w)
            assert est.floor_hits == 1
            assert weights_from_estimate(est).floor_hits == 1
        assert weights_from_estimate(est, est).floor_hits == 1

    def test_cell_measure_rows_layout(self):
        p = uniform_pattern(7, seed=33, marks=None)
        est = voronoi_ground(p)
        rows = est.cell_measure_rows()
        assert rows.shape == (7, 2)
        assert np.array_equal(rows[:, 0], np.arange(7.0))
        assert np.allclose(rows[:, 1], 1.0 / est.weights_for_own_points(), rtol=1e-12)


class TestMarkedEstimator:
    def test_single_point_reciprocal_volume_times_mark_mass(self):
        p = single_point(UNIT, np.array([1.0]), ContinuousMarks(0.0, 2.0))
        est = voronoi_marked(p)
        assert est.weights_for_own_points()[0] == pytest.approx(0.5, rel=1e-12)

    def test_cell_measures_match_fine_reference_grid_interval_marks(self):
        p = uniform_pattern(6, seed=34)
        est = voronoi_marked(p)
        reference = marked_masses_oracle(p, 80, 80, 24)
        assert np.all(np.abs(est.measures - reference) / reference < 0.02)

    def test_cell_measures_match_fine_reference_grid_label_marks(self):
        p = uniform_pattern(8, seed=35, marks="labels")
        est = voronoi_marked(p)
        reference = marked_masses_oracle(p, 80, 80, 0)
        assert np.all(np.abs(est.measures - reference) / reference < 0.02)

    def test_identical_marks_reduce_to_ground_over_mark_mass(self):
        n = 12
        base = uniform_pattern(n, seed=36, marks=None)
        p = base.with_marks(np.ones(n), LabelMarks(k=2))
        quad = Quadrature(n_space=32, n_time=32)
        marked = voronoi_marked(p, quad)
        ground = voronoi_ground(p, quad)
        assert np.allclose(
            marked.weights_for_own_points(),
            ground.weights_for_own_points() / p.nu_total(),
            rtol=1e-12,
        )

    def test_reciprocal_sum_recovers_total_measure(self):
        p = uniform_pattern(25, seed=37)
        est = voronoi_marked(p)
        total = np.sum(1.0 / est.weights_for_own_points())
        assert total == pytest.approx(UNIT.volume * p.nu_total(), rel=1e-9)

    def test_requires_marks(self):
        ground = uniform_pattern(5, seed=38, marks=None)
        with pytest.raises(ValueError, match="marked"):
            voronoi_marked(ground)
        est = voronoi_marked(uniform_pattern(5, seed=38))
        with pytest.raises(ValueError, match="mark"):
            est.at(np.array([[0.5, 0.5]]), np.array([0.5]))

    @pytest.mark.parametrize("setup, marks, mark", [
        ("marked", "labels", 0.0),
        ("marked", "labels", 99.0),
        ("marked", "labels", 1.5),
        ("marked", "interval", -0.1),
        ("S1", "labels", 0.0),
        ("S1", "labels", 3.0),
        ("S2", "labels", 0.0),
        ("S3", "labels", 3.0),
        ("S1", "interval", 1.5),
        ("S3", "interval", -0.1),
    ])
    def test_marks_outside_the_mark_space_rejected(self, setup, marks, mark):
        # label 0 used to index label k from the end and label k+1 raised
        # IndexError; interval marks were evaluated in the edge cell
        p = uniform_pattern(10, seed=39, marks=marks)
        est = voronoi_marked(p) if setup == "marked" else voronoi_separable(p, setup)
        x, t = np.array([[0.5, 0.5], [0.2, 0.3]]), np.array([0.5, 0.4])
        inside = p.marks[:2]
        assert np.all(np.isfinite(est.at(x, t, inside)))
        with pytest.raises(ValueError, match="mark space"):
            est.at(x, t, np.array([inside[0], mark]))

    @pytest.mark.parametrize("setup", ["ground", "marked", "S1", "S3"])
    @pytest.mark.parametrize("bad", ["x", "t"])
    def test_non_finite_coordinates_rejected(self, setup, bad):
        p = uniform_pattern(10, seed=39)
        builders = {"ground": voronoi_ground, "marked": voronoi_marked}
        est = builders.get(setup, lambda p: voronoi_separable(p, setup))(p)
        x, t = np.array([[0.5, 0.5], [0.2, 0.3]]), np.array([0.5, 0.4])
        if bad == "x":
            x[1, 0] = np.nan
        else:
            t[0] = np.inf
        args = (x, t) if setup == "ground" else (x, t, p.marks[:2])
        with pytest.raises(ValueError, match="finite"):
            est.at(*args)

    def test_evaluation_matches_own_weights(self):
        p = uniform_pattern(10, seed=39)
        est = voronoi_marked(p)
        assert np.allclose(
            est.at(p.x, p.t, p.marks), est.weights_for_own_points(), rtol=1e-12
        )


class TestSeparableSetups:
    def test_s1_single_point_exact(self):
        p = single_point(UNIT, np.array([0.5]), ContinuousMarks(0.0, 2.0))
        est = voronoi_separable(p, "S1")
        assert est.weights_for_own_points()[0] == pytest.approx(0.5, rel=1e-9)

    def test_s1_factorizes_over_axes(self):
        p = uniform_pattern(20, seed=40)
        est = voronoi_separable(p, "S1")
        w = est.weights_for_own_points()
        manual = (
            est.factors["spatial"].own_values()
            * est.factors["temporal"].own_values()
            * est.factors["mark"].own_values()
            / p.n**2
        )
        assert np.allclose(w, manual, rtol=1e-12)

    def test_s2_combines_mark_factor_with_ground(self):
        p = uniform_pattern(20, seed=41)
        est = voronoi_separable(p, "S2")
        w = est.weights_for_own_points()
        manual = (
            est.factors["mark"].own_values()
            / p.n
            * est.factors["ground"].weights_for_own_points()
        )
        assert np.allclose(w, manual, rtol=1e-12)

    def test_s3_evaluation_consistent(self):
        p = uniform_pattern(20, seed=42)
        est = voronoi_separable(p, "S3")
        assert np.allclose(
            est.at(p.x, p.t, p.marks), est.weights_for_own_points(), rtol=1e-12
        )

    def test_s3_euclidean_variant_differs(self):
        p = uniform_pattern(30, seed=43)
        max_metric = voronoi_separable(p, "S3")
        euclid = voronoi_separable(p, "S3", euclidean_tm=True)
        assert not np.allclose(
            max_metric.weights_for_own_points(), euclid.weights_for_own_points()
        )

    @pytest.mark.parametrize("setup", ["S1", "S2"])
    def test_euclidean_tm_outside_s3_rejected_before_any_cell(self, monkeypatch, setup):
        def no_cells(*args, **kw):
            raise AssertionError("a cell was built before the arguments were checked")

        for cells in (intensity._SpatialCells, intensity._Cells1D, intensity._TimeMarkCells):
            monkeypatch.setattr(cells, "build", no_cells)
        monkeypatch.setattr(intensity, "voronoi_ground", no_cells)
        with pytest.raises(ValueError, match="euclidean_tm applies to setup S3 only"):
            voronoi_separable(uniform_pattern(10, seed=44), setup, euclidean_tm=True)

    def test_1d_cell_boundary_goes_to_the_lower_generator(self):
        # generators 0.25, 0.75 and 0.8 on [0, 1] give the cells [0, 0.5],
        # [0.5, 0.775] and [0.775, 1]: a query on a boundary takes the lower
        # generator's cell, as ties go to the lowest index
        v = np.array([0.25, 0.75, 0.8])
        p = pattern_from_arrays(np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.3]]), v, v, UNIT,
                                ContinuousMarks(0.0, 1.0))
        est = voronoi_separable(p, "S1")
        for axis in ("temporal", "mark"):
            values = est.factors[axis].value_at(np.array([0.5, 0.775]))
            assert values == pytest.approx([1 / 0.5, 1 / 0.275], rel=1e-12)

    def test_unknown_setup_rejected(self):
        p = uniform_pattern(5, seed=44)
        with pytest.raises(ValueError, match="unknown setup"):
            voronoi_separable(p, "s2")

    def test_label_mark_factor(self):
        x = np.array([[0.2, 0.2], [0.4, 0.4], [0.6, 0.6], [0.8, 0.8]])
        t = np.array([0.2, 0.4, 0.6, 0.8])
        m = np.array([1.0, 1.0, 1.0, 2.0])
        p = pattern_from_arrays(x, t, m, UNIT, LabelMarks(k=2))
        est = voronoi_separable(p, "S1")
        mark = est.factors["mark"]
        assert np.allclose(mark.own_values(), [3.0, 3.0, 3.0, 1.0])

    def test_empirical_mark_reference(self):
        p = uniform_pattern(10, seed=45, mark_space=ContinuousMarks(0.0, 1.0, "empirical"))
        est = voronoi_separable(p, "S1")
        assert np.allclose(est.factors["mark"].own_values(), 10.0)

    def test_separable_product_breaks_reciprocal_sum(self):
        # factor cells split 0.2/0.8 on two axes: sum of reciprocals is
        # 2[2ab - a - b + 1] = 1.36, not the total measure 1
        x = np.array([[0.1, 0.5], [0.3, 0.5]])
        t = np.array([0.1, 0.3])
        m = np.array([0.25, 0.75])
        p = pattern_from_arrays(x, t, m, UNIT, ContinuousMarks(0.0, 1.0))
        est = voronoi_separable(p, "S1")
        total = np.sum(1.0 / est.weights_for_own_points())
        # quadrature on the spatial factor shifts the exact 1.36 by ~2e-3
        assert total == pytest.approx(1.36, abs=0.01)


class TestMassAudit:
    def test_ground_mass_near_point_count(self):
        p = uniform_pattern(20, seed=46, marks=None)
        assert estimate_mass(voronoi_ground(p)) == pytest.approx(20.0, rel=0.01)

    def test_marked_mass_near_point_count(self):
        p = uniform_pattern(20, seed=47)
        assert estimate_mass(voronoi_marked(p)) == pytest.approx(20.0, rel=0.02)

    def test_labelled_mass_near_point_count(self):
        p = uniform_pattern(20, seed=48, marks="labels")
        assert estimate_mass(voronoi_marked(p)) == pytest.approx(20.0, rel=0.02)

    def test_separable_masses_near_point_count(self):
        p = uniform_pattern(30, seed=49)
        for setup, tol in (("S1", 0.01), ("S2", 0.02), ("S3", 0.01)):
            est = voronoi_separable(p, setup)
            assert estimate_mass(est) == pytest.approx(30.0, rel=tol), setup

    def test_audit_resolution_override(self):
        p = uniform_pattern(15, seed=50, marks=None)
        est = voronoi_ground(p)
        coarse = estimate_mass(est, Quadrature(n_space=24, n_time=24))
        assert coarse == pytest.approx(15.0, rel=0.05)
        # the separable setups audit their quadrature-built factors (spatial,
        # time-mark) at the override too; the exact factors need no grid
        marked = uniform_pattern(15, seed=50)
        override = Quadrature(n_space=24, n_time=24, n_space_only=16, n_time_tm=16, n_mark_tm=16)
        for setup in ("S1", "S2", "S3"):
            est = voronoi_separable(marked, setup)
            coarse = estimate_mass(est, override)
            assert coarse == pytest.approx(15.0, rel=0.05), setup
            assert coarse != estimate_mass(est), setup

    def test_unsupported_object_rejected(self):
        with pytest.raises(TypeError):
            estimate_mass(object())


class TestUnbiasedness:
    def test_pointwise_mean_tracks_constant_intensity(self):
        field = IntensityField(
            fn=lambda x, t: np.full(np.asarray(t).shape, 100.0),
            window=UNIT,
            lam_max=100.0,
        )
        grid = np.linspace(0.2, 0.8, 5)
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        locs = np.column_stack([gx.ravel(), gy.ravel()])
        times = np.full(25, 0.5)
        quad = Quadrature(n_space=24, n_time=24)
        values = np.empty((200, 25))
        for rep in range(200):
            p = sim_poisson(field, seed=rep)
            est = voronoi_ground(p, quad)
            values[rep] = est.at(locs, times)
        mean = values.mean(axis=0)
        se = values.std(axis=0, ddof=1) / np.sqrt(200)
        hits = int(np.sum(np.abs(mean - 100.0) <= 3.0 * se))
        assert hits >= 22
