import csv
import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mstpp.geometry import (ErosionError, Window, cone_volume, direction_in_cone,
                            unit_ball_volume)
from mstpp.inference import decomposition_residual, delta_surface, diag_independent_marks
from mstpp.intensity import Quadrature, voronoi_ground, voronoi_marked
from mstpp.pattern import (
    ContinuousMarks,
    LabelMarks,
    LabelSet,
    MarkInterval,
    pattern_from_arrays,
    permute_marks,
    project_ground,
)
from mstpp.second_order import (
    BoxUnionSet,
    ConeSet,
    CylinderSet,
    KSurface,
    Weights,
    default_lag_grids,
    k_cross_multitype,
    k_directional,
    k_ground,
    k_inhom,
    k_measure_hat,
    k_smoothed,
    k_stationary,
    pair_geometry,
    poisson_reference,
    weights_from_estimate,
    weights_from_function,
)
import mstpp.second_order as second_order
from mstpp.simulate import (Bernoulli, IntensityField, assign_marks_iid, poisson_preset_intensity,
                            sim_poisson, superpose)

from .conftest import UNIT, uniform_pattern
from .oracles import (
    denominator_oracle,
    k_cells_oracle,
    k_values_oracle,
    measure_oracle,
    pair_geometry_oracle,
    wedge_contains,
)

R_GRID = np.linspace(0.05, 0.25, 5)
T_GRID = np.linspace(0.05, 0.25, 5)
C_HALF = MarkInterval(0.0, 0.5)
D_HALF = MarkInterval(0.5, 1.0, closed_lo=False)
ZERO_MASS = MarkInterval(0.5, 0.5)


def _three_axes(p):
    """``p`` with its time as a third spatial axis, in the unit cube."""
    window = Window(spatial=((0.0, 1.0),) * 3, temporal=UNIT.temporal)
    return pattern_from_arrays(np.column_stack([p.x, p.t]), p.t, p.marks, window, p.mark_space)


def demo_weights(p):
    return weights_from_function(
        p,
        marked_fn=lambda x, t, m: 15.0 + 10.0 * x[:, 0] + 5.0 * t,
        ground_fn=lambda x, t: 20.0 + 10.0 * x[:, 1],
    )


class TestLagSets:
    def test_cylinder_volume_and_membership(self):
        E = CylinderSet(0.1, 0.2)
        assert E.volume(2) == pytest.approx(2.0 * 0.2 * math.pi * 0.01)
        assert E.contains_lag(np.array([[0.1, 0.0]]), np.array([0.2]))[0]
        assert not E.contains_lag(np.array([[0.11, 0.0]]), np.array([0.0]))[0]
        assert CylinderSet(0.0, 0.0).contains_lag(np.zeros((1, 2)), np.zeros(1))[0]
        rng = np.random.default_rng(42)
        dx = rng.uniform(-0.3, 0.3, size=(10_000, 2))
        dt = rng.uniform(-0.3, 0.3, size=10_000)
        want = [math.hypot(*v) <= 0.1 and abs(u) <= 0.2 for v, u in zip(dx, dt)]
        assert list(E.contains_lag(dx, dt)) == want
        with pytest.raises(ValueError):
            CylinderSet(-0.1, 0.1)
        # NaN compares false both ways: the constructor names it, where a
        # "< 0" test let it through to fail later as an erosion error
        for r, t in ((math.nan, 0.1), (0.1, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError, match=r"cylinder lags must be nonnegative.*nan"):
                CylinderSet(r, t)

    def test_cone_volume_shapes(self):
        quarter = ConeSet(-math.pi / 4, math.pi / 4, 0.2, 0.3)
        assert quarter.volume() == pytest.approx(math.pi / 2 * 0.04 * 0.6)
        full = ConeSet(-math.pi / 2, math.pi / 2, 0.2, 0.3)
        assert full.volume() == pytest.approx(CylinderSet(0.2, 0.3).volume(2))

    def test_cone_membership_matches_angle_arithmetic(self):
        E = ConeSet(-0.5, 0.9, 0.3, 0.3)
        rng = np.random.default_rng(1)
        dx = rng.uniform(-0.25, 0.25, size=(300, 2))
        dt = rng.uniform(-0.25, 0.25, size=300)
        got = E.contains_lag(dx, dt)
        want = np.array(
            [wedge_contains(v, -0.5, 0.9) for v in dx]
        ) & (np.sqrt(np.sum(dx**2, axis=1)) <= 0.3) & (np.abs(dt) <= 0.3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("phi, psi, r, t", [
        (-0.5, 0.9, 0.3, 0.2), (0.0, math.pi / 2, 0.25, 0.1),
        (-math.pi / 2, math.pi / 2, 0.2, 0.3), (0.3, 0.3 + math.pi, 0.1, 0.4),
    ])
    def test_cone_membership_is_the_cylinder_and_direction_tests(self, phi, psi, r, t):
        # the former expression, written out, on random lags and on lags
        # exactly at r, t, phi and psi (and at the opposite directions)
        rng = np.random.default_rng(3)
        dx = rng.uniform(-1.5 * r, 1.5 * r, size=(2000, 2))
        dt = rng.uniform(-1.5 * t, 1.5 * t, size=2000)
        angles = np.array([phi, psi, phi + math.pi, psi + math.pi])
        radii = np.array([0.0, 0.5 * r, r, 1.01 * r])
        a, rad, u = (g.ravel() for g in np.meshgrid(angles, radii, [-t, 0.0, t, 1.01 * t]))
        dx = np.vstack([dx, np.column_stack([rad * np.cos(a), rad * np.sin(a)]), [[r, 0.0]]])
        dt = np.concatenate([dt, u, [t]])
        want = ((np.sqrt(np.sum(dx**2, axis=1)) <= r) & (np.abs(dt) <= t)
                & direction_in_cone(dx[:, 0], dx[:, 1], phi, psi))
        got = ConeSet(phi, psi, r, t).contains_lag(dx, dt)
        assert np.array_equal(got, want)
        assert got[2000:].any() and not got[2000:].all()

    def test_cone_validation(self):
        with pytest.raises(ValueError):
            ConeSet(-2.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            ConeSet(0.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            ConeSet(0.0, 3.5, 0.1, 0.1)
        with pytest.raises(ValueError, match="two spatial"):
            ConeSet(0.0, 1.0, 0.1, 0.1).contains_lag(np.zeros((1, 3)), np.zeros(1))
        for r, t in ((-0.1, 0.1), (math.nan, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError, match="cone lags must be nonnegative"):
                ConeSet(0.0, 1.0, r, t)
        for phi, psi in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="phi|psi"):
                ConeSet(phi, psi, 0.1, 0.1)

    def test_box_union(self):
        E = BoxUnionSet(
            boxes=(
                (((-0.1, 0.1), (-0.1, 0.1)), (-0.2, 0.2)),
                (((0.3, 0.4), (0.0, 0.1)), (-0.05, 0.05)),
            )
        )
        r_c, t_c = E.bounding_lags()
        assert r_c == pytest.approx(math.sqrt(0.4**2 + 0.1**2))
        assert t_c == pytest.approx(0.2)
        assert E.contains_lag(np.array([[0.35, 0.05]]), np.array([0.0]))[0]
        assert not E.contains_lag(np.array([[0.2, 0.0]]), np.array([0.0]))[0]

    def test_box_union_validation(self):
        box = (((-0.1, 0.1), (-0.1, 0.1)), (-0.2, 0.2))
        bad = [(), (box, (((0.0, 0.1),), (0.0, 0.1)))]
        for b in ((0.2, 0.1), (math.nan, 0.1), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)):
            bad += [((((-0.1, 0.1), b), (-0.2, 0.2)),), ((((-0.1, 0.1), (-0.1, 0.1)), b),)]
        for boxes in bad:
            with pytest.raises(ValueError, match="a box union needs one box or more"):
                BoxUnionSet(boxes=boxes)
        E = BoxUnionSet(boxes=(box,))
        for axes in (1, 3):
            with pytest.raises(ValueError, match=f"2 spatial axes, not {axes}"):
                E.contains_lag(np.zeros((1, axes)), np.zeros(1))


def _lattice(steps, window):
    """Points on a regular lattice of cell centres, so many lags fall
    exactly on (or within rounding of) the grid values."""
    axes = [lo + (np.arange(k) + 0.5) * (hi - lo) / k
            for k, (lo, hi) in zip(steps, window.spatial + (window.temporal,))]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return pattern_from_arrays(mesh[:, :-1], mesh[:, -1], None, window, None)


def _with_copies(x, t, copies, window):
    """Label-1 points plus label-2 points at exactly the same place and
    time as the rows ``copies``."""
    marks = np.concatenate([np.ones(len(t)), np.full(len(copies), 2.0)])
    return pattern_from_arrays(np.concatenate([x, x[copies]]),
                               np.concatenate([t, t[copies]]), marks, window,
                               LabelMarks(2))


PAIR_CASES = [
    "uniform", "clustered", "lattice", "lattice-far", "rescale-edge", "duplicates",
    "long-time", "zero-r", "zero-t", "zero-both", "1d", "3d", "many-cells", "on-grid",
    "empty", "single", "two",
]


def pair_case(case):
    """(pattern, r_grid, t_grid) for the comparisons of the cell sweep's
    pair search with the plain scan of the oracle."""
    if case == "uniform":
        return uniform_pattern(2000, seed=63), R_GRID, T_GRID
    if case == "clustered":
        rng = np.random.default_rng(64)
        centres = rng.random((20, 3))
        pts = np.clip(np.repeat(centres, 100, axis=0) + rng.normal(0, 0.03, (2000, 3)),
                      0.0, 1.0)
        return pattern_from_arrays(pts[:, :2], pts[:, 2], None, UNIT, None), R_GRID, T_GRID
    if case == "lattice":
        # lattice lags of 0.3 in time and 0.1, 0.25 (3-4-5) in space
        p = _lattice((20, 20, 10), UNIT)
        return p, np.array([0.1, 0.25]), np.array([0.1, 0.2, 0.3])
    if case == "lattice-far":
        # far from the origin: lattice lags of 0.1 and 0.3 are inexact there
        far = Window(spatial=((1e4, 1e4 + 1.0), (-1e4, -1e4 + 1.0)),
                     temporal=(1e6, 1e6 + 1.0))
        return _lattice((10, 10, 10), far), np.array([0.1, 0.3]), np.array([0.1, 0.3])
    if case == "rescale-edge":
        # pairs whose time lag sits one spacing of the times below t_max, far
        # from the time origin: r_max / t_max is inexact, so their rescaled
        # lags round to slightly more than r_max
        window = Window(spatial=((0.0, 1.0), (0.0, 1.0)), temporal=(100.0, 101.5))
        rng = np.random.default_rng(69)
        t0 = 100.3 + 0.6 * rng.random(200)
        t1 = t0 + 0.3
        t1 = np.where(t1 - t0 > 0.3, np.nextafter(t1, 0.0), t1)
        x0 = 0.3 + 0.4 * rng.random((200, 2))
        x = np.concatenate([x0, x0 + 0.01])
        p = pattern_from_arrays(x, np.concatenate([t0, t1]), None, window, None)
        return p, np.array([0.1, 0.2]), np.array([0.1, 0.3])
    if case == "duplicates":
        base = uniform_pattern(300, seed=65, marks=None)
        x = base.x.copy()
        t = base.t.copy()
        t[:20] = t[20:40]           # same time, other places
        x[40:60] = x[60:80]         # same place, other times
        copies = np.arange(0, 300, 3)
        return _with_copies(x, t, copies, UNIT), R_GRID, T_GRID
    if case == "long-time":
        window = Window(spatial=((0.0, 1.0), (0.0, 1.0)), temporal=(0.0, 10.0))
        return (uniform_pattern(1500, seed=66, window=window),
                np.linspace(0.02, 0.1, 5), np.linspace(0.5, 2.0, 4))
    if case in ("zero-r", "zero-t", "zero-both"):
        p = _lattice((6, 6, 6), UNIT)
        r_grid = np.array([0.0]) if case != "zero-t" else np.array([0.2, 0.4])
        t_grid = np.array([0.0]) if case != "zero-r" else np.array([0.2, 0.4])
        return _with_copies(p.x, p.t, np.arange(30), UNIT), r_grid, t_grid
    if case == "many-cells":
        # lags far below the window's extent: the search's spatial cells are
        # half a lag wide, so pairs cross cell walls in every direction
        lags = np.linspace(0.004, 0.02, 5)
        return uniform_pattern(3000, seed=79), lags, lags
    if case == "on-grid":
        # points an eighth apart on every axis, the window's edges included:
        # every margin and every axis-aligned lag is a multiple of 1/8,
        # exactly, so a point with a margin on a grid value pairs with the
        # points at exactly its own reach, and the cells, a hair wider than
        # 1/8, put every point within 4e-9 of a cell wall
        axis = np.arange(9) / 8
        mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        p = pattern_from_arrays(mesh[:, :2], mesh[:, 2], None, UNIT, None)
        return p, np.array([0.125, 0.25]), np.array([0.125, 0.25])
    if case == "1d":
        window = Window(spatial=((0.0, 4.0),), temporal=(0.0, 1.0))
        return uniform_pattern(800, seed=67, window=window), R_GRID, T_GRID
    if case == "3d":
        window = Window(spatial=((0.0, 1.0),) * 3, temporal=(0.0, 1.0))
        return uniform_pattern(800, seed=68, window=window), R_GRID, T_GRID
    if case == "5d":
        # more than three axes: fewer cells per axis keep the keys exact
        window = Window(spatial=((0.0, 1.0),) * 5, temporal=(0.0, 1.0))
        lags = np.array([0.1, 0.2])
        return uniform_pattern(600, seed=80, window=window), lags, lags
    if case == "5d-lattice":
        # cells one radius wide: neighbours one lattice step, the largest
        # spatial lag, apart on an axis sit on or across a cell wall
        window = Window(spatial=((0.0, 1.0),) * 5, temporal=(0.0, 1.0))
        return _lattice((4, 4, 4, 4, 4, 3), window), np.array([0.125, 0.25]), np.array([1 / 3])
    n = {"empty": 0, "single": 1, "two": 2}[case]
    x = np.full((n, 2), 0.5)
    t = 0.5 + 0.01 * np.arange(n)
    return pattern_from_arrays(x, t, None, UNIT, None), R_GRID, T_GRID


def assert_matches_oracle(geom, full):
    """A geometry stores exactly the oracle's pairs with nonempty
    rectangles, in its (I, J) order, with their point indices as uint16 up
    to 65,536 points (int32 above), their first lag cells in the smallest
    unsigned type that holds the cell counts, and the same per-point
    arrays."""
    valid = full.pair_corners[0]
    assert geom.I.dtype == geom.J.dtype == (np.uint16 if full.pt_b_r.size <= 65536 else np.int32)
    assert geom.a_r.dtype == geom.a_t.dtype == np.min_scalar_type(max(full.shape))
    assert np.array_equal(geom.I, full.I[valid])
    assert np.array_equal(geom.J, full.J[valid])
    assert np.array_equal(geom.a_r, full.a_r[valid])
    assert np.array_equal(geom.a_t, full.a_t[valid])
    for name in ("pt_b_r", "pt_b_t", "ell_r", "ell_t"):
        assert np.array_equal(getattr(geom, name), getattr(full, name)), name


class TestPairGeometry:
    def test_matches_scan_exactly(self):
        p = uniform_pattern(40, seed=60)
        geom = pair_geometry(p, R_GRID, T_GRID)
        assert geom.I.size
        assert_matches_oracle(geom, pair_geometry_oracle(p, R_GRID, T_GRID))

    @pytest.mark.parametrize("case", PAIR_CASES + ["5d", "5d-lattice"])
    def test_indexed_search_matches_scan(self, case):
        p, r_grid, t_grid = pair_case(case)
        assert_matches_oracle(pair_geometry(p, r_grid, t_grid),
                              pair_geometry_oracle(p, r_grid, t_grid))

    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_fixed_erosion_sweeps_no_pair_of_two_outer_points(self, monkeypatch, case):
        # a full build is the selection that takes every pair of an
        # eroded-in first point, so the sweep never pairs two points that
        # are both not eroded-in: neither orientation could be stored
        p, r_grid, t_grid = pair_case(case)
        pairs, search = [], second_order._candidate_pairs

        def recording(*args):
            for a, b in search(*args):
                pairs.append((a, b))
                yield a, b

        monkeypatch.setattr(second_order, "_candidate_pairs", recording)
        geom = pair_geometry(p, r_grid, t_grid, erosion="fixed")
        assert_matches_oracle(geom, pair_geometry_oracle(p, r_grid, t_grid, erosion="fixed"))
        inner = geom.pt_b_r >= 0
        for a, b in pairs:
            assert np.all(inner[a] | inner[b]), case

    def test_five_axes_sweep_cells_one_radius_wide(self, monkeypatch):
        # above three axes the cells are one radius wide: a stencil of 3^5 =
        # 243 cells, the own one and every neighbour, forward and backward.
        # With every point's reach at the radius, each step's cell lies
        # within the reach of some of these 600 points, so each step takes a
        # search for the start and one for the end of those points' runs,
        # and the one batch of candidates a lookup of its runs: 2 * 243 + 1
        # = 487 searches, where half-radius cells would take 2 * 5^5 + 1 =
        # 6,251
        p, r_grid, t_grid = pair_case("5d")
        calls = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: calls.append(1) or search(*args, **kw))
        reach = np.full(p.n, float(r_grid[-1]))
        ones = np.ones(p.n, np.uint8)
        batches = list(second_order._candidate_pairs(p.x, p.t, reach, reach, ones, ones))
        assert len(batches) == 1
        assert len(calls) == 2 * 243 + 1

    @pytest.mark.parametrize("lag, chunk", [(0.005, None), (0.05, 512)],
                             ids=["small-lags", "small-chunks"])
    def test_search_batches_are_full_and_few(self, monkeypatch, lag, chunk):
        # the candidates come in batches of _CHUNK, only the last one short:
        # their number grows with the candidates, never with the points or
        # the cells (cells one lag wide, each searched on its own, would
        # cost a step per point at the small lags)
        if chunk is not None:
            monkeypatch.setattr(second_order, "_CHUNK", chunk)
        sizes = []
        search = second_order._candidate_pairs

        def counting(*args):
            for a, b in search(*args):
                assert a.size == b.size
                sizes.append(a.size)
                yield a, b

        monkeypatch.setattr(second_order, "_candidate_pairs", counting)
        p = uniform_pattern(3000, seed=79)
        geom = pair_geometry(p, [lag], [lag])
        assert len(sizes) == -(-sum(sizes) // second_order._CHUNK)
        assert sizes[:-1] == [second_order._CHUNK] * (len(sizes) - 1)
        # one batch at the small lags; several at the small chunks, which cut runs
        assert (len(sizes) == 1) == (chunk is None)
        assert_matches_oracle(geom, pair_geometry_oracle(p, [lag], [lag]))

    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_stored_arrays_ignore_candidate_order(self, monkeypatch, case):
        # the keys I * n + J are distinct, so their sort gives the same
        # arrays whatever the order of the batches and of the candidates in
        # each
        p, r_grid, t_grid = pair_case(case)
        want = pair_geometry(p, r_grid, t_grid)
        search = second_order._candidate_pairs
        rng = np.random.default_rng(73)

        def reversed_and_shuffled(*args):
            for a, b in reversed(list(search(*args))):
                mix = rng.permutation(a.size)
                yield a[mix], b[mix]

        monkeypatch.setattr(second_order, "_candidate_pairs", reversed_and_shuffled)
        got = pair_geometry(p, r_grid, t_grid)
        for name in ("I", "J", "a_r", "a_t"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_grid_validation(self):
        p = uniform_pattern(5, seed=61)
        with pytest.raises(ValueError, match="r_grid"):
            pair_geometry(p, np.array([0.2, 0.1]), T_GRID)
        with pytest.raises(ValueError, match="t_grid"):
            pair_geometry(p, R_GRID, np.array([]))
        with pytest.raises(ValueError, match="erosion"):
            pair_geometry(p, R_GRID, T_GRID, erosion="none")
        # the difference array's bins are int32-indexed: a larger grid
        # would wrap them
        fine = np.linspace(1e-6, 0.2, 50_000)
        with pytest.raises(ValueError, match="too many cells"):
            pair_geometry(p, fine, fine)

    def test_default_grids(self):
        p = uniform_pattern(200, seed=63)
        for erosion in ("per-cell", "fixed"):
            got = pair_geometry(p, erosion=erosion)
            want = pair_geometry(p, *default_lag_grids(p.window), erosion=erosion)
            for name, value in vars(want).items():
                if isinstance(value, np.ndarray):
                    got_value = getattr(got, name)
                    assert got_value.dtype == value.dtype, name
                    assert np.array_equal(got_value, value), name
            assert got.I.size > 0

    def test_overlarge_lags_rejected(self):
        p = uniform_pattern(5, seed=62)
        with pytest.raises(ErosionError):
            pair_geometry(p, np.array([0.6]), np.array([0.1]))

    def test_closed_boundaries_exact(self):
        p = pattern_from_arrays(
            np.array([[0.25, 0.5], [0.375, 0.5]]), np.array([0.5, 0.5]), window=UNIT
        )
        w = Weights(lam=np.ones(2))
        surf = k_ground(
            p, np.array([0.125, 0.25]), np.array([0.25, 0.375]), w, scenario="S1"
        )
        # pair distance exactly 0.125, margins exactly on grid values
        assert surf.values[0, 0] == 2.0 / (0.75**2 * 0.5)
        assert surf.values[1, 1] == 2.0 / (0.5**2 * 0.25)


def _labelled(case):
    """A pair case with labels {1, 2} (drawn where it has other marks or
    none)."""
    p, r_grid, t_grid = pair_case(case)
    if p.marks is None or not p.mark_space.is_labelled:
        labels = np.random.default_rng(74).integers(1, 3, size=p.n).astype(float)
        p = pattern_from_arrays(p.x, p.t, labels, p.window, LabelMarks(2))
    return p, r_grid, t_grid


def _selections(p):
    """name -> the `_select` of no selection, of K^CD, of K^DC and of both
    (the symmetrized estimate), for C = label 1 and D = label 2."""
    mC, mD = (LabelSet([k]).mask(p.marks).astype(float) for k in (1, 2))
    return {"all": None, "CD": second_order._selection([(mC, mD)]),
            "DC": second_order._selection([(mD, mC)]),
            "CD+DC": second_order._selection([(mC, mD), (mD, mC)])}


def _swept(monkeypatch):
    """Wrap `second_order._candidate_pairs`: the list it returns collects,
    for each sweep, its arguments and its candidates (a, b) joined."""
    sweeps, search = [], second_order._candidate_pairs

    def recording(*args):
        batches = list(search(*args))
        a, b = ([np.empty(0, np.intp)] + [pair[end] for pair in batches] for end in (0, 1))
        sweeps.append((args, np.concatenate(a), np.concatenate(b)))
        yield from batches

    monkeypatch.setattr(second_order, "_candidate_pairs", recording)
    return sweeps


class TestOrderedSweep:
    """The sweep finds each ordered pair from its first point, within that
    point's own reach: a superset of the stored pairs, with no candidate
    twice."""

    @pytest.mark.parametrize("select", ["all", "CD", "DC", "CD+DC"])
    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    def test_pairs_at_exactly_their_reach_match_the_scan(self, erosion, select):
        p, r_grid, t_grid = _labelled("on-grid")
        sel = _selections(p)[select]
        geom = pair_geometry(p, r_grid, t_grid, erosion, _select=sel)
        assert_matches_oracle(geom, pair_geometry_oracle(p, r_grid, t_grid, erosion, select=sel))
        # the case holds stored pairs at exactly their first point's reach,
        # in space and in time, below the maximal lags
        I, J = geom.I.astype(np.intp), geom.J.astype(np.intp)
        ds = np.sqrt(np.sum((p.x[J] - p.x[I]) ** 2, axis=1))
        du = np.abs(p.t[J] - p.t[I])
        at_r = ds == r_grid[geom.pt_b_r[I]]
        at_t = du == t_grid[geom.pt_b_t[I]]
        assert np.any(at_r & (ds < r_grid[-1])) == (erosion == "per-cell")
        assert np.any(at_t & (du < t_grid[-1])) == (erosion == "per-cell")
        assert np.any(at_r & at_t)

    @pytest.mark.parametrize("select", ["all", "CD"])
    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    @pytest.mark.parametrize("case", PAIR_CASES + ["5d", "5d-lattice"])
    def test_candidates_lie_within_the_first_point_reach(self, monkeypatch, case, erosion,
                                                         select):
        # every candidate a -> b has an eroded-in first point that the
        # selection pairs with b, and b lies in a cell whose box is within
        # a's padded spatial reach and within a's padded temporal reach
        p, r_grid, t_grid = _labelled(case)
        sel = _selections(p)[select]
        sweeps = _swept(monkeypatch)
        geom = pair_geometry(p, r_grid, t_grid, erosion, _select=sel)
        inner = (geom.pt_b_r >= 0) & (geom.pt_b_t >= 0)
        [((space, t, reach_s, reach_t, f, g), a, b)] = sweeps
        first, second = (np.ones(p.n, np.uint8),) * 2 if sel is None else sel
        assert np.array_equal(f != 0, inner & (first != 0))
        assert np.array_equal(g, second)
        assert np.unique(a * p.n + b).size == a.size
        assert np.all(inner[a]) and np.all((first[a] & second[b]) != 0)
        src = np.flatnonzero(f)
        if not src.size:
            assert not a.size
            return
        # the pads are a few ulps of the lags and the coordinates
        for reach, grid, b_cell, values in ((reach_s, r_grid, geom.pt_b_r, p.x),
                                            (reach_t, t_grid, geom.pt_b_t, p.t)):
            pad = reach[src] - grid[b_cell[src]]
            assert np.all(pad > 0)
            assert np.all(pad <= 8 * np.finfo(float).eps * (grid[-1] + np.max(np.abs(values))))
        assert np.all((t[a] - reach_t[a] <= t[b]) & (t[b] <= t[a] + reach_t[a]))
        # a cell is at most half the largest reach wide up to three axes,
        # one reach above, or the extent over 2^(36 // max(d, 3))
        lo, hi = np.min(space, axis=0), np.max(space, axis=0)
        width = np.maximum(np.max(reach_s[src]) / (2.0 if p.dim <= 3 else 1.0),
                           (hi - lo) / 2.0 ** (36 // max(p.dim, 3))) * (1 + 1e-8)
        gap = np.maximum(np.abs(space[b] - space[a]) - width, 0.0)
        assert np.all(np.sqrt(np.sum(gap * gap, axis=1)) <= reach_s[a] + 1e-8 * np.max(width))

    def test_k_large_cross_sweep(self, monkeypatch):
        # the seed-1 `k-large` benchmark catalogue (perfbench/worker.py;
        # its pinned simulation seed is 1000) on the 20 x 20 grid of its
        # `mstpp k` call: K^CD with C = label 1 (5,784 points) and D =
        # label 2 (3,828) sweeps 1,575,026 candidates for 827,623 stored
        # pairs, fewer than the 1,893,902 C -> D pairs within the maximal lags
        base = poisson_preset_intensity()
        field = IntensityField(fn=lambda x, t: 20.0 * base.fn(x, t), window=base.window,
                               lam_max=20.0 * base.lam_max)
        rng = np.random.default_rng(1000)
        p = assign_marks_iid(sim_poisson(field, seed=rng), Bernoulli(0.4), seed=rng)
        assert p.n == 9612
        grid = 0.25 * np.arange(1, 21) / 20
        sizes, search = [], second_order._candidate_pairs
        monkeypatch.setattr(second_order, "_candidate_pairs", lambda *args: (
            sizes.append(a.size) or (a, b) for a, b in search(*args)))
        built = _recorded_builds(monkeypatch)
        k_stationary(p, C_ONE, D_TWO, grid, grid)
        assert sum(sizes) == 1_575_026
        assert [geom.I.size for _, geom in built] == [827_623]


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).tobytes()


C_ONE, D_TWO = LabelSet([1]), LabelSet([2])
CONE = (-1.0, 1.2)


@functools.lru_cache(maxsize=1)  # the block lengths of one case and erosion run in a row
def full_case(case, erosion, order="given"):
    """A pair case with labels {1, 2} (drawn where it has other marks or
    none), per-point weights, its full-array reference geometry and the
    reference formulas evaluated on it. order='shuffled' permutes the
    points first, so the search's blocks of first points no longer follow
    the lattice, cluster or copy structure of the case."""
    p, r_grid, t_grid = pair_case(case)
    if order == "shuffled":
        perm = np.random.default_rng(72).permutation(p.n)
        marks = None if p.marks is None else p.marks[perm]
        p = pattern_from_arrays(p.x[perm], p.t[perm], marks, p.window, p.mark_space)
    rng = np.random.default_rng(70)
    if p.marks is None or not p.mark_space.is_labelled:
        labels = rng.integers(1, 3, size=p.n).astype(float)
        p = pattern_from_arrays(p.x, p.t, labels, p.window, LabelMarks(2))
    w = Weights(lam=rng.uniform(5.0, 20.0, p.n), lam_ground=rng.uniform(5.0, 20.0, p.n))
    full = pair_geometry_oracle(p, r_grid, t_grid, erosion)
    return p, r_grid, t_grid, w, full, reference_surfaces(p, w, full)


def reference_surfaces(p, w, full):
    """name -> the estimator's formula evaluated on the full arrays."""
    out = {}
    I, J = full.I, full.J
    mC, mD = C_ONE.mask(p.marks).astype(float), D_TWO.mask(p.marks).astype(float)
    nu_C, nu_D = p.nu(C_ONE), p.nu(D_TWO)
    inv, inv_g = 1.0 / w.lam, 1.0 / w.lam_ground
    pw = inv[I] * inv[J]
    for sc in ("S1", "S2", "S3", "S4"):
        denom = denominator_oracle(full, sc, mC, mD, inv, inv_g, nu_C, nu_D)
        cd = k_values_oracle(full, pw, mC, mD, denom)
        out[f"k_inhom/{sc}"] = cd
        out[f"delta_surface/{sc}"] = cd - k_values_oracle(full, pw, mD, mC, denom)
    ones = np.ones(p.n)
    for sc in ("S1", "S3"):
        denom = denominator_oracle(full, sc, ones, ones, inv_g, inv_g, 1.0, 1.0)
        out[f"k_ground/{sc}"] = k_values_oracle(full, inv_g[I] * inv_g[J], ones, ones, denom)
    if p.dim == 2:
        in_cone = direction_in_cone(full.dx[:, 0], full.dx[:, 1], *CONE).astype(float)
        denom = denominator_oracle(full, "S2", mC, mD, inv, None, nu_C, nu_D)
        out["k_directional"] = k_values_oracle(full, pw * in_cone, mC, mD, denom)
    for i, j in ((1, 2), (2, 2)):
        mi = LabelSet([i]).mask(p.marks).astype(float)
        mj = LabelSet([j]).mask(p.marks).astype(float)
        denom = denominator_oracle(full, "S1", mi, mj, inv, None, 1.0, 1.0)
        out[f"k_cross_multitype/{i}{j}"] = k_values_oracle(full, pw, mi, mj, denom)
    if p.n:
        inv_s = np.full(p.n, p.window.volume / p.n)
        n_C, n_D = float(np.sum(mC)), float(np.sum(mD))
        denom = np.outer(full.ell_r, full.ell_t) * (n_C * n_D / p.n**2)
        out["k_stationary"] = k_values_oracle(full, inv_s[I] * inv_s[J], mC, mD, denom)
    return out


def library_surfaces(p, w, geom, r_grid, t_grid, erosion):
    """The same names -> the library's estimators on a built geometry."""
    out = {}
    for sc in ("S1", "S2", "S3", "S4"):
        kw = dict(weights=w, scenario=sc, geometry=geom)
        out[f"k_inhom/{sc}"] = k_inhom(p, C_ONE, D_TWO, **kw).values
        out[f"delta_surface/{sc}"] = delta_surface(p, C_ONE, D_TWO, **kw).values
    for sc in ("S1", "S3"):
        out[f"k_ground/{sc}"] = k_ground(p, weights=w, scenario=sc, geometry=geom).values
    if p.dim == 2:
        out["k_directional"] = k_directional(p, C_ONE, D_TWO, *CONE, weights=w,
                                             geometry=geom).values
    for i, j in ((1, 2), (2, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty components in the tiny cases
            out[f"k_cross_multitype/{i}{j}"] = k_cross_multitype(
                p, i, j, weights=w, geometry=geom).values
    if p.n:
        out["k_stationary"] = k_stationary(p, C_ONE, D_TWO, r_grid, t_grid,
                                           erosion=erosion).values
    return out


class TestChunkedGeometry:
    """The batched build stores exactly the reference's pairs with nonempty
    rectangles, for any batch length and any order of the points, and every
    estimator on it equals the reference formulas on the full arrays bit
    for bit, for any chunk length of its sums."""

    # the short batches cross batch boundaries in the filter and in the
    # binning of the stored pairs; the surfaces are summed at the default
    # chunk length (a batch of one would cost the lattice case's 1.26M
    # candidates a Python step each)
    @pytest.mark.parametrize("chunk", [97, 4096, None], ids=["chunk97", "chunk4096", "default"])
    @pytest.mark.parametrize("order", ["given", "shuffled"])
    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_matches_full_arrays(self, monkeypatch, case, erosion, order, chunk):
        p, r_grid, t_grid, w, full, want = full_case(case, erosion, order)
        with monkeypatch.context() as build:
            if chunk is not None:
                build.setattr(second_order, "_CHUNK", chunk)
            geom = pair_geometry(p, r_grid, t_grid, erosion=erosion)
        assert_matches_oracle(geom, full)
        # k_stationary takes no geometry: hand it the one just checked
        monkeypatch.setattr(second_order, "pair_geometry", lambda *args, **kw: geom)
        got = library_surfaces(p, w, geom, r_grid, t_grid, erosion)
        assert sorted(got) == sorted(want)
        for name in want:
            assert _bits(got[name]) == _bits(want[name]), name

    # A chunk of one to three pairs costs a Python iteration per surface,
    # so the chunk axis runs on the cases that store few pairs, among them
    # the duplicate points whose pairs pile up in the same bins; the test
    # above runs the default chunk length on every case. Only per-cell
    # erosion: under fixed erosion the four corner kinds never share a bin.
    @pytest.mark.parametrize("chunk", [1, 3], ids=["chunk1", "chunk3"])
    @pytest.mark.parametrize("order", ["given", "shuffled"])
    @pytest.mark.parametrize("case", ["duplicates", "zero-r", "zero-t", "zero-both", "3d", "two"])
    def test_chunked_sums_match_full_arrays(self, monkeypatch, case, order, chunk):
        # a bin's additions span chunk boundaries: corner-major order across
        # all chunks keeps every surface bit for bit
        monkeypatch.setattr(second_order, "_CHUNK", chunk)
        p, r_grid, t_grid, w, full, want = full_case(case, "per-cell", order)
        geom = pair_geometry(p, r_grid, t_grid)
        monkeypatch.setattr(second_order, "pair_geometry", lambda *args, **kw: geom)
        got = library_surfaces(p, w, geom, r_grid, t_grid, "per-cell")
        for name in want:
            assert _bits(got[name]) == _bits(want[name]), name

    @pytest.mark.parametrize("R, T, cell", [(255, 255, np.uint8), (255, 20, np.uint8),
                                            (256, 256, np.uint16), (20, 300, np.uint16)],
                             ids=["255x255", "255x20", "256x256", "20x300"])
    def test_cell_dtype_switch(self, monkeypatch, R, T, cell):
        # first cells up to 254 fit uint8; their flat corners do not, so a
        # cell is cast to intp before any index arithmetic (uint8 * int
        # stays uint8 under numpy's promotion rules and wraps or overflows)
        p = uniform_pattern(300, seed=73, marks="labels")
        r_grid = 0.25 * np.arange(1, R + 1) / R
        t_grid = 0.25 * np.arange(1, T + 1) / T
        rng = np.random.default_rng(74)
        w = Weights(lam=rng.uniform(5.0, 20.0, p.n), lam_ground=rng.uniform(5.0, 20.0, p.n))
        full = pair_geometry_oracle(p, r_grid, t_grid)
        geom = pair_geometry(p, r_grid, t_grid)
        assert geom.a_r.dtype == geom.a_t.dtype == cell
        assert_matches_oracle(geom, full)
        assert geom.a_r.max() >= min(R, 256) // 2 and geom.a_t.max() >= min(T, 256) // 2
        want = reference_surfaces(p, w, full)
        monkeypatch.setattr(second_order, "pair_geometry", lambda *args, **kw: geom)
        got = library_surfaces(p, w, geom, r_grid, t_grid, "per-cell")
        for name in want:
            assert _bits(got[name]) == _bits(want[name]), name

    def test_cases_store_and_drop_pairs(self):
        # the comparison above means something: candidates with empty
        # rectangles are dropped, and most cases keep some pairs
        dropped = kept = 0
        for case in PAIR_CASES:
            valid = pair_geometry_oracle(*pair_case(case)).pair_corners[0]
            dropped += np.count_nonzero(~valid)
            kept += bool(np.count_nonzero(valid))
        assert dropped > 0 and kept >= 10


def _recorded_builds(monkeypatch):
    """Wrap `second_order.pair_geometry`: the list it returns collects the
    selection (the private ``_select``) and the result of every build."""
    built = []
    build = second_order.pair_geometry

    def recording(*args, **kw):
        geom = build(*args, **kw)
        built.append((kw.get("_select"), geom))
        return geom

    monkeypatch.setattr(second_order, "pair_geometry", recording)
    return built


def _full_builds(monkeypatch):
    """Make every estimator build the full geometry: `pair_geometry` with the
    selection dropped."""
    build = second_order.pair_geometry
    monkeypatch.setattr(second_order, "pair_geometry",
                        lambda *args, _select=None, **kw: build(*args, **kw))


def _smoothing_weights(q, keep):
    rng = np.random.default_rng(q.n)
    return Weights(lam=rng.uniform(5.0, 20.0, q.n), lam_ground=rng.uniform(5.0, 20.0, q.n))


def own_geometry_surfaces(p, w):
    """name -> (call, whether it takes a geometry): the surfaces of the
    estimators that can build their own geometry. ``call(**geo)`` passes
    ``geo``, the lag grids and erosion or a geometry, to the estimator."""
    calls = {
        "k_inhom": (lambda **geo: k_inhom(p, C_ONE, D_TWO, weights=w, **geo), True),
        "k_inhom/symmetrized": (lambda **geo: k_inhom(p, C_ONE, D_TWO, weights=w, scenario="S4",
                                                      symmetrize=True, **geo), True),
        "delta_surface": (lambda **geo: delta_surface(p, C_ONE, D_TWO, weights=w, **geo), True),
        "decomposition_residual": (
            lambda **geo: decomposition_residual(p, C_ONE, weights=w, **geo), False),
        "k_smoothed": (lambda **geo: k_smoothed(p, C_ONE, D_TWO, weights_builder=_smoothing_weights,
                                                retention=0.7, n=3, seed=5, **geo), False),
    }
    for i, j in ((1, 2), (2, 2)):
        calls[f"k_cross_multitype/{i}{j}"] = (
            lambda i=i, j=j, **geo: k_cross_multitype(p, i, j, weights=w, **geo), True)
    if p.n:
        calls["k_stationary"] = (lambda **geo: k_stationary(p, C_ONE, D_TWO, **geo), False)
    if p.dim == 2:
        calls["k_directional"] = (
            lambda **geo: k_directional(p, C_ONE, D_TWO, *CONE, weights=w, **geo), True)
    return calls


class TestSelectedGeometry:
    """An estimator that builds its own geometry stores only the pairs its
    surfaces select, the selected subset of the full arrays in the same
    (I, J) order, and every surface keeps its bits."""

    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_surfaces_match_the_full_geometry(self, monkeypatch, case, erosion):
        p, r_grid, t_grid, w = full_case(case, erosion)[:4]
        own_lags = dict(r_grid=r_grid, t_grid=t_grid, erosion=erosion)
        full = pair_geometry(p, r_grid, t_grid, erosion=erosion)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty components in the tiny cases
            for name, (call, takes_geometry) in own_geometry_surfaces(p, w).items():
                with monkeypatch.context() as m:
                    built = _recorded_builds(m)
                    own = call(**own_lags)
                # the thinnings' geometries are the thinned patterns'
                if name != "k_smoothed":
                    assert len(built) == 1, name
                    _assert_selected(built[0][1], full, built[0][0])
                if takes_geometry:
                    want = call(geometry=full)
                else:
                    with monkeypatch.context() as m:
                        _full_builds(m)
                        want = call(**own_lags)
                assert _bits(own.values) == _bits(want.values), name

    @pytest.mark.parametrize("case", ["uniform", "duplicates", "lattice", "3d", "zero-both"])
    def test_selected_builds_match_the_scan(self, monkeypatch, case):
        p, r_grid, t_grid, w = full_case(case, "per-cell")[:4]
        built = _recorded_builds(monkeypatch)
        k_inhom(p, C_ONE, D_TWO, r_grid, t_grid, w, symmetrize=True)
        decomposition_residual(p, C_ONE, r_grid, t_grid, w)
        k_stationary(p, C_ONE, D_TWO, r_grid, t_grid)
        assert len(built) == 3
        for select, geom in built:
            assert_matches_oracle(geom, pair_geometry_oracle(p, r_grid, t_grid, select=select))

    @pytest.mark.parametrize("case", ["uniform", "clustered", "3d", "two"])
    def test_empty_mark_set_builds_no_pairs(self, monkeypatch, case):
        p, r_grid, t_grid, w = full_case(case, "per-cell")[:4]
        ones = pattern_from_arrays(p.x, p.t, np.ones(p.n), p.window, LabelMarks(2))
        full = pair_geometry(ones, r_grid, t_grid)
        calls = [
            lambda **geo: k_inhom(ones, C_ONE, D_TWO, weights=w, scenario="S1", **geo),
            lambda **geo: k_cross_multitype(ones, 2, 1, weights=w, **geo),
            lambda **geo: delta_surface(ones, D_TWO, C_ONE, weights=w, scenario="S3", **geo),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty component
            for call in calls:
                with monkeypatch.context() as m:
                    built = _recorded_builds(m)
                    own = call(r_grid=r_grid, t_grid=t_grid)
                assert built[0][0] is not None and built[0][1].I.size == 0
                assert _bits(own.values) == _bits(call(geometry=full).values)

    def test_full_selections_build_every_pair(self, monkeypatch, small_marked):
        # a surface that sums every pair leaves the build unselected
        p, w = small_marked, demo_weights(small_marked)
        built = _recorded_builds(monkeypatch)
        k_ground(p, R_GRID, T_GRID, w)
        k_inhom(p, None, None, R_GRID, T_GRID, w)
        diag_independent_marks(p, C_HALF, D_HALF, R_GRID, T_GRID, w)
        assert [select for select, _ in built] == [None] * 3
        full = pair_geometry(p, R_GRID, T_GRID)
        for _, geom in built:
            _assert_selected(geom, full, None)

    @pytest.mark.parametrize("case", ["uniform", "duplicates", "lattice", "3d", "zero-both",
                                      "two"])
    def test_single_surface_sums_every_stored_pair(self, monkeypatch, case):
        # an estimator of one surface without a cone test stores only the
        # pairs its masks keep, so `_k_values` sums each chunk in place,
        # with the bits of the full-array sum
        p, r_grid, t_grid, w = full_case(case, "per-cell")[:4]
        full = pair_geometry_oracle(p, r_grid, t_grid)
        single = [name for name in own_geometry_surfaces(p, w)
                  if name in ("k_inhom", "k_stationary") or name.startswith("k_cross")]
        assert len(single) == 4
        sums, k_values = [], second_order._k_values
        monkeypatch.setattr(second_order, "_k_values",
                            lambda *args: sums.append(args) or k_values(*args))
        monkeypatch.setattr(second_order, "_CHUNK", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty components in the tiny cases
            for name in single:
                own_geometry_surfaces(p, w)[name][0](r_grid=r_grid, t_grid=t_grid)
        assert len(sums) == len(single)
        for name, (geom, inv, mC, mD, denom, pair_test) in zip(single, sums):
            assert len(inv) == 1 and pair_test is None, name
            I, J = geom.I.astype(np.intp), geom.J.astype(np.intp)
            assert np.all((mC[0, I] != 0) & (mD[0, J] != 0)), name
            calls = _summed_chunks(monkeypatch)
            got = k_values(geom, inv, mC, mD, denom)
            assert len(calls) == 1 and len(calls[0]) == -(-geom.I.size // 64), name
            for chunk in calls[0]:
                assert chunk[3] is None and np.shares_memory(chunk[0], geom.I), name
            want = k_values_oracle(full, inv[0, full.I] * inv[0, full.J], mC[0], mD[0], denom[0])
            assert _bits(got[0]) == _bits(want), name

    @pytest.mark.parametrize("erosion", ["per-cell", "fixed"])
    def test_ground_on_a_given_geometry_sums_in_place(self, monkeypatch, erosion):
        # every stored pair of a full geometry is a ground pair: the chunks
        # are summed in place, with no gathered copy of the stored arrays,
        # and the surface has the bits of the estimator's own build
        p, r_grid, t_grid, w = full_case("uniform", erosion)[:4]
        monkeypatch.setattr(second_order, "_CHUNK", 4096)
        full = pair_geometry(p, r_grid, t_grid, erosion=erosion)
        stored = (full.I, full.J, full.a_r, full.a_t)
        copies, take = [], np.take
        monkeypatch.setattr(np, "take", lambda a, *args, **kw: copies.append(
            any(np.shares_memory(a, v) for v in stored)) or take(a, *args, **kw))
        calls = _summed_chunks(monkeypatch)
        for scenario in ("S1", "S3"):
            got = k_ground(p, weights=w, scenario=scenario, geometry=full)
            assert copies and not any(copies), scenario
            chunks = calls[-1]  # the numerator's
            assert len(chunks) > 1 and all(c[3] is None for c in chunks), scenario
            assert all(np.shares_memory(c[0], full.I) for c in chunks), scenario
            copies.clear()
            calls.clear()
            want = k_ground(p, r_grid, t_grid, w, scenario, erosion=erosion)
            assert _bits(got.values) == _bits(want.values), scenario


def _summed_chunks(monkeypatch):
    """Wrap `second_order._sum_rects`: the list it returns collects the
    chunks (I, a_r, a_t, pos, off, w) of each sum, one list per call (a
    surface's denominator sums come before its numerator's)."""
    calls, sum_rects = [], second_order._sum_rects
    monkeypatch.setattr(second_order, "_sum_rects",
                        lambda geom, S, parts: calls.append(parts) or sum_rects(geom, S, parts))
    return calls


def _assert_selected(geom, full, select):
    """``geom`` holds exactly the pairs of ``full`` that the selection
    (first, second) takes (every pair when it is None), with the same
    arrays at those positions and the same per-point arrays."""
    keep = np.ones(full.I.size, dtype=bool)
    if select is not None:
        first, second = select
        keep = (first[full.I.astype(np.intp)] & second[full.J.astype(np.intp)]) != 0
    for name in ("I", "J", "a_r", "a_t"):
        assert getattr(geom, name).dtype == getattr(full, name).dtype, name
        assert getattr(geom, name).tobytes() == getattr(full, name)[keep].tobytes(), name
    for name in ("pt_b_r", "pt_b_t", "ell_r", "ell_t"):
        assert np.array_equal(getattr(geom, name), getattr(full, name)), name


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairMemory:
    def test_stationary_peak_is_bounded(self):
        # 3000 uniform points on the default grid: about 616k pairs within
        # the maximal lags, 284k of them with a nonempty rectangle, 69k of
        # those from label 1 to label 2. Building only those and summing
        # them in chunks peaks at about 5 MB (6.2 MB when every pair was
        # built); holding every candidate's full arrays at once would take
        # 88 MB.
        p = uniform_pattern(3000, seed=71, marks="labels")
        peak = _traced_peak(lambda: k_stationary(p, LabelSet([1]), LabelSet([2])))
        assert peak < 6e6

    def test_stationary_builds_only_the_cross_pairs(self, monkeypatch):
        # the same points: the build of K^CD for C = label 1, D = label 2
        # stores only the 69k C -> D pairs of the 284k
        p = uniform_pattern(3000, seed=71, marks="labels")
        full = pair_geometry(p, *default_lag_grids(p.window))
        I, J = full.I.astype(np.intp), full.J.astype(np.intp)
        cross = np.count_nonzero((p.marks[I] == 1) & (p.marks[J] == 2))
        built = _recorded_builds(monkeypatch)
        k_stationary(p, LabelSet([1]), LabelSet([2]))
        assert [geom.I.size for _, geom in built] == [cross]
        assert 4 * cross < full.I.size

    def test_surface_peak_is_bounded_by_the_geometry(self):
        # 5000 uniform points: 789k stored pairs, 4.7 MB of pair arrays
        # (6 bytes each: uint16 I and J, uint8 first cells). The surface
        # step keeps 12 bytes per pair its mark sets select (weight, first
        # point and first cells) and one chunk's temporaries: about 4.5
        # bytes per stored pair for C = label 1, D = label 2 and 16 for the
        # ground statistic, which keeps every pair. Pair-length float64
        # weights and masks would reach 24.
        p = uniform_pattern(5000, seed=71, marks="labels")
        geom = pair_geometry(p, *default_lag_grids(p.window))
        stored = sum(a.nbytes for a in (geom.I, geom.J, geom.a_r, geom.a_t))
        assert stored == 6 * geom.I.size
        w = Weights(lam=np.full(p.n, 5000.0), lam_ground=np.full(p.n, 5000.0))
        C, D = LabelSet([1]), LabelSet([2])
        peak = _traced_peak(lambda: k_inhom(p, C, D, weights=w, geometry=geom))
        assert peak < 7.5 * geom.I.size
        assert _traced_peak(lambda: k_ground(p, weights=w, geometry=geom)) < 20 * geom.I.size

    def test_build_peak_per_stored_pair(self):
        # the same 789k stored pairs: the build holds the uint32 keys of the
        # kept orientations, the cell sweep's runs and one batch's
        # candidates and temporaries, then the keys twice while their
        # pieces are joined, then the output arrays at 6 bytes per pair and
        # one chunk's lags: about 11.5 bytes per stored pair at the peak,
        # every buffer of the search traced
        p = uniform_pattern(5000, seed=71, marks="labels")
        grids = default_lag_grids(p.window)
        size = []
        peak = _traced_peak(lambda: size.append(pair_geometry(p, *grids).I.size))
        assert size[0] > 700_000
        assert peak < 13.5 * size[0]


def _line(n):
    """n points a unit apart on a line, at one time: with r_grid [1.5] and
    t_grid [0.25] only neighbours are within the lags, and every point but
    the two ends is eroded-in."""
    window = Window(spatial=((0.0, float(n)),), temporal=(0.0, 1.0))
    x = (np.arange(n) + 0.5)[:, None]
    return pattern_from_arrays(x, np.full(n, 0.5), None, window, None)


class TestIndexType:
    @pytest.mark.parametrize("n, dtype", [(65536, np.uint16), (65537, np.int32)])
    def test_switches_above_65536_points(self, n, dtype):
        p = _line(n)
        geom = pair_geometry(p, [1.5], [0.25])
        assert geom.I.dtype == geom.J.dtype == dtype
        # point i (1 <= i <= n - 2) starts the pairs (i, i - 1), (i, i + 1)
        first = np.arange(1, n - 1)
        assert np.array_equal(geom.I, np.repeat(first, 2))
        assert np.array_equal(geom.J, np.stack([first - 1, first + 1], axis=1).ravel())
        assert geom.J[-1] == n - 1
        assert not geom.a_r.any() and not geom.a_t.any()
        # 2 (n - 2) unit-weight pairs over the eroded window (n - 3) x 0.5
        k = k_ground(p, weights=Weights(lam_ground=np.ones(n)), geometry=geom).values
        assert k[0, 0] == pytest.approx(2 * (n - 2) / ((n - 3) * 0.5), rel=1e-12)


def _clustered_grid():
    """Three grid values one ulp apart, between a zero and a far last value:
    a bucket of the lookup table holds all three."""
    close = [0.1]
    for _ in range(2):
        close.append(np.nextafter(close[-1], 1.0))
    return np.array([0.0, *close, 0.25])


# the default grid, CLI-style grids (r_max k / n, k = 1..n) on both sides of
# the uint8 / uint16 cell switch, a geometric grid, a single zero lag and a
# clustered grid
LOOKUP_GRIDS = {
    "default": default_lag_grids(UNIT)[0],
    **{f"cli{n}": 0.25 * np.arange(1, n + 1) / n for n in (1, 7, 255, 256, 300)},
    "geometric": np.geomspace(1e-6, 0.25, 20),
    "zero": np.array([0.0]),
    "clustered": _clustered_grid(),
}
UNIFORM_GRIDS = ["default", "cli1", "cli7", "cli255", "cli256", "cli300"]


def _lookup_lags(grid):
    """0, every grid value and its two float neighbours, and random lags up
    to the last grid value."""
    rng = np.random.default_rng(grid.size)
    near = [grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)]
    return np.concatenate([[0.0], *near, rng.uniform(0.0, grid[-1], 20_000)])


class TestLagCells:
    @pytest.mark.parametrize("name", LOOKUP_GRIDS)
    def test_matches_binary_search(self, name):
        grid = LOOKUP_GRIDS[name]
        cell = np.min_scalar_type(grid.size)
        lags = _lookup_lags(grid)
        got = second_order._lag_cells(second_order._cell_lookup(grid, cell), lags)
        assert got.dtype == cell
        assert np.array_equal(got, np.searchsorted(grid, lags, side="left"))

    @pytest.mark.parametrize("name", UNIFORM_GRIDS)
    def test_uniform_grids_need_no_binary_search(self, monkeypatch, name):
        # the first guess and its steps up and down resolve every lag;
        # the lags on and beside the grid values need the down step
        grid = LOOKUP_GRIDS[name]
        lookup = second_order._cell_lookup(grid, np.min_scalar_type(grid.size))
        lags = _lookup_lags(grid)
        want = np.searchsorted(grid, lags, side="left")

        def refuse(*args, **kwargs):
            raise AssertionError("a lag went through the binary search")

        monkeypatch.setattr(np, "searchsorted", refuse)
        assert np.array_equal(second_order._lag_cells(lookup, lags), want)


class TestAgainstOracle:
    def test_marked_scenarios_and_erosions(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        cm = C_HALF.mask(p.marks)
        dm = D_HALF.mask(p.marks)
        nu_c, nu_d = p.nu(C_HALF), p.nu(D_HALF)
        for scenario in ("S1", "S2", "S3", "S4"):
            for erosion in ("per-cell", "fixed"):
                got = k_inhom(
                    p, C_HALF, D_HALF, R_GRID, T_GRID, w,
                    scenario=scenario, erosion=erosion,
                ).values
                want = k_cells_oracle(
                    p, R_GRID, T_GRID, w.lam, lam_ground=w.lam_ground,
                    c_mask=cm, d_mask=dm, nu_c=nu_c, nu_d=nu_d,
                    scenario=scenario, erosion=erosion,
                )
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (scenario, erosion)

    def test_labelled_pattern(self, small_labelled):
        p = small_labelled
        w = demo_weights(p)
        C, D = LabelSet([1]), LabelSet([2])
        for scenario in ("S2", "S3"):
            got = k_inhom(p, C, D, R_GRID, T_GRID, w, scenario=scenario).values
            want = k_cells_oracle(
                p, R_GRID, T_GRID, w.lam, lam_ground=w.lam_ground,
                c_mask=C.mask(p.marks), d_mask=D.mask(p.marks),
                nu_c=1.0, nu_d=1.0, scenario=scenario,
            )
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), scenario

    def test_ground_statistic(self):
        p = uniform_pattern(25, seed=63, marks=None)
        lam = 25.0 + 5.0 * p.x[:, 0]
        w = Weights(lam_ground=lam)
        for scenario in ("S1", "S3"):
            got = k_ground(p, R_GRID, T_GRID, w, scenario=scenario).values
            want = k_cells_oracle(p, R_GRID, T_GRID, lam, scenario=scenario)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12), scenario

    def test_frozen_regression_values(self, small_marked):
        surf = k_inhom(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                       demo_weights(small_marked), scenario="S2")
        assert surf.values[0, 0] == 0.0
        assert surf.values[2, 2] == pytest.approx(0.06672392750145069, rel=1e-9)
        assert surf.values[4, 4] == pytest.approx(0.24420540449837785, rel=1e-9)
        s4 = k_inhom(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                     demo_weights(small_marked), scenario="S4")
        assert s4.values[4, 4] == pytest.approx(0.16563868219633213, rel=1e-9)
        s1f = k_inhom(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                      demo_weights(small_marked), scenario="S1", erosion="fixed")
        assert s1f.values[3, 1] == pytest.approx(0.05689051390950858, rel=1e-9)

    def test_symmetrized_form(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        sym = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w,
                      scenario="S2", symmetrize=True).values
        cd = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S2").values
        dc = k_inhom(p, D_HALF, C_HALF, R_GRID, T_GRID, w, scenario="S2").values
        assert np.allclose(sym, 0.5 * (cd + dc), rtol=1e-12)


class TestEngineInvariances:
    def test_scan_oracle_bit_identity(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        got = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w)
        full = pair_geometry_oracle(p, R_GRID, T_GRID)
        mC, mD = C_HALF.mask(p.marks).astype(float), D_HALF.mask(p.marks).astype(float)
        inv = 1.0 / w.lam
        denom = denominator_oracle(full, "S2", mC, mD, inv, None, p.nu(C_HALF), p.nu(D_HALF))
        want = k_values_oracle(full, inv[full.I] * inv[full.J], mC, mD, denom)
        assert _bits(got.values) == _bits(want)

    def test_geometry_reuse_is_exact(self, small_marked):
        p = small_marked
        geom = pair_geometry(p, R_GRID, T_GRID)
        q = permute_marks(p, seed=3)
        w = demo_weights(q)
        with_geom = k_inhom(q, C_HALF, D_HALF, weights=w, geometry=geom)
        fresh = k_inhom(q, C_HALF, D_HALF, R_GRID, T_GRID, w)
        assert np.array_equal(with_geom.values, fresh.values)

    def test_scaling_identity(self, small_marked):
        from mstpp.pattern import rescale

        p = small_marked
        w = demo_weights(p)
        q = rescale(p, 2.0, 3.0)
        factor = 2.0**2 * 3.0
        wq = Weights(lam=w.lam / factor)
        for scenario in ("S1", "S2"):
            base = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario=scenario)
            scaled = k_inhom(
                q, C_HALF, D_HALF, 2.0 * R_GRID, 3.0 * T_GRID, wq, scenario=scenario
            )
            assert np.allclose(scaled.values, factor * base.values, rtol=1e-9), scenario

    def test_zero_denominator_gives_zero(self):
        # the only eligible point carries a D mark, so the C mass term is 0
        # while the D-first/C-second pair still reaches the numerator
        p = pattern_from_arrays(
            np.array([[0.25, 0.5], [0.5, 0.5]]),
            np.array([0.5, 0.45]),
            np.array([0.2, 0.8]),
            UNIT,
            ContinuousMarks(0.0, 1.0, "lebesgue"),
        )
        w = Weights(lam=np.full(2, 2.0))
        surf = k_inhom(p, D_HALF, C_HALF, np.array([0.3]), np.array([0.3]), w,
                       scenario="S2")
        assert surf.values[0, 0] == 0.0

    def test_empty_numerator_gives_zero(self, small_marked):
        w = demo_weights(small_marked)
        tiny = k_inhom(
            small_marked, C_HALF, D_HALF,
            np.array([1e-6]), np.array([1e-6]), w, scenario="S2",
        )
        assert tiny.values[0, 0] == 0.0

    def test_scenario_spellings(self, small_marked):
        w = demo_weights(small_marked)
        a = k_inhom(small_marked, None, None, R_GRID, T_GRID, w, scenario=2)
        b = k_inhom(small_marked, None, None, R_GRID, T_GRID, w, scenario="s2")
        assert a.scenario == b.scenario == "S2"
        assert np.array_equal(a.values, b.values)
        with pytest.raises(ValueError, match="unknown scenario"):
            k_inhom(small_marked, None, None, R_GRID, T_GRID, w, scenario=5)

    def test_validation_errors(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        with pytest.raises(ValueError, match="weights"):
            k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, None)
        with pytest.raises(ValueError, match="lam_ground"):
            k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID,
                    Weights(lam=np.ones(p.n)), scenario="S3")
        ground = uniform_pattern(5, seed=64, marks=None)
        with pytest.raises(ValueError, match="use k_ground"):
            k_inhom(ground, C_HALF, D_HALF, R_GRID, T_GRID, Weights(lam=np.ones(5)))
        with pytest.raises(ValueError, match="S1 and S3"):
            k_ground(p, R_GRID, T_GRID, w, scenario="S2")
        with pytest.raises(ValueError, match="positive finite"):
            Weights(lam=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("scenario", ["S1", "S2", "S3", "S4"])
    def test_zero_mass_mark_sets_rejected(self, small_marked, scenario):
        p = small_marked
        w = demo_weights(p)
        for C, D in ((ZERO_MASS, D_HALF), (C_HALF, ZERO_MASS)):
            with pytest.raises(ValueError, match="positive reference measure"):
                k_inhom(p, C, D, R_GRID, T_GRID, w, scenario=scenario)
            with pytest.raises(ValueError, match="positive reference measure"):
                k_directional(p, C, D, -0.4, 0.7, R_GRID, T_GRID, w, scenario=scenario)
        with pytest.raises(ValueError, match="positive reference measure"):
            k_smoothed(p, ZERO_MASS, D_HALF, R_GRID, T_GRID, lambda q, keep: w,
                       scenario=scenario)

    @pytest.mark.parametrize("call, match", [
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, None), "weights"),
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID,
                              Weights(lam=w.lam), scenario="S3"), "lam_ground"),
        (lambda p, w: k_inhom(p, ZERO_MASS, D_HALF, R_GRID, T_GRID, w,
                              scenario="S1"), "positive reference measure"),
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario=9),
         "scenario"),
        (lambda p, w: k_directional(p, C_HALF, D_HALF, -0.4, 0.7, R_GRID, T_GRID,
                                    None), "weights"),
        (lambda p, w: k_directional(p, C_HALF, D_HALF, -0.4, 0.7, R_GRID, T_GRID,
                                    Weights(lam=w.lam), scenario="S4"), "lam_ground"),
        (lambda p, w: k_directional(p, C_HALF, ZERO_MASS, -0.4, 0.7, R_GRID, T_GRID,
                                    w, scenario="S2"), "positive reference measure"),
        (lambda p, w: k_ground(p, R_GRID, T_GRID, w, scenario="S2"), "S1 and S3"),
        (lambda p, w: k_cross_multitype(p, 1, 2, R_GRID, T_GRID, None), "label"),
        (lambda p, w: k_stationary(project_ground(p), C_HALF, D_HALF, R_GRID, T_GRID),
         "unmarked"),
        (lambda p, w: k_stationary(p, ZERO_MASS, D_HALF, R_GRID, T_GRID),
         "positive reference measure"),
        (lambda p, w: k_stationary(p.with_marks(np.arange(p.n) % 2 + 1.0, LabelMarks(k=2)),
                                   LabelSet([7]), LabelSet([2]), R_GRID, T_GRID),
         "positive reference measure"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, scenario=9), "scenario"),
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID,
                              Weights(lam=np.ones(5))), "one value per point"),
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID,
                              Weights(lam=w.lam, lam_ground=np.ones(p.n + 1)),
                              scenario="S3"), "one value per point"),
        (lambda p, w: k_ground(p, R_GRID, T_GRID, Weights(lam_ground=np.ones(5))),
         "one value per point"),
        (lambda p, w: k_cross_multitype(
            p.with_marks((np.arange(p.n) % 2 + 1.0), LabelMarks(k=2)), 1, 2, R_GRID, T_GRID,
            Weights(lam=np.ones(5))), "one value per point"),
        (lambda p, w: k_measure_hat(p, None, None, CylinderSet(0.1, 0.1),
                                    Weights(lam=np.ones(5))), "one value per point"),
        (lambda p, w: k_measure_hat(p, None, None, CylinderSet(0.1, 0.1), None),
         "weights are required"),
        (lambda p, w: k_measure_hat(p, ZERO_MASS, D_HALF, CylinderSet(0.1, 0.1), w),
         "positive reference measure"),
        (lambda p, w: k_measure_hat(_three_axes(p), None, None,
                                    ConeSet(-0.3, 1.1, 0.1, 0.1), w), "two spatial"),
        (lambda p, w: k_measure_hat(p, None, None, BoxUnionSet(
            boxes=((((-0.1, 0.1),), (-0.1, 0.1)),)), w), "1 spatial axes, not 2"),
        (lambda p, w: k_measure_hat(p, None, None, BoxUnionSet(
            boxes=((((-0.1, 0.1),) * 3, (-0.1, 0.1)),)), w), "3 spatial axes, not 2"),
        (lambda p, w: k_measure_hat(p, None, None, BoxUnionSet(
            boxes=((((-0.1, 0.1), (math.nan, 0.1)), (-0.1, 0.1)),)), w), "one box or more"),
        (lambda p, w: k_measure_hat(p, None, None, BoxUnionSet(
            boxes=((((-0.1, 0.1), (-0.1, 0.1)), (0.1, -0.1)),)), w), "one box or more"),
        (lambda p, w: k_measure_hat(p, None, None, BoxUnionSet(boxes=()), w), "one box or more"),
        (lambda p, w: k_measure_hat(p, None, None, BoxUnionSet(
            boxes=((((-0.1, 0.1), (-0.1, 0.1)), (-0.1, 0.1)), (((0.0, 0.1),), (0.0, 0.1)))),
            w), "one box or more"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, erosion="nope"), "erosion must be"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID[::-1], T_GRID,
                                 lambda q, keep: w), "strictly increasing"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, np.array([0.6]), T_GRID,
                                 lambda q, keep: w), "empties an axis"),
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, np.array([np.nan, 0.1]), T_GRID, w,
                              scenario="S1"), "finite"),
        (lambda p, w: k_inhom(p, C_HALF, D_HALF, R_GRID, np.array([0.1, np.inf]), w),
         "finite"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, np.array([np.nan, 0.1]), T_GRID,
                                 lambda q, keep: w), "finite"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, threads=0), "thread"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, threads=2.5), "thread"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, n=2.5), "thinning"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, n=True), "thinning"),
        (lambda p, w: k_smoothed(p, C_HALF, D_HALF, R_GRID, T_GRID,
                                 lambda q, keep: w, seed=-1), "seed"),
    ], ids=["inhom-weights", "inhom-lam_ground", "inhom-zero-mass", "inhom-scenario",
            "directional-weights", "directional-lam_ground", "directional-zero-mass",
            "ground-scenario", "cross-labels", "stationary-unmarked",
            "stationary-zero-mass", "stationary-absent-label",
            "smoothed-scenario", "inhom-lam-length", "inhom-lam_ground-length",
            "ground-length", "cross-length", "measure-length", "measure-weights",
            "measure-zero-mass", "measure-cone-3d", "measure-box-1-axis",
            "measure-box-3-axes", "measure-box-nan", "measure-box-reversed",
            "measure-box-none", "measure-box-mixed-axes",
            "smoothed-erosion", "smoothed-grid", "smoothed-window",
            "inhom-nan-grid", "inhom-inf-grid", "smoothed-nan-grid",
            "smoothed-threads-0", "smoothed-threads-2.5", "smoothed-n-2.5",
            "smoothed-n-bool", "smoothed-seed"])
    def test_bad_arguments_fail_before_any_work(self, small_marked, monkeypatch,
                                                call, match):
        def no_work(*args, **kw):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(second_order, "pair_geometry", no_work)
        monkeypatch.setattr(second_order, "thin", no_work)
        with pytest.raises(ValueError, match=match):
            call(small_marked, demo_weights(small_marked))

    def test_geometry_must_match_the_call(self):
        p = uniform_pattern(60, seed=2, marks="labels")
        w = Weights(lam=np.full(p.n, 60.0))
        C, D = LabelSet([1]), LabelSet([2])
        other = pair_geometry(uniform_pattern(80, seed=3, marks="labels"), [0.05], [0.05])
        with pytest.raises(ValueError, match="80 points, the pattern 60"):
            k_inhom(p, C, D, weights=w, scenario="S1", geometry=other)
        geom = pair_geometry(p, [0.05], [0.05])
        for grids in (([0.2], [0.2]), ([0.2], None), (None, [0.2])):
            with pytest.raises(ValueError, match="not both"):
                k_inhom(p, C, D, *grids, weights=w, scenario="S1", geometry=geom)
        surf = k_inhom(p, C, D, weights=w, scenario="S1", geometry=geom)
        assert surf.r_grid.tolist() == [0.05] and surf.t_grid.tolist() == [0.05]
        # an erosion mode named beside a geometry must be the geometry's;
        # None takes the geometry's own
        fixed = pair_geometry(p, [0.05], [0.05], erosion="fixed")
        calls = [
            lambda g, e: k_inhom(p, C, D, weights=w, scenario="S1", erosion=e, geometry=g),
            lambda g, e: k_ground(p, weights=w, erosion=e, geometry=g),
            lambda g, e: k_directional(p, C, D, weights=w, erosion=e, geometry=g),
            lambda g, e: k_cross_multitype(p, 1, 2, weights=w, erosion=e, geometry=g),
            lambda g, e: delta_surface(p, C, D, weights=w, erosion=e, geometry=g),
        ]
        for call in calls:
            for g, e in ((geom, "fixed"), (fixed, "per-cell"), (geom, "none")):
                with pytest.raises(ValueError, match=f"erosion '{e}' differs from the "
                                                     f"geometry's '{g.erosion}'"):
                    call(g, e)
            for g in (geom, fixed):
                assert call(g, None).meta["erosion"] == g.erosion
                assert _bits(call(g, g.erosion).values) == _bits(call(g, None).values)
        # without a geometry, None is per-cell
        assert k_inhom(p, C, D, [0.05], [0.05], w).meta["erosion"] == "per-cell"

    def test_plugged_weights_source(self):
        p = uniform_pattern(10, seed=65)
        quad = Quadrature(n_space=24, n_time=24)
        w = weights_from_estimate(voronoi_marked(p, quad), voronoi_ground(p, quad))
        assert w.source == "PluggedEstimate"
        surf = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S4")
        assert surf.weights_source == "PluggedEstimate"
        assert np.all(np.isfinite(surf.values))


class TestMeasureHat:
    def test_three_point_hand_value(self):
        p = pattern_from_arrays(
            np.array([[0.5, 0.5], [0.56, 0.5], [0.9, 0.9]]),
            np.array([0.15, 0.08, 0.5]),
            window=UNIT,
        )
        w = Weights(lam=np.full(3, 3.0))
        value = k_measure_hat(p, None, None, CylinderSet(0.1, 0.1), w)
        assert value == pytest.approx(125.0 / 576.0, rel=1e-12)

    def test_three_point_hand_value_labelled(self):
        p = pattern_from_arrays(
            np.array([[0.5, 0.5], [0.56, 0.5], [0.9, 0.9]]),
            np.array([0.15, 0.08, 0.5]),
            np.array([1.0, 2.0, 1.0]),
            UNIT,
            LabelMarks(k=2),
        )
        w = Weights(lam=np.full(3, 3.0))
        full = k_measure_hat(p, None, None, CylinderSet(0.1, 0.1), w)
        assert full == pytest.approx(125.0 / 576.0 / 4.0, rel=1e-12)
        split = k_measure_hat(p, LabelSet([1]), LabelSet([2]), CylinderSet(0.1, 0.1), w)
        assert split == pytest.approx(125.0 / 576.0, rel=1e-12)

    def test_unmarked_pattern_reads_the_ground_intensity(self):
        # one ground-intensity rule with k_ground: lam_ground, else lam
        p = project_ground(uniform_pattern(80, seed=74))
        rng = np.random.default_rng(74)
        w = Weights(lam=rng.uniform(20.0, 40.0, p.n), lam_ground=rng.uniform(60.0, 120.0, p.n))
        r, t = 0.1, 0.1
        ground = k_ground(p, [r], [t], w, erosion="fixed").values[0, 0]
        assert ground > 0
        assert k_measure_hat(p, None, None, CylinderSet(r, t), w) == \
            pytest.approx(ground, rel=1e-12)
        lam_only = Weights(lam=w.lam)
        assert k_measure_hat(p, None, None, CylinderSet(r, t), lam_only) == pytest.approx(
            k_ground(p, [r], [t], lam_only, erosion="fixed").values[0, 0], rel=1e-12)

    def test_degenerate_set_is_zero(self, small_marked):
        w = demo_weights(small_marked)
        assert k_measure_hat(small_marked, None, None, CylinderSet(0.0, 0.0), w) == 0.0

    def test_matches_oracle_for_box_union_and_cone(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        cm = C_HALF.mask(p.marks)
        dm = D_HALF.mask(p.marks)
        sets = [
            BoxUnionSet(boxes=((((-0.1, 0.15), (-0.2, 0.1)), (-0.15, 0.2)),)),
            ConeSet(-0.3, 1.1, 0.22, 0.18),
        ]
        for E in sets:
            got = k_measure_hat(p, C_HALF, D_HALF, E, w)
            r_c, t_c = E.bounding_lags()
            want = measure_oracle(
                p, lambda dx, dt: bool(E.contains_lag(dx[None, :], np.array([dt]))[0]),
                r_c, t_c, w.lam, c_mask=cm, d_mask=dm,
                nu_c=p.nu(C_HALF), nu_d=p.nu(D_HALF),
            )
            assert got == pytest.approx(want, rel=1e-12), E

    def test_agrees_with_fixed_erosion_corner_cell(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        r, t = 0.2, 0.15
        direct = k_measure_hat(p, C_HALF, D_HALF, CylinderSet(r, t), w)
        surf = k_inhom(p, C_HALF, D_HALF, np.array([r]), np.array([t]), w,
                       scenario="S1", erosion="fixed")
        assert direct == pytest.approx(surf.values[0, 0], rel=1e-12)

    @pytest.mark.parametrize("order", ["given", "shuffled"])
    def test_sum_is_independent_of_the_chunk_length(self, monkeypatch, order):
        p = uniform_pattern(120, seed=75, marks="labels")
        if order == "shuffled":
            perm = np.random.default_rng(76).permutation(p.n)
            p = pattern_from_arrays(p.x[perm], p.t[perm], p.marks[perm], p.window,
                                    p.mark_space)
        w = Weights(lam=np.random.default_rng(77).uniform(50.0, 150.0, p.n))
        sets = [CylinderSet(0.15, 0.2), ConeSet(-0.3, 1.1, 0.2, 0.1),
                BoxUnionSet(boxes=((((-0.1, 0.15), (-0.2, 0.1)), (-0.15, 0.2)),
                                   (((0.0, 0.2), (0.0, 0.05)), (-0.05, 0.0))))]
        marks = [(None, None), (LabelSet([1]), LabelSet([2]))]
        want = [k_measure_hat(p, C, D, E, w) for E in sets for C, D in marks]
        assert all(v > 0 for v in want)
        for chunk in (1, 3):
            monkeypatch.setattr(second_order, "_CHUNK", chunk)
            got = [k_measure_hat(p, C, D, E, w) for E in sets for C, D in marks]
            assert _bits(got) == _bits(want), chunk

    def test_builds_only_the_eroded_in_cross_pairs(self, monkeypatch):
        # the build holds exactly the scan's eroded-in C -> D pairs at the
        # set's bounding lags; C = D = None and an unmarked pattern build
        # every pair
        p = uniform_pattern(120, seed=78, marks="labels")
        w = Weights(lam=np.full(p.n, 120.0))
        C, D = LabelSet([1]), LabelSet([2])
        select = tuple(m.mask(p.marks).astype(np.uint8) for m in (C, D))
        ground = project_ground(p)
        for E in (CylinderSet(0.15, 0.2), ConeSet(-0.3, 1.1, 0.2, 0.1)):
            r_c, t_c = E.bounding_lags()
            with monkeypatch.context() as m:
                built = _recorded_builds(m)
                k_measure_hat(p, C, D, E, w)
                k_measure_hat(p, None, None, E, w)
                k_measure_hat(ground, None, None, E, w)
            assert [s is None for s, _ in built] == [False, True, True]
            full = pair_geometry(p, [r_c], [t_c], erosion="fixed")
            assert 0 < built[0][1].I.size < full.I.size
            assert_matches_oracle(built[0][1], pair_geometry_oracle(
                p, [r_c], [t_c], erosion="fixed", select=select))
            for q, (_, geom) in zip((p, ground), built[1:]):
                assert_matches_oracle(geom, pair_geometry_oracle(q, [r_c], [t_c], "fixed"))

    def test_erosion_guard(self, small_marked):
        w = demo_weights(small_marked)
        with pytest.raises(ErosionError):
            k_measure_hat(small_marked, None, None, CylinderSet(0.6, 0.1), w)


class TestDirectional:
    def test_full_wedge_reproduces_plain_statistic(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        full = k_directional(p, C_HALF, D_HALF, -math.pi / 2, math.pi / 2,
                             R_GRID, T_GRID, w, scenario="S2")
        plain = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S2")
        assert np.array_equal(full.values, plain.values)

    def test_complementary_wedges_partition(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        left = k_directional(p, C_HALF, D_HALF, -math.pi / 2, 0.0,
                             R_GRID, T_GRID, w, scenario="S1")
        right = k_directional(p, C_HALF, D_HALF, 0.0, math.pi / 2,
                              R_GRID, T_GRID, w, scenario="S1")
        plain = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S1")
        assert np.allclose(left.values + right.values, plain.values, rtol=1e-9)

    def test_orthogonal_quarter_wedges_partition(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        a = k_directional(p, None, None, -math.pi / 4, math.pi / 4,
                          R_GRID, T_GRID, w, scenario="S1")
        b = k_directional(p, None, None, math.pi / 4, 3 * math.pi / 4,
                          R_GRID, T_GRID, w, scenario="S1")
        plain = k_inhom(p, None, None, R_GRID, T_GRID, w, scenario="S1")
        assert np.allclose(a.values + b.values, plain.values, rtol=1e-9)

    def test_against_oracle_with_direction_mask(self, small_marked):
        p = small_marked
        w = demo_weights(p)
        phi, psi = -0.4, 0.7
        got = k_directional(p, C_HALF, D_HALF, phi, psi, R_GRID, T_GRID, w,
                            scenario="S2").values
        pair_ok = np.empty((p.n, p.n), dtype=bool)
        for i in range(p.n):
            for j in range(p.n):
                pair_ok[i, j] = wedge_contains(p.x[j] - p.x[i], phi, psi)
        want = k_cells_oracle(
            p, R_GRID, T_GRID, w.lam,
            c_mask=C_HALF.mask(p.marks), d_mask=D_HALF.mask(p.marks),
            nu_c=p.nu(C_HALF), nu_d=p.nu(D_HALF), scenario="S2", pair_ok=pair_ok,
        )
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("phi, psi", [
        (-math.pi / 4, math.pi / 4), (-1.0, 1.2), (0.0, math.pi / 2), (-math.pi / 2, math.pi / 2),
    ])
    def test_benchmark_is_the_cone_volume(self, small_marked, tmp_path, phi, psi):
        # a directional surface's Poisson benchmark is the volume of its own
        # lag sets, the double cones: a quarter wedge's is a quarter of the
        # cylinder's, the full wedge's the cylinder's within 2 ulp
        p = small_marked
        surf = k_directional(p, C_HALF, D_HALF, phi, psi, R_GRID, T_GRID, demo_weights(p))
        want = np.array([[cone_volume(phi, psi, r, t) for t in T_GRID] for r in R_GRID])
        assert np.array_equal(surf.poisson_surface(), want)
        assert np.array_equal(surf.diff_poisson(), surf.values - want)
        path = tmp_path / "surface.csv"
        surf.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["k_poisson"]) for row in rows] == list(want.ravel())
        cylinder = poisson_reference(R_GRID, T_GRID, 2).values
        np.testing.assert_array_max_ulp(want * math.pi / (psi - phi), cylinder, maxulp=2)

    def test_angle_validation(self, small_marked):
        w = demo_weights(small_marked)
        with pytest.raises(ValueError):
            k_directional(small_marked, None, None, -2.0, 0.0, R_GRID, T_GRID, w)


class TestCross:
    def make_bivariate(self):
        a = sim_poisson(IntensityField(
            fn=lambda x, t: np.full(np.asarray(t).shape, 150.0),
            window=UNIT, lam_max=150.0), seed=70)
        b = sim_poisson(IntensityField(
            fn=lambda x, t: np.full(np.asarray(t).shape, 100.0),
            window=UNIT, lam_max=100.0), seed=71)
        p = superpose([a, b])
        lam = np.where(p.marks == 1.0, 150.0, 100.0)
        return p, Weights(lam=lam)

    def test_matches_oracle(self):
        p, w = self.make_bivariate()
        got = k_cross_multitype(p, 1, 2, R_GRID, T_GRID, w).values
        want = k_cells_oracle(
            p, R_GRID, T_GRID, w.lam,
            c_mask=p.marks == 1.0, d_mask=p.marks == 2.0,
            nu_c=1.0, nu_d=1.0, scenario="S1",
        )
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_same_type_reduces_to_component_statistic(self):
        p, w = self.make_bivariate()
        own = k_cross_multitype(p, 1, 1, R_GRID, T_GRID, w).values
        comp = project_ground(p, LabelSet([1]))
        wc = Weights(lam=np.full(comp.n, 150.0))
        ground = k_ground(comp, R_GRID, T_GRID, wc, scenario="S1").values
        assert np.allclose(own, ground, rtol=1e-12)

    def test_label_reference_weights_are_irrelevant(self):
        p, w = self.make_bivariate()
        reweighted = pattern_from_arrays(
            p.x, p.t, p.marks, p.window, LabelMarks(k=2, weights=(0.3, 0.7))
        )
        a = k_cross_multitype(p, 1, 2, R_GRID, T_GRID, w).values
        b = k_cross_multitype(reweighted, 1, 2, R_GRID, T_GRID, w).values
        assert np.array_equal(a, b)

    def test_empty_component_warns_and_zeroes(self):
        p = uniform_pattern(10, seed=72, marks="labels")
        only1 = pattern_from_arrays(p.x, p.t, np.ones(10), p.window, LabelMarks(k=2))
        w = Weights(lam=np.full(10, 10.0))
        with pytest.warns(UserWarning, match="empty"):
            surf = k_cross_multitype(only1, 1, 2, R_GRID, T_GRID, w)
        assert np.all(surf.values == 0.0)

    def test_requires_labels(self, small_marked):
        with pytest.raises(ValueError, match="label"):
            k_cross_multitype(small_marked, 1, 2, R_GRID, T_GRID,
                              Weights(lam=np.ones(small_marked.n)))


class TestStationary:
    def test_matches_scaled_oracle(self, small_labelled):
        p = small_labelled
        C, D = LabelSet([1]), LabelSet([2])
        got = k_stationary(p, C, D, R_GRID, T_GRID).values
        lam_hat = p.n / p.window.volume
        n_c = float(np.sum(p.marks == 1.0))
        n_d = float(np.sum(p.marks == 2.0))
        want = k_cells_oracle(
            p, R_GRID, T_GRID, np.full(p.n, lam_hat),
            c_mask=p.marks == 1.0, d_mask=p.marks == 2.0,
            nu_c=n_c / p.n, nu_d=n_d / p.n, scenario="S1",
        )
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_full_sets_match_ground_projection(self, small_labelled):
        p = small_labelled
        marked = k_stationary(p, None, None, R_GRID, T_GRID).values
        ground = k_stationary(project_ground(p), r_grid=R_GRID, t_grid=T_GRID).values
        assert np.array_equal(marked, ground)

    def test_homogeneous_poisson_tracks_reference(self):
        field = IntensityField(
            fn=lambda x, t: np.full(np.asarray(t).shape, 200.0),
            window=UNIT, lam_max=200.0,
        )
        r_grid, t_grid = default_lag_grids(UNIT)
        ref = poisson_reference(r_grid, t_grid, 2).values
        rel_corner = np.empty(10)
        rel_mid = np.empty(10)
        for k, seed in enumerate(range(10)):
            p = sim_poisson(field, seed=seed)
            v = k_stationary(p, r_grid=r_grid, t_grid=t_grid).values
            rel_corner[k] = (v[-1, -1] - ref[-1, -1]) / ref[-1, -1]
            rel_mid[k] = (v[9, 9] - ref[9, 9]) / ref[9, 9]
        # single-replicate spread at these lags is ~25-30%; the mean over
        # ten replicates isolates the (absent) bias
        assert abs(rel_corner.mean()) < 0.25
        assert abs(rel_mid.mean()) < 0.20

    def test_empty_pattern_rejected(self):
        empty = pattern_from_arrays(np.zeros((0, 2)), np.zeros(0), window=UNIT)
        with pytest.raises(ValueError):
            k_stationary(empty)

    def test_mark_sets_on_unmarked_pattern_rejected(self, small_labelled):
        ground = project_ground(small_labelled)
        for C, D in ((LabelSet([1]), None), (None, LabelSet([2]))):
            with pytest.raises(ValueError, match="mark sets supplied for an unmarked"):
                k_stationary(ground, C, D, R_GRID, T_GRID)


class TestSmoothed:
    def builder(self, q, retention):
        return weights_from_function(
            q, marked_fn=lambda x, t, m: np.full(t.shape, 10.0)
        )

    def test_near_unit_retention_matches_unsmoothed(self, small_marked):
        p = small_marked
        smoothed = k_smoothed(
            p, C_HALF, D_HALF, R_GRID, T_GRID, self.builder,
            retention=1.0 - 1e-9, n=1, scenario="S2", seed=0,
        )
        w = self.builder(p, 1.0)
        plain = k_inhom(p, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S2")
        assert smoothed.meta["degenerate_thinnings"] == 0
        assert np.allclose(smoothed.values, plain.values, rtol=1e-12)

    def test_seed_determinism_and_thread_identity(self, small_marked):
        p = small_marked
        kw = dict(r_grid=R_GRID, t_grid=T_GRID, weights_builder=self.builder,
                  retention=0.6, n=8, scenario="S2", seed=42)
        a = k_smoothed(p, C_HALF, D_HALF, **kw)
        b = k_smoothed(p, C_HALF, D_HALF, **kw)
        c = k_smoothed(p, C_HALF, D_HALF, threads=2, **kw)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)
        assert a.meta["spread"].shape == a.values.shape

    def test_degenerate_thinnings_counted(self):
        marks = np.ones(20)
        marks[7] = 2.0
        base = uniform_pattern(20, seed=73, marks=None)
        p = base.with_marks(marks, LabelMarks(k=2))
        rare = LabelSet([2])
        surf = k_smoothed(
            p, rare, rare, R_GRID, T_GRID, self.builder,
            retention=0.3, n=15, scenario="S2", seed=1,
        )
        assert surf.meta["degenerate_thinnings"] >= 1
        assert surf.meta["n_thinnings"] == 15

    @pytest.mark.parametrize("threads", [1, 2])
    def test_floor_hits_add_every_thinnings_weights(self, threads):
        # each built Weights reports 7 floor hits; the rare label leaves some
        # thinnings without C- or D-points, and those build no weights
        marks = np.ones(20)
        marks[7] = 2.0
        base = uniform_pattern(20, seed=73, marks=None)
        p = base.with_marks(marks, LabelMarks(k=2))
        rare = LabelSet([2])

        def builder(q, retention):
            return Weights(lam=np.full(q.n, 10.0), floor_hits=7)

        surf = k_smoothed(p, rare, rare, R_GRID, T_GRID, builder, retention=0.3, n=15,
                          scenario="S2", seed=1, threads=threads)
        degenerate = surf.meta["degenerate_thinnings"]
        assert 1 <= degenerate < 15
        assert surf.meta["floor_hits"] == 7 * (15 - degenerate)

    def test_validation(self, small_marked):
        with pytest.raises(ValueError, match="retention"):
            k_smoothed(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                       self.builder, retention=1.0)
        with pytest.raises(ValueError, match="weights_builder"):
            k_smoothed(small_marked, C_HALF, D_HALF, R_GRID, T_GRID, None)
        with pytest.raises(ValueError, match="thinning"):
            k_smoothed(small_marked, C_HALF, D_HALF, R_GRID, T_GRID,
                       self.builder, n=0)


class TestSurfaces:
    def test_poisson_reference_values(self):
        surf = poisson_reference(np.array([1.0]), np.array([1.0]), 1)
        assert surf.values[0, 0] == pytest.approx(4.0)
        surf2 = poisson_reference(np.array([0.2]), np.array([0.3]), 2)
        assert surf2.values[0, 0] == pytest.approx(2.0 * 0.3 * math.pi * 0.04)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cylinder_benchmarks_keep_the_bits_of_the_element_formula(self, d):
        # 2 t r^d omega_d per cell, and the outer product the benchmark was
        # once formed by: the same bits, since IEEE products commute
        rng = np.random.default_rng(40 + d)
        omega = unit_ball_volume(d)

        def formulas(r, t):
            return (2.0 * t[None, :] * r[:, None] ** d * omega,
                    np.outer(r**d, 2.0 * t) * omega)

        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            r, t = (np.sort(rng.random(rng.integers(1, 9))) * scale for axis in "rt")
            for want in formulas(r, t):
                assert np.array_equal(poisson_reference(r, t, d).values, want)
        window = Window(spatial=((0.0, 1.0),) * d, temporal=(0.0, 1.0))
        p = uniform_pattern(30, seed=d, window=window)
        r, t = (np.sort(rng.uniform(0.01, 0.25, 4)) for axis in "rt")
        surf = k_inhom(p, r_grid=r, t_grid=t, weights=Weights(lam=np.full(p.n, 30.0)))
        for want in formulas(r, t):
            assert np.array_equal(surf.poisson_surface(), want)
            assert np.array_equal(surf.diff_poisson(), surf.values - want)

    def test_diff_poisson(self, small_marked):
        w = demo_weights(small_marked)
        surf = k_inhom(small_marked, None, None, R_GRID, T_GRID, w)
        assert np.allclose(surf.diff_poisson(), surf.values - surf.poisson_surface())

    def test_csv_round_trip(self, small_marked, tmp_path):
        w = demo_weights(small_marked)
        surf = k_inhom(small_marked, C_HALF, D_HALF, R_GRID, T_GRID, w)
        path = tmp_path / "surface.csv"
        surf.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "t", "k_hat", "k_poisson", "diff"]
        assert len(rows) == 1 + R_GRID.size * T_GRID.size
        back = np.array([float(v[2]) for v in rows[1:]]).reshape(surf.values.shape)
        assert np.array_equal(back, surf.values)

    def test_meta_json(self, small_marked, tmp_path):
        w = demo_weights(small_marked)
        surf = k_inhom(small_marked, C_HALF, D_HALF, R_GRID, T_GRID, w, scenario="S2")
        path = tmp_path / "surface.meta.json"
        surf.write_meta(path)
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "S2"
        assert doc["weights_source"] == "TrueIntensity"
        assert doc["meta"]["erosion"] == "per-cell"
        assert doc["r_grid"] == [float(v) for v in R_GRID]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            KSurface(r_grid=np.array([0.1]), t_grid=np.array([0.1]),
                     values=np.zeros((2, 2)), C=None, D=None,
                     scenario="S1", weights_source="x", d=2)
        with pytest.raises(ValueError, match="finite"):
            KSurface(r_grid=np.array([0.1]), t_grid=np.array([0.1]),
                     values=np.array([[np.inf]]), C=None, D=None,
                     scenario="S1", weights_source="x", d=2)

    def test_default_lag_grids_quarter_extents(self):
        box = Window(spatial=((0.0, 2.0), (0.0, 4.0)), temporal=(0.0, 8.0))
        r_grid, t_grid = default_lag_grids(box)
        assert r_grid.size == t_grid.size == 20
        assert r_grid[-1] == pytest.approx(0.5)
        assert t_grid[-1] == pytest.approx(2.0)
        assert r_grid[0] == pytest.approx(0.5 / 20)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, "3", None])
    def test_default_lag_grids_reject_bad_counts(self, n):
        # 0 and -1 gave empty grids, and 2.5 gave r lags 0.1, 0.2, 0.3 on the
        # unit window, beyond its quarter extent
        with pytest.raises(ValueError, match="lag cell"):
            default_lag_grids(UNIT, n)

    @pytest.mark.parametrize("n", [1, 3, np.int64(5)])
    def test_default_lag_grids_take_whole_counts(self, n):
        r_grid, t_grid = default_lag_grids(UNIT, n)
        assert r_grid.size == t_grid.size == n
        assert r_grid[-1] == t_grid[-1] == 0.25
