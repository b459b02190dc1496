"""The pruned nearest-generator searches against the brute reference.

``_nearest`` searches each Z-order tile of scattered query rows, and
``_sweep`` each box of a grid's lattice, among the generators that the
tile's or box's bounding box cannot rule out. Their labels must equal the
brute search's (every query against every generator, first-occurrence
argmin) exactly, ties to the lowest generator index included, for every
metric form the estimators use: the ground sup metric, the marked metric
with the mark joined by max (continuous marks) or added (labels), the
spatial-only metric, and the time-mark metric under max, add and the
Euclidean plane metric. The sweep must also give the brute sweep's blocks:
one of every node without a mark axis, else ``chunk`` nodes in mesh order
for each mark node, chunks outer.

Two cuts are exercised on purpose: the sweep drops, per mark node, the
generators whose mark term alone rules them out (a mark axis far wider
than the generators' marks, a label no generator carries), and a tile or
box with a single candidate takes it without a distance (a few far-apart
generators).

Each box keeps one candidate list (``_candidates``): its count and its
generators in increasing index order. The sweep bounds every block once,
before any distance, and returns the mask of the generators in no box's
candidate list. That mask must rule out only generators that the brute
sweep gives no node, and a build whose attempts it proves hopeless must
fail, with the same error, without computing a distance.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from mstpp import intensity
from mstpp.intensity import (
    Quadrature,
    QuadratureError,
    VoronoiEstimate,
    _cell_measures,
    _nearest,
    _sweep,
    voronoi_ground,
    voronoi_marked,
    voronoi_separable,
)
from mstpp.pattern import ContinuousMarks, pattern_from_arrays, save_catalog

from .conftest import UNIT
from .oracles import mesh, nearest_oracle, sweep_oracle
from .test_intensity_golden import patterns

# name -> (coordinate groups, mark join)
METRICS = {
    "ground-sup-1d": ((1, 1), None),
    "ground-sup": ((2, 1), None),
    "ground-sup-3d": ((3, 1), None),
    "marked-max-1d": ((1, 1), "max"),
    "marked-max": ((2, 1), "max"),
    "marked-max-3d": ((3, 1), "max"),
    "marked-add-1d": ((1, 1), "add"),
    "marked-add": ((2, 1), "add"),
    "marked-add-3d": ((3, 1), "add"),
    "spatial-1d": ((1,), None),
    "spatial": ((2,), None),
    "spatial-3d": ((3,), None),
    "timemark-max": ((1,), "max"),
    "timemark-add": ((1,), "add"),
    "timemark-euclidean": ((2,), None),
}
PATTERNS = ("random", "lattice", "coincident", "one-generator", "equal-queries", "far-apart")
CHUNKS = (1, 37, Quadrature().chunk)
LABELS = np.array([1.0, 2.0, 3.0])


def _marks(join, rng, n):
    if join == "add":
        return rng.choice(LABELS, size=n)
    return rng.random(n)


def _case(pattern, metric, seed=7):
    """(generators, queries, mark axis or None): the mark, if the metric
    has one, is the last column of both arrays; the mark axis is a few mark
    nodes with their weights, for a sweep over the queries' leading
    columns."""
    groups, join = metric
    ncol = sum(groups)
    rng = np.random.default_rng(seed)
    if pattern == "lattice":
        # generators on lattice nodes; queries on the nodes and on the
        # midpoints between them, where generators tie exactly
        space_g, space_q = (0.25, 0.75), (0.25, 0.5, 0.75)
        mark_g, mark_q = ((1.0, 2.0), (1.0, 2.0, 3.0)) if join == "add" else (space_g, space_q)
        cols_g = [space_g] * ncol + ([mark_g] if join else [])
        cols_q = [space_q] * ncol + ([mark_q] if join else [])
        gens = np.array(list(itertools.product(*cols_g)))
        queries = np.array(list(itertools.product(*cols_q)))
    elif pattern == "far-apart":
        # generators near corners of the unit box, each with a small cluster
        # of one tile's worth of queries (with its mark), so the tiles of a
        # full chunk keep one candidate each
        corners = np.array(list(itertools.product((0.05, 0.95), repeat=ncol))[:6])
        gens = corners + 0.01 * rng.random(corners.shape)
        if join:
            gens = np.column_stack([gens, _marks(join, rng, gens.shape[0])])
        queries = np.repeat(gens, 64, axis=0)
        queries[:, :ncol] += 0.1 * rng.random((queries.shape[0], ncol))
    else:
        n = {"one-generator": 1, "coincident": 10}.get(pattern, 30)
        gens = rng.random((n, ncol))
        if pattern == "coincident":
            # each location three times: distinct marks, or exact copies
            gens = np.tile(gens, (3, 1))
        if join:
            gens = np.column_stack([gens, _marks(join, rng, gens.shape[0])])
        queries = rng.random((200, ncol))
        if join:
            queries = np.column_stack([queries, _marks(join, rng, 200)])
        if pattern == "equal-queries":
            queries = np.repeat(gens[3:4], 50, axis=0)
    mark_axis = None
    if join:
        z = LABELS if join == "add" else np.linspace(0.0, 1.0, 5)
        mark_axis = (z, np.linspace(0.5, 1.5, z.size))
    return gens, queries, mark_axis


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("name", METRICS)
def test_pruned_search_matches_brute(name, pattern, chunk):
    metric = METRICS[name]
    gens, queries, mark_axis = _case(pattern, metric)
    want = nearest_oracle(metric, queries, gens, chunk)
    got = _nearest(metric, queries, gens, chunk)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _spy_candidates(monkeypatch):
    """Record, for each call of ``_candidate_labels``, how many candidates
    each of its tiles or boxes kept."""
    calls, real = [], intensity._candidate_labels

    def spy(counts, cands, dist, pos, out):
        calls.append(counts)
        return real(counts, cands, dist, pos, out)

    monkeypatch.setattr(intensity, "_candidate_labels", spy)
    return calls


def _spy_columns(monkeypatch):
    """Record, for each call of ``_candidates``, how many generators it
    bounds."""
    calls, real = [], intensity._candidates

    def spy(lb, ub, ids=None):
        calls.append(lb.shape[1])
        return real(lb, ub, ids)

    monkeypatch.setattr(intensity, "_candidates", spy)
    return calls


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (256, np.uint8), (300, np.uint16)])
@pytest.mark.parametrize("seed", range(4))
def test_candidates_list_each_box_once(seed, n, dtype):
    """Each box's list is exactly the generators whose lower bound is <= its
    smallest upper bound, in increasing index order, and always holds the
    generator of that upper bound (the lowest index among ties). Bounds on
    a few integer levels force ties, both among the upper bounds and
    between a lower bound and the smallest upper bound."""
    rng = np.random.default_rng(seed)
    lb = rng.integers(0, 6, (50, n)).astype(float)
    ub = lb + rng.integers(0, 3, (50, n))
    # the columns standing for n of 2n generators, as after a mark node's cut
    ids = np.sort(rng.choice(2 * n, n, replace=False)).astype(np.min_scalar_type(2 * n - 1))
    low = ub.min(axis=1)
    if n > 1:
        assert np.any(np.sum(ub == low[:, None], axis=1) > 1)
        assert np.any((lb == low[:, None]) & (ub > low[:, None]))
    for cols, names in ((None, np.arange(n)), (ids, ids)):
        counts, cands = intensity._candidates(lb, ub, cols)
        assert cands.dtype == (dtype if cols is None else ids.dtype)
        assert counts.sum() == cands.size
        lists = np.split(cands, np.cumsum(counts)[:-1])
        for b, got in enumerate(lists):
            assert got.tolist() == names[lb[b] <= low[b]].tolist()
            assert names[ub[b].argmin()] in got


@pytest.mark.parametrize("name", METRICS)
def test_far_apart_tiles_keep_one_candidate(monkeypatch, name):
    """The far-apart case reaches the single-candidate tiles: every tile of
    a full chunk keeps one candidate."""
    calls = _spy_candidates(monkeypatch)
    gens, queries, _ = _case("far-apart", METRICS[name])
    _nearest(METRICS[name], queries, gens, Quadrature().chunk)
    assert np.all(np.concatenate(calls) == 1)


# mark-axis cases: (generator marks, mark axis, space scale).
# "wide" puts mark nodes over [-8, 8] around marks in [0, 1]; "unused-label"
# sweeps labels 1-4 over generators that carry only 1 and 2, in a space
# small enough that a label difference outweighs any space distance
MARK_AXES = {
    "wide": (lambda rng, n: rng.random(n), np.linspace(-8.0, 8.0, 17), 1.0),
    "unused-label": (lambda rng, n: rng.choice([1.0, 2.0], size=n),
                     np.array([1.0, 2.0, 3.0, 4.0]), 0.2),
}


def _grid_mark(metric):
    """Whether a grid carries the metric's mark as its last lattice axis, as
    the time-mark grid does (a mark joined after a single group), rather
    than as a mark axis swept node by node."""
    groups, join = metric
    return join is not None and len(groups) == 1


def _sweeps_match(metric, gens, grid, chunk):
    want = [(lab.tolist(), w) for lab, w in sweep_oracle(metric, gens, grid, chunk)]
    got = [(lab.tolist(), w) for lab, w in _sweep(metric, gens, grid, chunk)[1]]
    return got == want


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name, axis", [
    (name, "unused-label" if join == "add" else "wide")
    for name, (_, join) in METRICS.items() if join is not None
])
def test_sweep_drops_far_mark_nodes_exactly(monkeypatch, name, axis, chunk):
    metric = METRICS[name]
    draw, z, scale = MARK_AXES[axis]
    rng = np.random.default_rng(11)
    ncol = sum(metric[0])
    gens = np.column_stack([scale * rng.random((30, ncol)), draw(rng, 30)])
    axes = [scale * np.sort(rng.random(round(150 ** (1 / ncol)))) for _ in range(ncol)]
    grid = (axes, 1.0, (z, np.linspace(0.5, 1.5, z.size)))
    want = [(lab.tolist(), w) for lab, w in sweep_oracle(metric, gens, grid, chunk)]
    calls = _spy_columns(monkeypatch)
    assert [(lab.tolist(), w) for lab, w in _sweep(metric, gens, grid, chunk)[1]] == want
    assert min(calls) < gens.shape[0]
    nodes = mesh(axes)
    queries = np.column_stack([np.repeat(nodes, z.size, axis=0), np.tile(z, nodes.shape[0])])
    assert np.array_equal(_nearest(metric, queries, gens, chunk),
                          nearest_oracle(metric, queries, gens, chunk))


# lattice axis lengths, and nodes per box: the library's, and 8, which
# cuts even these small lattices into several boxes along every axis (8
# nodes long on a 1-d lattice, 3 x 3 on a 2-d one, 2 x 2 x 2 on a 3-d one),
# the last one ragged
LENGTHS = (1, 2, 5, 7, 13)
BOXES = (8, intensity._BOX)
LATTICE_CASES = ("lattice-tie", "coincident", "far-apart")


def _lattice_case(case, metric, length, seed=7):
    """(generators, grid) for a sweep over a lattice of ``length`` nodes per
    axis, 11 times as many on a 1-d lattice and at most 5 past the first
    two axes of a 4-d one. The mark, when the
    metric has one, is the grid's last lattice axis or a swept mark axis
    (``_grid_mark``), in either case unsorted, in the first-occurrence
    order of empirical atoms. "random" draws the generators, "lattice-tie"
    puts them on lattice nodes where the grid's midpoints tie, "coincident"
    repeats each location three times and "far-apart" puts one generator
    near each of a few corners of the unit box, with the marks far apart
    too, on a sorted mark axis."""
    groups, join = metric
    ncol = sum(groups)
    rng = np.random.default_rng(seed)
    on_grid = _grid_mark(metric)
    c = ncol + on_grid
    shape = [11 * length] if c == 1 else [length if k < 2 else min(length, 5) for k in range(c)]
    if case == "lattice-tie":
        axes = [(np.arange(m) + 0.5) / m for m in shape[:ncol]]
        gens = np.array(list(itertools.product(*[(0.25, 0.75)] * ncol)))
    elif case == "far-apart":
        axes = [np.linspace(0.0, 1.0, m) for m in shape[:ncol]]
        gens = np.array(list(itertools.product((0.05, 0.95), repeat=ncol))[:6])
    else:
        axes = [np.sort(rng.random(m)) for m in shape[:ncol]]
        gens = rng.random((10 if case == "coincident" else 20, ncol))
        if case == "coincident":
            gens = np.tile(gens, (3, 1))
    if join is None:
        return gens, (axes, 1.0, None)
    labels = join == "add"
    n_mark = shape[-1] if on_grid else (3 if labels else 5)
    z = np.arange(1.0, n_mark + 1) if labels else np.linspace(0.0, 1.0, n_mark)
    if case != "far-apart":
        z = rng.permutation(z)
    if case == "far-apart":
        gm = np.resize([z[0], z[-1]], gens.shape[0])
        gens = np.column_stack([gens, gm])
    elif case == "lattice-tie" and not labels:
        gm = np.tile([0.25, 0.75], (gens.shape[0], 1))
        gens = np.column_stack([np.repeat(gens, 2, axis=0), gm.ravel()])
    else:
        gm = rng.choice(np.arange(1.0, n_mark + 1), gens.shape[0]) if labels else rng.random(gens.shape[0])
        gens = np.column_stack([gens, gm])
    if on_grid:
        return gens, (axes + [z], 1.0, None)
    return gens, (axes, 1.0, (z, np.linspace(0.5, 1.5, z.size)))


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", METRICS)
def test_lattice_sweep_matches_brute(monkeypatch, name, length, chunk, box):
    monkeypatch.setattr(intensity, "_BOX", box)
    metric = METRICS[name]
    gens, grid = _lattice_case("random", metric, length)
    assert _sweeps_match(metric, gens, grid, chunk)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", LATTICE_CASES)
@pytest.mark.parametrize("name", METRICS)
def test_lattice_sweep_cases_match_brute(monkeypatch, name, case, chunk, box):
    monkeypatch.setattr(intensity, "_BOX", box)
    metric = METRICS[name]
    gens, grid = _lattice_case(case, metric, 13)
    assert _sweeps_match(metric, gens, grid, chunk)


@pytest.mark.parametrize("name", METRICS)
def test_single_box_blocks_and_batches_match_brute(monkeypatch, name):
    """One box per block of bounds and per batch of distances: the lattice
    is cut along every axis, and its slabs end inside chunks."""
    monkeypatch.setattr(intensity, "_BOX", 8)
    monkeypatch.setattr(intensity, "_BOUNDS", 1)
    monkeypatch.setattr(intensity, "_BATCH", 1)
    metric = METRICS[name]
    gens, grid = _lattice_case("random", metric, 13)
    assert _sweeps_match(metric, gens, grid, 37)


@pytest.mark.parametrize("name", METRICS)
def test_far_apart_boxes_keep_one_candidate(monkeypatch, name):
    """The far-apart lattice reaches the single-candidate boxes."""
    monkeypatch.setattr(intensity, "_BOX", 8)
    metric = METRICS[name]
    gens, grid = _lattice_case("far-apart", metric, 13)
    calls = _spy_candidates(monkeypatch)
    for _ in _sweep(metric, gens, grid, Quadrature().chunk)[1]:
        pass
    assert np.any(np.concatenate(calls) == 1)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("case, length",
                         [("random", n) for n in LENGTHS] + [(c, 13) for c in LATTICE_CASES])
@pytest.mark.parametrize("name", METRICS)
def test_bounds_pass_rules_out_only_empty_cells(monkeypatch, name, case, length, box):
    """Every generator that the sweep's mask rules out (a candidate of no
    box) has measure 0 in the brute sweep."""
    monkeypatch.setattr(intensity, "_BOX", box)
    metric = METRICS[name]
    gens, grid = _lattice_case(case, metric, length)
    measures = np.zeros(gens.shape[0])
    for labels, w in sweep_oracle(metric, gens, grid, Quadrature().chunk):
        measures += np.bincount(labels, minlength=gens.shape[0]) * w
    assert np.all(measures[_sweep(metric, gens, grid, Quadrature().chunk)[0]] == 0)


@pytest.mark.parametrize("name", ["ground-sup", "spatial", "marked-max", "marked-add",
                                  "timemark-max"])
def test_bounds_pass_rules_out_generators(name):
    """The soundness cases reach ruled-out generators without a mark axis,
    with a swept one (max and add) and with the mark on the lattice."""
    gens, grid = _lattice_case("random", METRICS[name], 2)
    assert np.any(_sweep(METRICS[name], gens, grid, Quadrature().chunk)[0])


def _narrow_band(n=40, seed=5):
    """Marks in a narrow band, [3.75, 4.25], inside a wide interval mark
    space, [0, 8], as lgcp-geostat's are: no mark node of 4 or 8 falls in
    the band, so few generators win a node."""
    rng = np.random.default_rng(seed)
    return pattern_from_arrays(rng.random((n, 2)), rng.random(n), 3.75 + 0.5 * rng.random(n),
                               UNIT, ContinuousMarks(0.0, 8.0))


def _spy_bounds(monkeypatch):
    """Record every ``_Lattice.bounds`` call as (lattice, block ranges)."""
    calls, real = [], intensity._Lattice.bounds

    def spy(lat, ranges):
        calls.append((lat, ranges))
        return real(lat, ranges)

    monkeypatch.setattr(intensity._Lattice, "bounds", spy)
    return calls


def test_hopeless_refined_retry_computes_no_distance(monkeypatch):
    p, quad, metric = _narrow_band(), Quadrature(n_space=8, n_time=8, n_mark=4), ((2, 1), "max")
    gens = intensity._group_rows(np.column_stack([p.x, p.t, p.marks]))[0]
    for q in (quad, quad.refined()):
        # the sweep leaves a cell empty at both attempts, and its mask shows it
        unreached, blocks = _sweep(metric, gens, VoronoiEstimate._grid(p, q, 0.5, metric), q.chunk)
        assert np.any(unreached)
        reached = np.zeros(gens.shape[0], dtype=bool)
        for labels, _ in blocks:
            reached[labels] = True
        assert not np.all(reached) and not np.any(reached & unreached)
    calls, blocks = _spy_candidates(monkeypatch), []
    bounds = _spy_bounds(monkeypatch)
    real = intensity._Lattice.block
    monkeypatch.setattr(intensity._Lattice, "block", lambda *a: blocks.append(a) or real(*a))
    with pytest.raises(QuadratureError, match="^empty tessellation cell at refined quadrature$"):
        voronoi_marked(p, quad)
    # both attempts are bounded, and neither labels a box
    assert len({id(lat) for lat, _ in bounds}) == 2
    assert calls == [] and blocks == []
    assert np.all(_cell_measures(metric, gens, VoronoiEstimate._grid(p, quad, 0.5, metric),
                                 quad.chunk) == 0)


def test_hopeless_refined_retry_exits_3(tmp_path):
    save_catalog(_narrow_band(), tmp_path / "band.csv")
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"input = {tmp_path / 'band.csv'}\nwindow = 0,1,0,1,0,1\n"
                   "marks = interval,0,8\nquad_space = 8\nquad_time = 8\nquad_mark = 4\n")
    res = subprocess.run([sys.executable, "-m", "mstpp.cli", "intensity", "--config", str(cfg),
                          "--out", str(tmp_path / "run")], capture_output=True, text=True)
    assert res.returncode == 3
    assert "empty tessellation cell at refined quadrature" in res.stderr


def _refined_golden_builds():
    """The golden builds that succeed only at the refined grid."""
    (close, quad), (stacked, _) = patterns()["refined-space"], patterns()["refined-time"]
    assert voronoi_ground(stacked, quad).refined
    assert voronoi_marked(stacked, quad).refined
    s3 = voronoi_separable(close, "S3", euclidean_tm=True, quadrature=quad)
    assert s3.factors["spatial"].refined and s3.factors["timemark"].refined


def test_golden_refined_builds_pass_the_bounds_pass(monkeypatch):
    """Each refined attempt of the golden builds that succeed only there
    rules out no generator."""
    found, real = [], intensity._sweep

    def spy(metric, gens, grid, chunk):
        unreached, blocks = real(metric, gens, grid, chunk)
        found.append(int(np.count_nonzero(unreached)))
        return unreached, blocks

    monkeypatch.setattr(intensity, "_sweep", spy)
    _refined_golden_builds()
    assert len(found) == 8
    assert found[1::2] == [0, 0, 0, 0]


def test_each_attempt_bounds_each_block_once(monkeypatch):
    """The refined golden builds bound every block of each attempt's
    lattice once, in order, and no other lattice."""
    calls = _spy_bounds(monkeypatch)
    _refined_golden_builds()
    lattices = list({id(lat): lat for lat, _ in calls}.values())
    assert len(lattices) == 8
    for lat in lattices:
        assert [r for seen, r in calls if seen is lat] == list(lat.blocks())


@pytest.mark.parametrize("counts, limit", [
    ([1], 1), ([5], 2), ([3, 4], 5), ([3, 4], 4), ([3, 4], 3), ([2, 3, 4], 5), ([2, 3, 4], 100),
])
def test_blocks_cover_every_box_once_in_order(counts, limit):
    blocks = list(intensity._blocks(counts, limit))
    boxes = [b for block in blocks for b in itertools.product(*block)]
    assert boxes == list(itertools.product(*(range(c) for c in counts)))
    assert all(np.prod([len(r) for r in block]) <= limit or
               all(len(r) == 1 for r in block) for block in blocks)


def test_lattice_cases_contain_ties():
    """The lattice cases would not test the tie-break without equidistant
    generators."""
    gens, queries, _ = _case("lattice", METRICS["spatial"])
    gens_l, (axes, _, _) = _lattice_case("lattice-tie", METRICS["spatial"], 13)
    for g, q in ((gens, queries), (gens_l, mesh(axes))):
        d = np.sum((q[:, None, :] - g[None, :, :]) ** 2, axis=2)
        assert np.any(np.sum(d == d.min(axis=1, keepdims=True), axis=1) > 1)


# (metric, query, generators, expected label): the query lies between two
# generators, and the competing generator sits just inside or just outside
# the first one's distance, where another metric form would pick the other
HAND_CASES = {
    # sup of the Euclidean spatial distance 5 (3-4-5) and the time lag 2
    "space-dominates-near": ("ground-sup", (0, 0, 0), [(3, 4, 2), (0, 0, 4.9)], 1),
    "space-dominates-far": ("ground-sup", (0, 0, 0), [(3, 4, 2), (0, 0, 5.1)], 0),
    # sup of the spatial distance 0.1 and the time lag 0.7 (not their
    # Euclidean norm 0.707)
    "time-dominates-near": ("ground-sup", (0, 0, 0), [(0.1, 0, 0.7), (0.695, 0, 0)], 1),
    "time-dominates-far": ("ground-sup", (0, 0, 0), [(0.1, 0, 0.7), (0.705, 0, 0)], 0),
    # max of the space-time distance 0.3 and the mark difference 0.5
    "marks-max-near": ("marked-max", (0, 0, 0, 0.2), [(0.3, 0, 0, 0.7), (0.45, 0, 0, 0.2)], 1),
    "marks-max-far": ("marked-max", (0, 0, 0, 0.2), [(0.3, 0, 0, 0.7), (0.55, 0, 0, 0.2)], 0),
    # the same label adds nothing to the space-time distance 0.3
    "labels-same-near": ("marked-add", (0, 0, 0, 1), [(0.3, 0, 0, 1), (0, 0, 0.29, 1)], 1),
    "labels-same-far": ("marked-add", (0, 0, 0, 1), [(0.3, 0, 0, 1), (0, 0, 0.31, 1)], 0),
    "labels-same-vs-other": ("marked-add", (0, 0, 0, 1), [(0.3, 0, 0, 1), (0.25, 0, 0, 2)], 0),
    # labels 1 and 2 add 1 to the space-time distance 0.3
    "labels-differ-near": ("marked-add", (0, 0, 0, 1), [(0.3, 0, 0, 2), (1.25, 0, 0, 1)], 1),
    "labels-differ-far": ("marked-add", (0, 0, 0, 1), [(0.3, 0, 0, 2), (1.35, 0, 0, 1)], 0),
}


@pytest.mark.parametrize("case", HAND_CASES)
def test_metric_hand_cases(case):
    name, query, gens, want = HAND_CASES[case]
    queries, gens = np.array([query], dtype=float), np.array(gens, dtype=float)
    assert _nearest(METRICS[name], queries, gens, Quadrature().chunk).tolist() == [want]
