"""The pruned nearest-generator search against the brute reference.

``_nearest`` and ``_sweep`` search each tile of query rows among the
generators that its bounding box cannot rule out. Their labels must equal
the brute search's (every query against every generator, first-occurrence
argmin) exactly, ties to the lowest generator index included, for every
metric form the estimators use: the ground sup metric, the marked metric
with the mark joined by max (continuous marks) or added (labels), the
spatial-only metric, and the time-mark metric under max, add and the
Euclidean plane metric.

Two cuts are exercised on purpose: the sweep drops, per mark node, the
generators whose mark term alone rules them out (a mark axis far wider
than the generators' marks, a label no generator carries), and a tile with
a single candidate takes it without a distance (a few far-apart
generators).
"""

import itertools

import numpy as np
import pytest

from mstpp import intensity
from mstpp.intensity import Quadrature, _nearest, _sweep

from .oracles import nearest_oracle, sweep_oracle

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
    nodes = queries if mark_axis is None else queries[:, :-1]
    grid = (nodes, 1.0, mark_axis)
    blocks = [(lab.tolist(), w) for lab, w in _sweep(metric, gens, grid, chunk)]
    assert blocks == [(lab.tolist(), w) for lab, w in sweep_oracle(metric, gens, grid, chunk)]


def _spy_tile_labels(monkeypatch):
    """Record, for each call of ``_tile_labels``, how many generators it
    was given and how many candidates each of its tiles kept."""
    calls, real = [], intensity._tile_labels

    def spy(metric, tiles, gt, lb, ub, z=None):
        counts = np.count_nonzero(lb <= ub.min(axis=1, keepdims=True), axis=1)
        calls.append((gt.shape[1], counts))
        return real(metric, tiles, gt, lb, ub, z)

    monkeypatch.setattr(intensity, "_tile_labels", spy)
    return calls


@pytest.mark.parametrize("name", METRICS)
def test_far_apart_tiles_keep_one_candidate(monkeypatch, name):
    """The far-apart case reaches the single-candidate tiles: every tile of
    a full chunk keeps one candidate."""
    calls = _spy_tile_labels(monkeypatch)
    gens, queries, _ = _case("far-apart", METRICS[name])
    _nearest(METRICS[name], queries, gens, Quadrature().chunk)
    counts = np.concatenate([c for _, c in calls])
    assert np.all(counts == 1)


# mark-axis cases: (generator marks, mark axis, space scale).
# "wide" puts mark nodes over [-8, 8] around marks in [0, 1]; "unused-label"
# sweeps labels 1-4 over generators that carry only 1 and 2, in a space
# small enough that a label difference outweighs any space distance
MARK_AXES = {
    "wide": (lambda rng, n: rng.random(n), np.linspace(-8.0, 8.0, 17), 1.0),
    "unused-label": (lambda rng, n: rng.choice([1.0, 2.0], size=n),
                     np.array([1.0, 2.0, 3.0, 4.0]), 0.2),
}


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
    nodes = scale * rng.random((150, ncol))
    grid = (nodes, 1.0, (z, np.linspace(0.5, 1.5, z.size)))
    want = [(lab.tolist(), w) for lab, w in sweep_oracle(metric, gens, grid, chunk)]
    calls = _spy_tile_labels(monkeypatch)
    assert [(lab.tolist(), w) for lab, w in _sweep(metric, gens, grid, chunk)] == want
    assert min(n for n, _ in calls) < gens.shape[0]
    queries = np.column_stack([np.repeat(nodes, z.size, axis=0), np.tile(z, nodes.shape[0])])
    assert np.array_equal(_nearest(metric, queries, gens, chunk),
                          nearest_oracle(metric, queries, gens, chunk))


def test_lattice_cases_contain_ties():
    """The lattice case would not test the tie-break without equidistant
    generators."""
    gens, queries, _ = _case("lattice", METRICS["spatial"])
    d = np.sum((queries[:, None, :] - gens[None, :, :]) ** 2, axis=2)
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
