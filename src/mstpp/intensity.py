"""
Adaptive Voronoi intensity estimation on the space-time(-mark) domain.

Cell measures are computed by regular-grid (midpoint) quadrature: every
quadrature node is assigned to its nearest generator under the relevant
metric and the node's volume element accrues to that generator's cell.
Ties at equidistant nodes go to the lowest generator index. Exact cell
geometry is never computed; the quadrature resolution is the error knob
and is fully caller-configurable.

One metric rule covers every tessellation: the distance is the maximum,
over groups of coordinates, of the Euclidean distance within each group
(space and time for the space-time sup metric; a single group for the
spatial factor and for the Euclidean time-mark variant). A mark joins it
by that same maximum for continuous marks and is added to it for labels
(the additive metric). One chunked nearest-generator search evaluates the
metric, and one sweep over the quadrature nodes (times the mark axis, if
the tessellation has one) serves both the build, which bins the node
volumes into cells, and the mass audit, which sums the estimate over the
same grid shifted by ``AUDIT_OFFSET``.

The search is exact but pruned. Each chunk of query rows is cut into small
tiles of nearby rows (Z-order over the chunk's bounding box). For every
generator, the metric is bounded from below at the tile box's nearest
point (each coordinate clamped to the box) and from above at its farthest
corner, with the same per-group sums, maximum and mark join as the
metric itself. Only generators whose lower bound is <= the smallest upper
bound are searched, in increasing index order, by the same first-
occurrence argmin as a search over all generators. This is exact in
floating point, not only in exact arithmetic: subtraction, squaring,
summation, maximum, square root and addition are all monotone under
rounding, so the computed distance from any row of the tile to a
generator lies between that generator's computed bounds. A generator
left out therefore lies strictly farther from every row than the
generator with the smallest upper bound, so it can neither be the nearest
nor tie with it. The distances that are computed are the same operations
on the same operands as in a full search, labels are written back in node
order, and every reduction adds in node order, so results are
bit-identical to comparing every node with every generator. Under a mark
axis each chunk is tiled and its space part bounded once; each mark node
then only joins its mark distance to those bounds.

Two more cuts are exact for the same reasons. First, a mark node of a sweep
bounds only the generators whose mark term alone (the squared mark
difference under max, the difference under addition) is at most ``cut``:
the largest, over the chunk's tiles, of the joined upper bound of the
generator nearest in mark (the lowest index among ties). The space part is
>= 0 and joining is monotone, so a generator left out has a joined lower
bound above ``cut``, hence above every tile's smallest upper bound; that
smallest upper bound is at least its own generator's mark term, so it is
reached among the generators kept, which stay in index order. Candidates,
their order and the argmin are unchanged. When every generator is kept,
as for most label axes and for mark nodes among the observed marks, no
copy is made. Second, a
tile with a single candidate takes it as every row's label without
computing a distance: the generator of the smallest upper bound is always
a candidate, so a sole candidate is that nearest generator.

Estimator variants
------------------
voronoi_ground
    Space-time tessellation under the sup metric; cell measures are
    space-time Lebesgue.
voronoi_marked
    Space-time-mark tessellation under the full marked metric (max
    combination for continuous marks, additive for labels); cell measures
    under Lebesgue x reference-measure.
voronoi_separable
    The three simplified setups: S1 (separable, common mark distribution)
    multiplies spatial, temporal, and mark factors; S2 (non-separable,
    common mark distribution) multiplies a mark factor with the ground
    estimator; S3 (separable, time-mark dependence) multiplies a spatial
    factor with a joint time-mark tessellation, optionally under the
    Euclidean plane metric instead of the max metric.

Every estimator satisfies mass preservation (integral over the domain
equals the point count, up to quadrature error) and the reciprocal-sum
identity: the sum of 1/est over the pattern's own points equals the total
reference measure of the domain, exactly under the built quadrature.
"""

from dataclasses import dataclass, fields

import numpy as np

from .pattern import MarkedPattern

__all__ = [
    "Quadrature",
    "QuadratureError",
    "VoronoiEstimate",
    "SeparableIntensity",
    "voronoi_ground",
    "voronoi_marked",
    "voronoi_separable",
    "estimate_mass",
]

INTENSITY_FLOOR = 1e-12
# offset fraction for the independent mass-audit grid (any fixed value
# away from the build grid's 0.5 works; this one is (3 - sqrt(5))/2)
AUDIT_OFFSET = 0.3819660112501051
# query rows per tile of the pruned nearest-generator search
_TILE = 64


class QuadratureError(RuntimeError):
    """A tessellation cell received no quadrature nodes even after refining."""


@dataclass(frozen=True)
class Quadrature:
    """Quadrature resolutions per tessellation role.

    Attributes
    ----------
    n_space, n_time : int
        Nodes per spatial axis / on the time axis for space-time
        tessellations (ground and full marked).
    n_mark : int
        Mark-axis nodes for the full marked tessellation (continuous
        marks; label spaces and empirical references enumerate their
        atoms exactly instead).
    n_space_only : int
        Nodes per axis for spatial-only tessellations (separable spatial
        factor), which can afford to be much finer.
    n_time_tm, n_mark_tm : int
        Axis resolutions for the joint time-mark tessellation of setup S3.
    chunk : int
        Nodes per processing chunk (memory knob, no effect on results).

    Every field must be a positive integer (ValueError otherwise).
    """

    n_space: int = 56
    n_time: int = 56
    n_mark: int = 14
    n_space_only: int = 192
    n_time_tm: int = 128
    n_mark_tm: int = 128
    chunk: int = 8192

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"quadrature {f.name} must be a positive integer, got {v!r}")

    def refined(self):
        return Quadrature(
            n_space=self.n_space * 2,
            n_time=self.n_time * 2,
            n_mark=self.n_mark * 2,
            n_space_only=self.n_space_only * 2,
            n_time_tm=self.n_time_tm * 2,
            n_mark_tm=self.n_mark_tm * 2,
            chunk=self.chunk,
        )


def _axis_nodes(lo, hi, n, offset=0.5):
    step = (hi - lo) / n
    return lo + (np.arange(n) + offset) * step


def _space_axes(window, n, offset):
    lo, hi = window.spatial_bounds()
    return [_axis_nodes(lo[i], hi[i], n, offset) for i in range(window.dim)]


def _mesh(axes):
    """Every node of the product of 1-d node arrays, one row each."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def _group_rows(rows):
    """Distinct rows in first-occurrence order, their multiplicities, and
    each input row's group index. First-occurrence order makes argmin
    tie-breaks resolve to the lowest original point index."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    uniq, first, inverse, counts = np.unique(
        rows, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], counts[order], rank[np.asarray(inverse).ravel()]


def _mark_axis(mark_space, marks, n_mark, offset=0.5):
    """Mark-axis nodes and their reference weights. Continuous Lebesgue /
    normalized references discretize the interval; empirical references and
    label spaces enumerate their atoms exactly."""
    if mark_space.is_labelled:
        nodes = np.arange(1, mark_space.k + 1, dtype=float)
        weights = np.asarray(mark_space.weights, dtype=float)
        return nodes, weights
    if mark_space.reference == "empirical":
        vals, counts, _ = _group_rows(np.asarray(marks, dtype=float)[:, None])
        return vals[:, 0], counts / float(len(marks))
    nodes = _axis_nodes(mark_space.lo, mark_space.hi, n_mark, offset)
    if mark_space.reference == "normalized":
        w = 1.0 / n_mark
    else:
        w = (mark_space.hi - mark_space.lo) / n_mark
    return nodes, np.full(nodes.shape, w)


def _discretized(mark_space):
    """Whether ``_mark_axis`` reads a resolution (continuous Lebesgue or
    normalized references) rather than enumerating atoms."""
    return not mark_space.is_labelled and mark_space.reference != "empirical"


def _checked_coords(x, t):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float).ravel()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("evaluation coordinates must be finite")
    return x, t


def _checked_marks(mark_space, m):
    m = np.asarray(m, dtype=float).ravel()
    if not mark_space.contains_mark(m):
        raise ValueError("evaluation marks must lie in the mark space")
    return m


# --------------------------------------------------------------------------
# the metric, the nearest-generator search and the quadrature sweep
#
# A metric is (groups, join): the sizes of the leading coordinate groups and
# how a trailing mark joins them (None: no mark, "max": continuous marks,
# "add": labels). Distances are compared on squares, except under "add",
# where the space part is rooted first; for a one-coordinate group that root
# is exactly |difference| (a correctly rounded sqrt of a square in binary).
# --------------------------------------------------------------------------


def _mark_join(mark_space):
    return "add" if mark_space.is_labelled else "max"


def _space_time_metric(p, marked):
    return (p.dim, 1), (_mark_join(p.mark_space) if marked else None)


def _space_part(metric, diff):
    """The metric before the mark joins: max over the coordinate groups of
    the squared distance within each, rooted when the mark is added.
    ``diff(k)`` gives the differences in coordinate k; the squares are
    accumulated one coordinate at a time in column order."""
    groups, join = metric
    d2, col = None, 0
    for size in groups:
        sq = diff(col) ** 2
        for k in range(col + 1, col + size):
            sq += diff(k) ** 2
        d2 = sq if d2 is None else np.maximum(d2, sq, out=d2)
        col += size
    return np.sqrt(d2) if join == "add" else d2


def _join_mark(join, part, dm, out=None):
    """Join absolute mark differences ``dm`` to the space part."""
    if join == "add":
        return np.add(part, dm, out=out)
    return np.maximum(part, dm * dm, out=out)


def _tiles(block):
    """``block`` cut into tiles of nearby rows: their positions (B, T) and
    their coordinates, coordinate-major (c, B, T). Rows go in Z-order over
    an 8-bit grid on the block's bounding box, with one scale for every
    coordinate (the metric compares them in their own units); the last
    tile is padded by repeating its final row."""
    n, c = block.shape
    cols = np.ascontiguousarray(block.T)
    lo = cols.min(axis=1)
    span = np.max(cols.max(axis=1) - lo)
    cells = ((cols - lo[:, None]) / (span if span > 0 else 1.0) * 255.0).astype(np.intp)
    v = np.arange(256)
    spread = sum(((v >> b) & 1) << (b * c) for b in range(8))
    order = np.argsort(sum(spread[cells[k]] << k for k in range(c)))
    size = min(_TILE, n)
    pos = np.concatenate([order, np.repeat(order[-1:], -n % size)]).reshape(-1, size)
    return pos, cols[:, pos]


def _box_bounds(metric, tiles, gt):
    """Lower and upper bounds of the metric from each tile's bounding box to
    every generator, (B, n), from the coordinate differences to the box's
    nearest point (each coordinate clamped) and to its farthest corner.
    Rounding is monotone, so they bound every row's computed distance.
    Generators are coordinate-major, ``gt`` (c, n). Without a mark
    coordinate in ``tiles`` the bounds are of the space part."""
    rows = tiles.reshape(-1, tiles.shape[2])  # 2-d: numpy reduces these rows faster
    lo, hi = (a.reshape(tiles.shape[:2]) for a in (rows.min(axis=1), rows.max(axis=1)))
    near, far = [], []
    for k in range(tiles.shape[0]):
        below = gt[k] - lo[k, :, None]
        above = hi[k, :, None] - gt[k]
        far.append(np.maximum(below, above))
        near.append(np.maximum(-np.minimum(below, above), 0.0))
    marked = metric[1] is not None and tiles.shape[0] > sum(metric[0])
    return tuple(
        _join_mark(metric[1], _space_part(metric, b.__getitem__), b[-1]) if marked
        else _space_part(metric, b.__getitem__)
        for b in (near, far)
    )


def _tile_labels(metric, tiles, gt, lb, ub, z=None):
    """Nearest generator of every tile row, searched among the candidates:
    the generators whose lower bound is <= the tile's smallest upper bound,
    in increasing index order, so argmin's first occurrence is the lowest
    index among ties. A tile with one candidate takes it; the others go in
    batches of similar candidate counts, each row padded with its first
    candidate, which a later position never beats. The mark is the last
    coordinate of ``tiles`` or, for a mark node of a sweep, ``z``."""
    keep = lb <= ub.min(axis=1, keepdims=True)
    out = np.empty(tiles.shape[1:], dtype=np.intp)
    counts = np.count_nonzero(keep, axis=1)
    order = np.argsort(counts, kind="stable")
    counts = counts[order]
    # every tile keeps the generator of its smallest upper bound, so the
    # tiles of exactly one candidate come first; that one is their label
    start = np.searchsorted(counts, 1, side="right")
    out[order[:start]] = np.nonzero(keep[order[:start]])[1][:, None]
    while start < order.size:
        stop = np.searchsorted(counts, 2 * counts[start], side="right")
        sel, k = order[start:stop], counts[start:stop]
        start = stop
        rows, cols = np.nonzero(keep[sel])
        first = np.cumsum(k) - k
        idx = np.repeat(cols[first], k[-1]).reshape(sel.size, -1)
        idx[rows, np.arange(rows.size) - first[rows]] = cols
        q, cand = tiles[:, sel], gt[:, idx]

        def diff(col):
            return q[col][:, :, None] - cand[col][:, None, :]

        d = _space_part(metric, diff)
        if metric[1] is not None:
            dm = np.abs(diff(-1) if z is None else z - cand[-1][:, None, :])
            d = _join_mark(metric[1], d, dm, d)
        out[sel] = np.take_along_axis(idx, np.argmin(d, axis=2), axis=1)
    return out


def _nearest(metric, queries, gens, chunk):
    """Index of each query row's nearest generator row, ``chunk`` queries at
    a time; the mark, if the metric has one, is the last column. Ties go to
    the lowest generator index."""
    gt = np.ascontiguousarray(gens.T)
    labels = np.empty(queries.shape[0], dtype=np.intp)
    for start in range(0, queries.shape[0], chunk):
        pos, tiles = _tiles(queries[start : start + chunk])
        lb, ub = _box_bounds(metric, tiles, gt)
        labels[start + pos] = _tile_labels(metric, tiles, gt, lb, ub)
    return labels


def _sweep(metric, gens, grid, chunk):
    """(nearest-generator labels, mark weight) blocks over a grid's nodes
    times its mark axis. A grid is (nodes, volume element, mark axis or
    None). Without a mark axis there is one block, of weight 1.0; with one,
    each chunk is tiled and its space part bounded once for every mark node
    (chunks outer, mark nodes inner), and each mark node searches only the
    generators its mark term cannot rule out."""
    nodes, _, mark_axis = grid
    if mark_axis is None:
        yield _nearest(metric, nodes, gens, chunk), 1.0
        return
    join, gt = metric[1], np.ascontiguousarray(gens.T)
    for start in range(0, nodes.shape[0], chunk):
        block = nodes[start : start + chunk]
        pos, tiles = _tiles(block)
        lb, ub = _box_bounds(metric, tiles, gt)
        for z, wj in zip(*mark_axis):
            dm = np.abs(z - gt[-1])
            # the generators whose mark term alone stays within the largest
            # upper bound, over the tiles, of the generator nearest in mark
            g0 = np.argmin(dm)
            cut = np.max(_join_mark(join, ub[:, g0], dm[g0]))
            near = np.flatnonzero((dm * dm if join == "max" else dm) <= cut)
            gs, lbs, ubs = (gt, lb, ub) if near.size == dm.size else (
                gt[:, near], lb[:, near], ub[:, near])
            dm = dm[near]
            labels = np.empty(block.shape[0], dtype=np.intp)
            labels[pos] = near[_tile_labels(
                metric, tiles, gs, _join_mark(join, lbs, dm), _join_mark(join, ubs, dm), z
            )]
            yield labels, wj


def _cell_measures(metric, gens, grid, chunk):
    """The build: each node's volume element, times its mark weight, accrues
    to its nearest generator. The volume element is a scalar or, for the
    time-mark grid, one weight per node."""
    vol, n = grid[1], gens.shape[0]
    measures = np.zeros(n)
    for labels, wj in _sweep(metric, gens, grid, chunk):
        if np.ndim(vol):
            measures += np.bincount(labels, weights=vol, minlength=n)
        else:
            measures += np.bincount(labels, minlength=n) * (vol * wj)
    return measures


def _integral(metric, gens, values, grid, chunk):
    """The audit: the per-generator ``values`` summed over the grid's nodes,
    times their volume elements and mark weights."""
    vol = grid[1]
    total = 0.0
    for labels, wj in _sweep(metric, gens, grid, chunk):
        vals = values[labels]
        total += float(np.sum(vals * vol)) if np.ndim(vol) else float(np.sum(vals)) * vol * wj
    return total


def _refining(measures_at, quad, message):
    """Cell measures at ``quad``, or at ``quad.refined()`` when a cell got no
    node; QuadratureError(message) when one gets none at either."""
    for q in (quad, quad.refined()):
        measures = measures_at(q)
        if np.all(measures > 0):
            return measures, q
    raise QuadratureError(message)


def _space_time_grid(p, quad, offset, marked):
    w = p.window
    axes = _space_axes(w, quad.n_space, offset)
    axes.append(_axis_nodes(w.temporal[0], w.temporal[1], quad.n_time, offset))
    vol = w.volume / (quad.n_space**w.dim * quad.n_time)
    mark_axis = _mark_axis(p.mark_space, p.marks, quad.n_mark, offset) if marked else None
    return _mesh(axes), vol, mark_axis


class _Floored:
    """Values below ``INTENSITY_FLOOR`` are raised to it. ``floor_hits`` is
    derived from the estimate, never accrued: how many of the pattern's own
    points have an estimate below the floor before that clamp."""

    @property
    def floor_hits(self):
        return int(np.count_nonzero(self._unclamped_own() < INTENSITY_FLOOR))

    def weights_for_own_points(self):
        """The estimate at the pattern's own points, clamped to the floor."""
        return np.maximum(self._unclamped_own(), INTENSITY_FLOOR)


@dataclass
class VoronoiEstimate(_Floored):
    """A tessellation-backed intensity estimate.

    ``kind`` is "ground" (space-time) or "marked" (space-time-mark). Cell
    measures are per distinct generator; a pattern point's estimate is the
    generator multiplicity over its cell measure.
    """

    kind: str
    pattern: MarkedPattern
    gens_x: np.ndarray
    gens_t: np.ndarray
    gens_m: object
    mult: np.ndarray
    group_of_point: np.ndarray
    cell_measures: np.ndarray
    quadrature: Quadrature
    refined: bool = False

    @property
    def metric_mode(self):
        if self.kind == "ground":
            return "SupSpaceTime"
        return "FullMarked"

    @property
    def _metric(self):
        return _space_time_metric(self.pattern, self.kind == "marked")

    @property
    def _gens(self):
        marks = [] if self.gens_m is None else [self.gens_m]
        return np.column_stack([self.gens_x, self.gens_t] + marks)

    def _unclamped_own(self):
        """Estimate at the pattern's own points: each generator's nearest
        generator is itself, so the value is multiplicity / cell measure."""
        return self.mult[self.group_of_point] / self.cell_measures[self.group_of_point]

    def at(self, x, t, m=None):
        """Evaluate at arbitrary finite locations (arrays); marked estimates
        require the mark coordinate, inside the mark space."""
        cols = list(_checked_coords(x, t))
        if self.kind == "marked":
            if m is None:
                raise ValueError("marked estimate needs mark coordinates")
            cols.append(_checked_marks(self.pattern.mark_space, m))
        labels = _nearest(self._metric, np.column_stack(cols), self._gens, self.quadrature.chunk)
        return np.maximum(self.mult[labels] / self.cell_measures[labels], INTENSITY_FLOOR)

    def resolutions(self):
        """The ``Quadrature`` fields its tessellation read, by name, at the
        quadrature it was built at (after any refinement)."""
        names = ["n_space", "n_time"]
        if self.kind == "marked" and _discretized(self.pattern.mark_space):
            names.append("n_mark")
        return {f: getattr(self.quadrature, f) for f in names}

    def cell_measure_rows(self):
        """(point_index, cell_measure) rows for the audit CSV dump."""
        return np.column_stack(
            [np.arange(self.pattern.n, dtype=float), self.cell_measures[self.group_of_point]]
        )


def _voronoi(p, kind, quad):
    if p.n == 0:
        raise ValueError("cannot estimate intensity from an empty pattern")
    marked = kind == "marked"
    if marked and not p.is_marked:
        raise ValueError("marked estimator needs a marked pattern")
    gens, mult, group = _group_rows(np.column_stack([p.x, p.t] + ([p.marks] if marked else [])))
    metric = _space_time_metric(p, marked)
    measures, q = _refining(
        lambda q: _cell_measures(metric, gens, _space_time_grid(p, q, 0.5, marked), q.chunk),
        quad,
        "empty tessellation cell at refined quadrature",
    )
    d = p.dim
    return VoronoiEstimate(
        kind=kind,
        pattern=p,
        gens_x=gens[:, :d],
        gens_t=gens[:, d],
        gens_m=gens[:, d + 1] if marked else None,
        mult=mult,
        group_of_point=group,
        cell_measures=measures,
        quadrature=q,
        refined=q is not quad,
    )


def voronoi_ground(p, quadrature=None):
    """Space-time Voronoi intensity estimate of the ground process (marks,
    if any, are ignored). Evaluation at (x, t) returns the reciprocal
    measure of the nearest generator's cell (times its multiplicity for
    coincident ground locations)."""
    return _voronoi(p, "ground", quadrature if quadrature is not None else Quadrature())


def voronoi_marked(p, quadrature=None):
    """Space-time-mark Voronoi intensity estimate under the full marked
    metric; cell measures are taken under Lebesgue x reference-measure."""
    quad = quadrature if quadrature is not None else Quadrature(n_space=48, n_time=48)
    return _voronoi(p, "marked", quad)


# --------------------------------------------------------------------------
# separable factors
# --------------------------------------------------------------------------


class _Cells:
    """Shared by the factor cells: the value at the pattern's own points,
    and the integral, which exact cells give as the point count. Exact
    cells read no quadrature."""

    refined = False

    def resolutions(self):
        return {}

    def own_values(self):
        return self.mult[self.group_of_point] / self.measures[self.group_of_point]

    def integral(self, quadrature=None):
        return float(np.sum(self.mult))


@dataclass
class _Cells1D(_Cells):
    """Exact 1D Voronoi cells on an interval: boundaries at midpoints of
    the sorted distinct values. At an exact boundary the query resolves to
    the lower-valued generator (measure-zero convention)."""

    values: np.ndarray      # sorted distinct
    mult: np.ndarray
    group_of_point: np.ndarray
    measures: np.ndarray
    boundaries: np.ndarray  # interior boundaries, len k-1

    @classmethod
    def build(cls, raw, lo, hi, measure="lebesgue", n_total=None):
        raw = np.asarray(raw, dtype=float)
        order = np.argsort(raw, kind="stable")
        vals, counts, group_sorted = _group_rows(raw[order][:, None])
        # first-occurrence order on sorted input == ascending value order
        vals = vals[:, 0]
        group = np.empty(raw.size, dtype=np.intp)
        group[order] = group_sorted
        bounds = (vals[:-1] + vals[1:]) / 2.0
        left = np.concatenate([[lo], bounds])
        right = np.concatenate([bounds, [hi]])
        lengths = np.clip(right, lo, hi) - np.clip(left, lo, hi)
        if measure == "lebesgue":
            measures = lengths
        elif measure == "normalized":
            measures = lengths / (hi - lo)
        elif measure == "empirical":
            measures = counts / float(n_total)
        else:
            raise ValueError(measure)
        if np.any(measures <= 0):
            raise QuadratureError("degenerate 1D cell (coincident boundary values)")
        return cls(vals, counts, group, measures, bounds)

    def value_at(self, q):
        idx = np.searchsorted(self.boundaries, np.asarray(q, dtype=float), side="right")
        return self.mult[idx] / self.measures[idx]


@dataclass
class _LabelCells(_Cells):
    """Mark-axis cells for finite label spaces: each label belongs to the
    nearest observed label (ties to the lowest point index); measures sum
    the label weights inside the cell."""

    table_value: np.ndarray   # per label 1..k: estimator value on that label
    group_of_point: np.ndarray
    mult: np.ndarray
    measures: np.ndarray

    @classmethod
    def build(cls, marks, mark_space):
        gens, mult, group = _group_rows(np.asarray(marks, dtype=float)[:, None])
        all_labels = np.arange(1, mark_space.k + 1, dtype=float)[:, None]
        cell_of_label = _nearest(((1,), None), all_labels, gens, mark_space.k)
        weights = np.asarray(mark_space.weights, dtype=float)
        measures = np.zeros(gens.shape[0])
        np.add.at(measures, cell_of_label, weights)
        table = mult[cell_of_label] / measures[cell_of_label]
        return cls(table, group, mult, measures)

    def value_at(self, q):
        idx = np.asarray(np.round(q), dtype=int) - 1
        return self.table_value[idx]


@dataclass
class _QuadCells(_Cells):
    """A separable factor's Voronoi cells by quadrature. A subclass gives
    the grid; the build and the audit both use it."""

    pattern: MarkedPattern
    rows: np.ndarray   # distinct generators
    mult: np.ndarray
    group_of_point: np.ndarray
    measures: np.ndarray
    metric: tuple
    quad: Quadrature
    refined: bool = False

    @classmethod
    def build(cls, p, rows, metric, quad, message):
        gens, mult, group = _group_rows(rows)
        measures, q = _refining(
            lambda q: _cell_measures(metric, gens, cls._grid(p, q, 0.5), q.chunk), quad, message
        )
        return cls(p, gens, mult, group, measures, metric, q, q is not quad)

    def value_at(self, *coords):
        labels = _nearest(self.metric, np.column_stack(coords), self.rows, self.quad.chunk)
        return self.mult[labels] / self.measures[labels]

    def integral(self, quadrature=None):
        q = quadrature if quadrature is not None else self.quad
        grid = self._grid(self.pattern, q, AUDIT_OFFSET)
        return _integral(self.metric, self.rows, self.mult / self.measures, grid, q.chunk)


class _SpatialCells(_QuadCells):
    """Euclidean spatial Voronoi cells by quadrature over the spatial box."""

    @property
    def gens(self):
        return self.rows

    def resolutions(self):
        return {"n_space_only": self.quad.n_space_only}

    @staticmethod
    def _grid(p, quad, offset):
        vol = p.window.spatial_volume / quad.n_space_only**p.dim
        return _mesh(_space_axes(p.window, quad.n_space_only, offset)), vol, None


class _TimeMarkCells(_QuadCells):
    """Joint time-mark Voronoi cells by quadrature, under the max metric
    (continuous marks), the additive metric (labels), or the Euclidean
    plane metric when requested. Mark weights differ between mark nodes,
    so the grid carries one volume element per node."""

    @property
    def gens_t(self):
        return self.rows[:, 0]

    def resolutions(self):
        res = {"n_time_tm": self.quad.n_time_tm}
        if _discretized(self.pattern.mark_space):
            res["n_mark_tm"] = self.quad.n_mark_tm
        return res

    @staticmethod
    def _grid(p, quad, offset):
        w = p.window
        t_nodes = _axis_nodes(w.temporal[0], w.temporal[1], quad.n_time_tm, offset)
        m_nodes, m_w = _mark_axis(p.mark_space, p.marks, quad.n_mark_tm, offset)
        ww = np.outer(np.full(t_nodes.shape, w.temporal_length / quad.n_time_tm), m_w)
        return _mesh([t_nodes, m_nodes]), ww.ravel(), None


@dataclass
class SeparableIntensity(_Floored):
    """A separable-setup intensity estimate (S1, S2, or S3)."""

    setup: str
    n: int
    factors: dict
    pattern: MarkedPattern

    @property
    def refined(self):
        """Whether any factor was built at the refined quadrature."""
        return any(f.refined for f in self.factors.values())

    def resolutions(self):
        """The ``Quadrature`` fields its factors' tessellations read, by
        name, at the quadrature each factor was built at."""
        return {k: v for f in self.factors.values() for k, v in f.resolutions().items()}

    def at(self, x, t, m):
        """Evaluate at arbitrary finite space-time-mark locations (marks
        inside the mark space)."""
        x, t = _checked_coords(x, t)
        m = _checked_marks(self.pattern.mark_space, m)
        coords = {"spatial": (x,), "temporal": (t,), "mark": (m,), "timemark": (t, m)}
        return np.maximum(self._product({
            k: f.at(x, t) if k == "ground" else f.value_at(*coords[k])
            for k, f in self.factors.items()
        }), INTENSITY_FLOOR)

    def _unclamped_own(self):
        """The setup's product at the pattern's own points (an S2 ground
        factor enters at its own clamped values)."""
        return self._product({
            k: f.weights_for_own_points() if k == "ground" else f.own_values()
            for k, f in self.factors.items()
        })

    def _product(self, v):
        """The setup's combination of per-factor values ``v`` (by name)."""
        if self.setup == "S1":
            return v["spatial"] * v["temporal"] * v["mark"] / self.n**2
        if self.setup == "S2":
            return v["mark"] / self.n * v["ground"]
        return v["spatial"] / self.n * v["timemark"]


def voronoi_separable(p, setup, euclidean_tm=False, quadrature=None):
    """Separable Voronoi intensity estimation.

    Parameters
    ----------
    p : MarkedPattern (marked)
    setup : {"S1", "S2", "S3"}
        S1: spatial x temporal x mark factors / N^2 (separability and a
        common mark distribution); S2: mark factor / N x ground space-time
        estimate (non-separable ground, common mark distribution);
        S3: spatial factor / N x joint time-mark tessellation (separability
        with time-mark dependence).
    euclidean_tm : bool
        S3 only: replace the max-metric time-mark tessellation by the
        Euclidean one on the plane (an explicit approximation, never
        silently substituted).
    """
    if p.n == 0:
        raise ValueError("cannot estimate intensity from an empty pattern")
    if not p.is_marked:
        raise ValueError("separable setups need a marked pattern")
    quad = quadrature if quadrature is not None else Quadrature()
    ms = p.mark_space

    def spatial():
        return _SpatialCells.build(
            p, p.x, ((p.dim,), None), quad, "empty spatial cell; refine n_space_only"
        )

    def mark():
        if ms.is_labelled:
            return _LabelCells.build(p.marks, ms)
        return _Cells1D.build(p.marks, ms.lo, ms.hi, ms.reference, n_total=p.n)

    if setup == "S1":
        temporal = _Cells1D.build(p.t, p.window.temporal[0], p.window.temporal[1], "lebesgue")
        factors = {"spatial": spatial(), "temporal": temporal, "mark": mark()}
    elif setup == "S2":
        factors = {"mark": mark(), "ground": voronoi_ground(p, quad)}
    elif setup == "S3":
        metric = ((2,), None) if euclidean_tm else ((1,), _mark_join(ms))
        timemark = _TimeMarkCells.build(
            p, np.column_stack([p.t, p.marks]), metric, quad,
            "empty time-mark cell; refine n_time_tm/n_mark_tm",
        )
        factors = {"spatial": spatial(), "timemark": timemark}
    else:
        raise ValueError(f"unknown setup {setup!r}; expected S1, S2, or S3")
    return SeparableIntensity(setup=setup, n=p.n, factors=factors, pattern=p)


# --------------------------------------------------------------------------
# mass audit
# --------------------------------------------------------------------------


def estimate_mass(est, quadrature=None):
    """Integral of the estimate over its domain, computed on an offset
    evaluation grid (never the grid that built the cell measures, where the
    integral would be the point count exactly by construction). The audit
    therefore measures real quadrature error. ``quadrature`` overrides the
    audit-grid resolution (default: the resolution the estimate, or each
    of its quadrature-built factors, was built at)."""
    if isinstance(est, VoronoiEstimate):
        quad = quadrature if quadrature is not None else est.quadrature
        grid = _space_time_grid(est.pattern, quad, AUDIT_OFFSET, est.kind == "marked")
        return _integral(est._metric, est._gens, est.mult / est.cell_measures, grid, quad.chunk)
    if isinstance(est, SeparableIntensity):
        return est._product({
            k: estimate_mass(f, quadrature) if k == "ground" else f.integral(quadrature)
            for k, f in est.factors.items()
        })
    raise TypeError(f"cannot audit {type(est).__name__}")
