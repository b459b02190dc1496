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

Every quadrature tessellation is one cell type, ``_QuadCells``, with one
build (which retries once at ``Quadrature.refined()``, unless box bounds
prove a cell of the refined grid empty), one evaluation, one
value at the pattern's own points and one audit (``integral``); each
subclass only gives its grid. ``VoronoiEstimate`` is that type on the
space-time(-mark) grid, the separable spatial and time-mark factors on
theirs. The exact 1-D and label cells share the own-point value, and
their integral is the point count.

The search is exact but pruned, in two forms that share one candidate
and argmin kernel. A grid is given by its 1-d axes: its nodes are their
product in mesh order (the last axis varies fastest) and are never
materialised. ``_sweep`` cuts the lattice into boxes of about ``_BOX``
nodes, a run of consecutive nodes along each axis (the last run ragged,
padded by repeating its final node). Scattered query rows (``value_at``,
the label cells) go through ``_nearest``, which cuts each chunk of rows
into tiles of about ``_TILE`` nearby rows (Z-order over the chunk's
bounding box). For every generator, the metric is bounded from below at
the box's nearest point (each coordinate clamped to the box) and from
above at its farthest corner, with the same per-group sums, maximum and
mark join as the metric itself; a lattice box spans, per axis, the min to
the max of its nodes' values, which need not be sorted (empirical mark
atoms come in first-occurrence order). Only generators whose lower bound
is <= the box's smallest upper bound are searched, in increasing index
order, by the same first-occurrence argmin as a search over all
generators. This is exact in floating point, not only in exact
arithmetic: subtraction, squaring, summation, maximum, square root and
addition are all monotone under rounding, so the computed distance from
any node of the box to a generator lies between that generator's computed
bounds. A generator left out therefore lies strictly farther from every
node than the generator with the smallest upper bound, so it can neither
be the nearest nor tie with it.

The distances that are computed are the full search's values, bit for
bit. On a lattice each axis holds, per generator, the term of every node
(the squared difference, or the absolute one for a mark added to the
space part) and of every box's nearest and farthest point, so a bound or
a distance combines one table entry per axis by broadcasting: the squares
are added within a group in column order, and the maximum is taken over
the groups. Under "add" each group's square is rooted and the mark term
added before that maximum; rooting and adding are monotone, so they
commute with the maximum exactly. Labels are written back in node order,
and every reduction adds in node order: the build and the audit get one
block of every node without a mark axis, and a block of ``chunk`` nodes
in mesh order for each mark node (chunks outer) with one. So results are
bit-identical to comparing every node with every generator. Bounds are
formed for blocks of boxes of about ``_BOUNDS`` box-generator pairs,
distances in batches of about ``_BATCH`` row-candidate pairs, and a sweep
with a mark axis holds labels for one slab of boxes (whole box rows along
the first axis) at a time. Under a mark axis each block's space part is
bounded once; each mark node then only joins its mark term to those
bounds.

Three more cuts are exact for the same reasons. First, a mark node of a sweep
bounds only the generators whose mark term alone (the squared mark
difference under max, the difference under addition) is at most ``cut``:
the largest, over the block's boxes, of the joined upper bound of the
generator nearest in mark (the lowest index among ties). The space part is
>= 0 and joining is monotone, so a generator left out has a joined lower
bound above ``cut``, hence above every box's smallest upper bound; that
smallest upper bound is at least its own generator's mark term, so it is
reached among the generators kept, which stay in index order. Candidates,
their order and the argmin are unchanged. When every generator is kept,
as for most label axes and for mark nodes among the observed marks, no
copy is made; when only the generator nearest in mark is kept, as for mark
nodes far from every observed mark, it is every node's label. Second, a
box with a single candidate takes it as every node's label without
computing a distance: the generator of the smallest upper bound is always
a candidate, so a sole candidate is that nearest generator.

Third, the retry at ``Quadrature.refined()`` first runs a bounds pass,
``_unreached``: the sweep's blocks, bounds, mark-node cut and candidate
rule, with no distance. A generator that is a candidate of no box at any
mark node lies strictly farther from every node than some other
generator, so the sweep gives it no node, its cell measure is 0 and the
refined build would fail; the retry then raises the same QuadratureError
before the sweep. The pass proves nothing when every generator is a candidate
somewhere, and then the sweep runs as before, so every result that passes
keeps its bits. Only the retry is checked: a first build usually
succeeds, and there the pass would only add time.

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

from dataclasses import dataclass, fields, replace

import numpy as np

from .pattern import MarkedPattern, _first_rows, _is_count

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
# query rows per Z-order tile, and nodes per lattice box, of the pruned
# nearest-generator search. Every box's bounds are formed again for each
# mark node, so boxes pay off larger than tiles: on the refined lgcp-geostat
# marked grid (96^3 nodes x 28 mark nodes, 461 generators, 2-vCPU VM) a build
# took about 0.6 s with boxes of 7^3 or 8^3 nodes, 0.9 s with 4^3 and 10^3
_TILE = 64
_BOX = 343
# row-candidate distances per batch of tiles or boxes, and box-generator
# bounds per block of lattice boxes
_BATCH = 2**16
_BOUNDS = 2**17


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
        Nodes per block of the marked sweep's sums, and query rows per
        batch of ``value_at``. The marked build and the marked audit add
        their terms one block of ``chunk`` mesh-order nodes per mark node
        at a time, so their last bits depend on it: on
        ``uniform_pattern(60, seed=3)`` (interval marks) at
        n_space = n_time = 12, n_mark = 9, cell measure 1 is
        0.024305555555555573 at chunk 37 and 0.024305555555555552 at 1000
        and 8192, and the audit 59.95963227365619, 59.959632273656155 and
        59.95963227365615. Labels, and every other build and audit, do not
        depend on it.

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
            if not _is_count(v):
                raise ValueError(f"quadrature {f.name} must be a positive integer, got {v!r}")

    def refined(self):
        """Every resolution doubled; ``chunk`` is kept."""
        return replace(self, **{f.name: getattr(self, f.name) * 2
                                for f in fields(self) if f.name != "chunk"})


def _axis_nodes(lo, hi, n, offset=0.5):
    step = (hi - lo) / n
    return lo + (np.arange(n) + offset) * step


def _space_axes(window, n, offset):
    lo, hi = window.spatial_bounds()
    return [_axis_nodes(lo[i], hi[i], n, offset) for i in range(window.dim)]


def _group_rows(rows):
    """Distinct rows in first-occurrence order, their multiplicities, and
    each input row's group index. First-occurrence order makes argmin
    tie-breaks resolve to the lowest original point index."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    first, group = _first_rows(rows, groups=True)
    return rows[first], np.bincount(group, minlength=first.size), group


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
# where the space part is rooted first.
# --------------------------------------------------------------------------


def _mark_join(mark_space):
    return "add" if mark_space.is_labelled else "max"


def _coord_term(metric, ncol, k, diff):
    """Coordinate k's term of the metric from its differences ``diff``: the
    absolute difference for a mark added to the space part (the last of
    ``ncol`` coordinates, past the groups), the square otherwise."""
    groups, join = metric
    return np.abs(diff) if join == "add" and k == ncol - 1 >= sum(groups) else diff**2


def _join_mark(join, part, term):
    """Join a mark term (the squared mark difference under "max", the
    absolute one under "add") to the space part."""
    return part + term if join == "add" else np.maximum(part, term)


def _metric_value(metric, term, ncol, mark=None):
    """The metric from the terms of ``ncol`` coordinates (``_coord_term``,
    arrays that broadcast together). Within a group the terms are added
    one coordinate at a time in column order. The mark term is ``mark`` or,
    when the coordinates go past the groups, the last one's; without
    either, this is the space part. It is the maximum over the groups (and,
    under "max", the mark term) of each group's squared distance, rooted
    and joined to the mark term under "add". Rounding is monotone, so
    rooting and adding commute with the maximum: this equals the maximum
    over the groups first, rooted, then joined, bit for bit, and the
    maximum is taken smallest operands first."""
    groups, join = metric
    if mark is None and join is not None and ncol > sum(groups):
        mark = term(ncol - 1)
    parts, col = [] if mark is None or join == "add" else [mark], 0
    for size in groups:
        sq = term(col)
        for k in range(col + 1, col + size):
            sq = sq + term(k)
        if join == "add":
            sq = np.sqrt(sq) if mark is None else np.sqrt(sq) + mark
        parts.append(sq)
        col += size
    parts.sort(key=np.size)
    d = parts[0]
    for part in parts[1:]:
        d = np.maximum(d, part)
    return d


def _near_far(metric, ncol, k, lo, hi, g):
    """Coordinate k's terms from boxes spanning [lo, hi] in it to generator
    coordinates ``g``: at each box's nearest point (the coordinate clamped
    to the box) and at its farthest. Rounding is monotone, so they bound the
    term of every coordinate value in the box."""
    below, above = g - lo, hi - g
    near = np.maximum(-np.minimum(below, above), 0.0)
    return _coord_term(metric, ncol, k, near), _coord_term(metric, ncol, k, np.maximum(below, above))


def _candidates(lb, ub):
    """Each box's generator of the smallest upper bound (the lowest index
    among ties), and its candidates: the generators whose lower bound is <=
    that upper bound (``lb``, ``ub``: (boxes, generators)), (boxes,
    generators) booleans."""
    best = ub.argmin(axis=1)
    return best, lb <= ub[np.arange(best.size), best][:, None]


def _candidate_labels(lb, ub, dist, pos, out, ids=None):
    """Write the nearest generator of every row of every box to
    ``out[pos]``; ``pos`` holds each box's row positions, (boxes, rows).
    A box searches its ``_candidates`` (bounds over the generators ``ids``
    when not all) in increasing index order, so argmin's first occurrence
    is the lowest index among ties. A box with one candidate takes it. The
    others go in batches of similar candidate counts and about ``_BATCH``
    row-candidate distances, each row padded with its first candidate,
    which a later position never beats; ``dist(sel, idx)`` gives the
    distances (len(sel), rows, K) from the rows of boxes ``sel`` to
    generators ``idx``, (len(sel), K)."""
    best, keep = _candidates(lb, ub)
    counts = np.count_nonzero(keep, axis=1)
    order = np.argsort(counts, kind="stable")
    counts = counts[order]
    # every box keeps the generator of its smallest upper bound, so the
    # boxes of exactly one candidate come first; that one is their label
    start = np.searchsorted(counts, 1, side="right")
    one = best[order[:start]]
    out[pos[order[:start]]] = (one if ids is None else ids[one])[:, None]
    while start < order.size:
        stop = np.searchsorted(counts, 2 * counts[start], side="right")
        stop = min(stop, start + max(1, _BATCH // (pos.shape[1] * counts[stop - 1])))
        sel, k = order[start:stop], counts[start:stop]
        start = stop
        rows, cols = np.nonzero(keep[sel])
        if ids is not None:
            cols = ids[cols]
        first = np.cumsum(k) - k
        idx = np.repeat(cols[first], k[-1]).reshape(sel.size, -1)
        idx[rows, np.arange(rows.size) - first[rows]] = cols
        out[pos[sel]] = np.take_along_axis(idx, np.argmin(dist(sel, idx), axis=2), axis=1)


# --------------------------------------------------------------------------
# scattered rows: Z-order tiles
# --------------------------------------------------------------------------


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
    every generator, (B, n). Generators are coordinate-major, ``gt``
    (c, n); a tile's last coordinate is its mark when the metric has one."""
    ncol = tiles.shape[0]
    rows = tiles.reshape(-1, tiles.shape[2])  # 2-d: numpy reduces these rows faster
    lo, hi = (a.reshape(tiles.shape[:2]) for a in (rows.min(axis=1), rows.max(axis=1)))
    terms = [_near_far(metric, ncol, k, lo[k, :, None], hi[k, :, None], gt[k])
             for k in range(ncol)]
    return tuple(_metric_value(metric, lambda k: terms[k][b], ncol) for b in (0, 1))


def _nearest(metric, queries, gens, chunk):
    """Index of each query row's nearest generator row, ``chunk`` queries at
    a time; the mark, if the metric has one, is the last column. Ties go to
    the lowest generator index."""
    gt = np.ascontiguousarray(gens.T)
    ncol = gt.shape[0]
    labels = np.empty(queries.shape[0], dtype=np.intp)
    for start in range(0, queries.shape[0], chunk):
        pos, tiles = _tiles(queries[start : start + chunk])

        def dist(sel, idx):
            q, cand = tiles[:, sel], gt[:, idx]
            return _metric_value(metric, lambda k: _coord_term(
                metric, ncol, k, q[k][:, :, None] - cand[k][:, None, :]), ncol)

        lb, ub = _box_bounds(metric, tiles, gt)
        _candidate_labels(lb, ub, dist, pos, labels[start : start + chunk])
    return labels


# --------------------------------------------------------------------------
# grids: lattice boxes
# --------------------------------------------------------------------------


def _box_sides(shape):
    """Nodes per box along each axis of a lattice, about ``_BOX`` in all:
    the shortest axes first, each as near an equal share of what is left as
    its length allows."""
    sides, left = [1] * len(shape), float(_BOX)
    for i, k in enumerate(sorted(range(len(shape)), key=shape.__getitem__)):
        sides[k] = max(1, min(shape[k], round(left ** (1.0 / (len(shape) - i)))))
        left /= sides[k]
    return sides


def _blocks(counts, limit):
    """Products of box ranges, one range per axis, that cover a lattice's
    boxes (``counts`` along each axis) in C order, each of at most ``limit``
    boxes or a single box. A block spans whole box rows along its first
    axis when those fit in ``limit``."""
    inner = int(np.prod(counts[1:]))
    if inner > limit:
        for b in range(counts[0]):
            for rest in _blocks(counts[1:], limit):
                yield (range(b, b + 1),) + rest
        return
    step = max(1, limit // inner)
    for a in range(0, counts[0], step):
        yield (range(a, min(a + step, counts[0])),) + tuple(range(c) for c in counts[1:])


class _Lattice:
    """A grid's nodes: the product of its 1-d axes, in mesh order (the last
    axis varies fastest), cut into boxes of about ``_BOX`` nodes. Along
    each axis a box is a run of consecutive nodes, the last run padded by
    repeating its final node. A box spans, per axis, the min to the max of
    its nodes' values, which need not be sorted (empirical mark atoms come
    in first-occurrence order). Per axis, the lattice holds every
    generator's coordinate term (``_coord_term``) at each node,
    ``tables`` (nodes, n), and at each box's nearest and farthest point,
    ``near`` and ``far`` (boxes, n). A distance or a bound then combines
    one term per axis by broadcasting (``_metric_value``)."""

    def __init__(self, metric, axes, gens):
        self.metric, self.ncol, self.n = metric, len(axes), gens.shape[0]
        self.shape = tuple(a.size for a in axes)
        self.size = int(np.prod(self.shape))
        self.strides = [int(np.prod(self.shape[k + 1 :])) for k in range(self.ncol)]
        self.runs, self.tables, self.near, self.far = [], [], [], []
        for k, (a, side) in enumerate(zip(axes, _box_sides(self.shape))):
            count = -(-a.size // side)
            side = -(-a.size // count)
            runs = np.minimum(np.arange(count * side).reshape(count, side), a.size - 1)
            vals = a[runs]
            near, far = _near_far(metric, self.ncol, k, vals.min(axis=1)[:, None],
                                  vals.max(axis=1)[:, None], gens[:, k])
            self.runs.append(runs)
            self.tables.append(_coord_term(metric, self.ncol, k, a[:, None] - gens[:, k]))
            self.near.append(near)
            self.far.append(far)
        self.counts = [r.shape[0] for r in self.runs]

    def blocks(self):
        """Blocks of boxes (``_blocks``) of at most about ``_BOUNDS``
        box-generator bounds."""
        return _blocks(self.counts, max(1, _BOUNDS // self.n))

    def rows(self, r):
        """The mesh positions [lo, hi) of the nodes of box range ``r`` along
        axis 0."""
        side = self.runs[0].shape[1]
        return r.start * side * self.strides[0], min(r.stop * side, self.shape[0]) * self.strides[0]

    def _along(self, k, a, m):
        """An axis-k array, (m, ...), placed to broadcast as axis k of the
        lattice."""
        return a.reshape(a.shape[:-2] + (1,) * k + (m,) + (1,) * (self.ncol - 1 - k) + a.shape[-1:])

    def bounds(self, ranges):
        """A block's lower and upper bounds, (boxes, n)."""
        return tuple(_metric_value(self.metric, lambda k: self._along(
            k, t[k][ranges[k].start : ranges[k].stop], len(ranges[k])), self.ncol
        ).reshape(-1, self.n) for t in (self.near, self.far))

    def block(self, ranges, offset):
        """A block's boxes' node positions minus ``offset``, (boxes, rows),
        and its distance function for ``_candidate_labels``, which joins
        ``mark``, a term per generator, when given."""
        c, along = self.ncol, self._along
        shape = tuple(len(r) for r in ranges)
        boxes = np.indices(shape).reshape(c, -1) + np.array([r.start for r in ranges])[:, None]
        pos = sum(along(k, (self.runs[k][boxes[k]] * stride)[..., None], self.runs[k].shape[1])
                  for k, stride in enumerate(self.strides))
        pos = pos.reshape(boxes.shape[1], -1) - offset

        def dist(sel, idx, mark=None):
            b = boxes[:, sel]

            def term(k):
                rows = self.runs[k][b[k]]
                return along(k, self.tables[k][rows[:, :, None], idx[:, None, :]], rows.shape[1])

            if mark is not None:
                mark = mark[idx].reshape((sel.size,) + (1,) * c + (-1,))
            return _metric_value(self.metric, term, c, mark).reshape(sel.size, -1, idx.shape[1])

        return pos, dist


def _mark_node(join, lb, ub, z, gm):
    """Mark node ``z``'s search of a block of boxes whose space parts are
    bounded by ``lb``, ``ub`` (boxes, generators), for generator marks
    ``gm``: every generator's mark term, the generators kept (``ids``; None
    when every one is) and their joined bounds. Kept are the generators
    whose mark term alone stays within the largest upper bound, over the
    boxes, of the generator nearest in mark. When that is only one, it is
    every node's label: the bounds are None and ``ids`` holds it."""
    dm = np.abs(z - gm)
    term = dm if join == "add" else dm * dm
    g0 = np.argmin(dm)
    near = np.flatnonzero(term <= np.max(_join_mark(join, ub[:, g0], term[g0])))
    if near.size == 1:
        return term, near, None
    ids = None if near.size == term.size else near
    lbs, ubs, tn = (lb, ub, term) if ids is None else (lb[:, near], ub[:, near], term[near])
    return term, ids, (_join_mark(join, lbs, tn), _join_mark(join, ubs, tn))


def _sweep(metric, gens, grid, chunk):
    """(nearest-generator labels, mark weight) blocks over a grid's nodes
    times its mark axis. A grid is (axes, volume element, mark axis or
    None); its nodes are the product of the 1-d axes, in mesh order.
    Without a mark axis there is one block, of every node, of weight 1.0;
    with one, a block of ``chunk`` nodes in mesh order for every mark node
    (chunks outer, mark nodes inner). The lattice is searched box by box:
    each block of boxes is bounded once, and under a mark axis each mark
    node searches only the generators its mark term cannot rule out. Labels
    are held for one slab of boxes (whole box rows along the first axis) at
    a time."""
    axes, _, mark_axis = grid
    lat = _Lattice(metric, axes, gens)
    if mark_axis is None:
        labels = np.empty(lat.size, dtype=np.intp)
        for ranges in lat.blocks():
            pos, dist = lat.block(ranges, 0)
            _candidate_labels(*lat.bounds(ranges), dist, pos, labels)
        yield labels, 1.0
        return
    join, (zs, ws), gm = metric[1], mark_axis, gens[:, -1]
    held, done = np.empty((zs.size, 0), dtype=np.int32), 0
    for ranges in lat.blocks():
        lo, hi = lat.rows(ranges[0])
        if all(r.start == 0 for r in ranges[1:]):
            slab = np.empty((zs.size, hi - lo), dtype=np.int32)
        lb, ub = lat.bounds(ranges)
        pos, dist = lat.block(ranges, lo)
        for j, z in enumerate(zs):
            term, ids, joined = _mark_node(join, lb, ub, z, gm)
            if joined is None:
                slab[j][pos] = ids[0]
                continue
            _candidate_labels(*joined, lambda sel, idx: dist(sel, idx, term), pos, slab[j], ids)
        if any(r.stop < c for r, c in zip(ranges[1:], lat.counts[1:])):
            continue
        # yield the chunks the slab completes; ``held`` has the labels of
        # [done, lo), the start of the first
        start = done
        while start + chunk <= hi or start < hi == lat.size:
            stop = min(start + chunk, hi)
            for j, wj in enumerate(ws):
                yield (slab[j, start - lo : stop - lo] if start >= lo else
                       np.concatenate([held[j], slab[j, : stop - lo]])), wj
            start = stop
        held = slab[:, start - lo :].copy() if start >= lo else np.concatenate([held, slab], axis=1)
        done = start


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


def _unreached(metric, gens, grid):
    """The generators that are a candidate of no lattice box of the grid (at
    no mark node, under a mark axis), as a mask: the bounds, the mark-node
    cut and the candidate rule of ``_sweep``, without a distance. Such a
    generator gets no node, so its cell measure is 0. The pass stops once
    every generator has been a candidate."""
    axes, _, mark_axis = grid
    lat = _Lattice(metric, axes, gens)
    seen = np.zeros(lat.n, dtype=bool)
    for ranges in lat.blocks():
        lb, ub = lat.bounds(ranges)
        searches = [(None, (lb, ub))] if mark_axis is None else (
            _mark_node(metric[1], lb, ub, z, gens[:, -1])[1:] for z in mark_axis[0])
        for ids, joined in searches:
            if joined is None:
                seen[ids] = True
                continue
            kept = _candidates(*joined)[1].any(axis=0)
            seen[kept if ids is None else ids[kept]] = True
        if seen.all():
            break
    return ~seen


def _refining(metric, gens, grid_at, quad, message):
    """Cell measures of the grid ``grid_at(q)`` at ``q = quad``, or at
    ``quad.refined()`` when a cell got no node; QuadratureError(message)
    when one gets none at either. The refined grid is swept only when
    ``_unreached`` finds no generator: a retry that the box bounds prove
    hopeless fails before any distance is computed."""
    measures = _cell_measures(metric, gens, grid_at(quad), quad.chunk)
    if np.all(measures > 0):
        return measures, quad
    q = quad.refined()
    grid = grid_at(q)
    if not _unreached(metric, gens, grid).any():
        measures = _cell_measures(metric, gens, grid, q.chunk)
        if np.all(measures > 0):
            return measures, q
    raise QuadratureError(message)


# --------------------------------------------------------------------------
# cell types
# --------------------------------------------------------------------------


class _Floored:
    """Values below ``INTENSITY_FLOOR`` are raised to it. ``floor_hits`` is
    derived from the estimate, never accrued: how many of the pattern's own
    points have an estimate below the floor before that clamp."""

    @property
    def floor_hits(self):
        return int(np.count_nonzero(self.own_values() < INTENSITY_FLOOR))

    def weights_for_own_points(self):
        """The estimate at the pattern's own points, clamped to the floor."""
        return np.maximum(self.own_values(), INTENSITY_FLOOR)


class _Cells:
    """Shared by every cell type: the value at the pattern's own points
    (each generator's nearest generator is itself, so it is multiplicity
    over cell measure), and the integral, which exact cells give as the
    point count. Exact cells read no quadrature."""

    refined = False

    def resolutions(self):
        return {}

    def own_values(self):
        return self.mult[self.group_of_point] / self.measures[self.group_of_point]

    def integral(self, quadrature=None):
        return float(np.sum(self.mult))


@dataclass
class _QuadCells(_Cells):
    """Voronoi cells by quadrature. A subclass gives the grid, a function of
    the pattern, the quadrature, the node offset and the metric; the build
    and the audit both use it."""

    pattern: MarkedPattern
    rows: np.ndarray   # distinct generators
    mult: np.ndarray
    group_of_point: np.ndarray
    measures: np.ndarray
    metric: tuple
    quadrature: Quadrature
    refined: bool = False

    @classmethod
    def build(cls, p, rows, metric, quad, message):
        gens, mult, group = _group_rows(rows)
        measures, q = _refining(
            metric, gens, lambda q: cls._grid(p, q, 0.5, metric), quad, message
        )
        return cls(p, gens, mult, group, measures, metric, q, q is not quad)

    def value_at(self, *coords):
        labels = _nearest(self.metric, np.column_stack(coords), self.rows, self.quadrature.chunk)
        return self.mult[labels] / self.measures[labels]

    def integral(self, quadrature=None):
        """The audit: the estimate summed over the grid at ``AUDIT_OFFSET``
        (at ``quadrature``, else at the one the cells were built at), times
        the nodes' volume elements and mark weights."""
        q = quadrature if quadrature is not None else self.quadrature
        grid = self._grid(self.pattern, q, AUDIT_OFFSET, self.metric)
        values, vol, total = self.mult / self.measures, grid[1], 0.0
        for labels, wj in _sweep(self.metric, self.rows, grid, q.chunk):
            vals = values[labels]
            total += float(np.sum(vals * vol)) if np.ndim(vol) else float(np.sum(vals)) * vol * wj
        return total


class VoronoiEstimate(_Floored, _QuadCells):
    """A space-time(-mark) tessellation-backed intensity estimate.

    ``kind`` is "ground" (space-time) or "marked" (space-time-mark), as the
    metric has a mark join. Cell measures are per distinct generator; a
    pattern point's estimate is the generator multiplicity over its cell
    measure.
    """

    @property
    def kind(self):
        return "ground" if self.metric[1] is None else "marked"

    @property
    def gens_x(self):
        return self.rows[:, : self.pattern.dim]

    @staticmethod
    def _grid(p, quad, offset, metric):
        w = p.window
        axes = _space_axes(w, quad.n_space, offset)
        axes.append(_axis_nodes(w.temporal[0], w.temporal[1], quad.n_time, offset))
        vol = w.volume / (quad.n_space**w.dim * quad.n_time)
        marked = metric[1] is not None
        mark_axis = _mark_axis(p.mark_space, p.marks, quad.n_mark, offset) if marked else None
        return axes, vol, mark_axis

    def at(self, x, t, m=None):
        """Evaluate at arbitrary finite locations (arrays); marked estimates
        require the mark coordinate, inside the mark space."""
        cols = list(_checked_coords(x, t))
        if self.kind == "marked":
            if m is None:
                raise ValueError("marked estimate needs mark coordinates")
            cols.append(_checked_marks(self.pattern.mark_space, m))
        return np.maximum(self.value_at(*cols), INTENSITY_FLOOR)

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
            [np.arange(self.pattern.n, dtype=float), self.measures[self.group_of_point]]
        )


def _voronoi(p, marked, quad):
    if p.n == 0:
        raise ValueError("cannot estimate intensity from an empty pattern")
    if marked and not p.is_marked:
        raise ValueError("marked estimator needs a marked pattern")
    metric = (p.dim, 1), (_mark_join(p.mark_space) if marked else None)
    return VoronoiEstimate.build(
        p, np.column_stack([p.x, p.t] + ([p.marks] if marked else [])), metric, quad,
        "empty tessellation cell at refined quadrature",
    )


def voronoi_ground(p, quadrature=None):
    """Space-time Voronoi intensity estimate of the ground process (marks,
    if any, are ignored). Evaluation at (x, t) returns the reciprocal
    measure of the nearest generator's cell (times its multiplicity for
    coincident ground locations)."""
    return _voronoi(p, False, quadrature if quadrature is not None else Quadrature())


def voronoi_marked(p, quadrature=None):
    """Space-time-mark Voronoi intensity estimate under the full marked
    metric; cell measures are taken under Lebesgue x reference-measure."""
    quad = quadrature if quadrature is not None else Quadrature(n_space=48, n_time=48)
    return _voronoi(p, True, quad)


# --------------------------------------------------------------------------
# separable factors
# --------------------------------------------------------------------------


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
        idx = np.searchsorted(self.boundaries, np.asarray(q, dtype=float), side="left")
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


class _SpatialCells(_QuadCells):
    """Euclidean spatial Voronoi cells by quadrature over the spatial box."""

    @property
    def gens(self):
        return self.rows

    @property
    def quad(self):
        return self.quadrature

    def resolutions(self):
        return {"n_space_only": self.quadrature.n_space_only}

    @staticmethod
    def _grid(p, quad, offset, metric):
        vol = p.window.spatial_volume / quad.n_space_only**p.dim
        return _space_axes(p.window, quad.n_space_only, offset), vol, None


class _TimeMarkCells(_QuadCells):
    """Joint time-mark Voronoi cells by quadrature, under the max metric
    (continuous marks), the additive metric (labels), or the Euclidean
    plane metric when requested. Mark weights differ between mark nodes,
    so the grid carries one volume element per node."""

    @property
    def gens_t(self):
        return self.rows[:, 0]

    @property
    def quad(self):
        return self.quadrature

    def resolutions(self):
        res = {"n_time_tm": self.quadrature.n_time_tm}
        if _discretized(self.pattern.mark_space):
            res["n_mark_tm"] = self.quadrature.n_mark_tm
        return res

    @staticmethod
    def _grid(p, quad, offset, metric):
        w = p.window
        t_nodes = _axis_nodes(w.temporal[0], w.temporal[1], quad.n_time_tm, offset)
        m_nodes, m_w = _mark_axis(p.mark_space, p.marks, quad.n_mark_tm, offset)
        ww = np.outer(np.full(t_nodes.shape, w.temporal_length / quad.n_time_tm), m_w)
        return [t_nodes, m_nodes], ww.ravel(), None


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

    def own_values(self):
        """The setup's product at the pattern's own points (an S2 ground
        factor enters at its own clamped values)."""
        return self._product({
            k: f.weights_for_own_points() if k == "ground" else f.own_values()
            for k, f in self.factors.items()
        })

    def integral(self, quadrature=None):
        """The setup's product of its factors' integrals."""
        return self._product({k: f.integral(quadrature) for k, f in self.factors.items()})

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
    if euclidean_tm and setup in ("S1", "S2"):
        raise ValueError(f"euclidean_tm applies to setup S3 only, not {setup}")
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


def estimate_mass(est, quadrature=None):
    """Integral of the estimate over its domain, computed on an offset
    evaluation grid (never the grid that built the cell measures, where the
    integral would be the point count exactly by construction). The audit
    therefore measures real quadrature error. ``quadrature`` overrides the
    audit-grid resolution (default: the resolution the estimate, or each
    of its quadrature-built factors, was built at)."""
    if not isinstance(est, (VoronoiEstimate, SeparableIntensity)):
        raise TypeError(f"cannot audit {type(est).__name__}")
    return est.integral(quadrature)
