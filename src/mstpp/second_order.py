"""
Second-order summary statistics for marked spatio-temporal patterns.

The central object is the minus-sampling estimator of the marked
second-order reduced moment measure: a normalized sum over ordered
distinct pairs whose first point lies in the eroded window with mark in C
and whose second point falls in a structuring set around the first with
mark in D, each pair weighted by the reciprocal product of intensities.
Evaluated on cylinder sets over a lag grid this yields the marked
inhomogeneous spatio-temporal K-function; cones give the directional
variant, and plug-in choices of the normalizing measures give the four
denominator scenarios and the stationary specialization. Under Poisson the
reduced moment measure of a lag set is its volume, so a surface's
benchmark is the volume of its cells' lag sets: `cylinder_volume`, or for
a directional surface `cone_volume` of the wedge in its ``meta``, the one
home of each formula (in `geometry`). `CylinderSet.contains_lag` is the one
cylinder test; `ConeSet` adds the direction test to it.

Every statistic here, and every contrast surface in `inference`, reads one
`PairGeometry`, the only pair search (`_stored_pairs`). Every K-function
estimator, and every marking diagnostic in `inference`, is one evaluator,
`_k_surface`: the terms of S surfaces stacked (their rows, with each
row's (D, C) swap beside it under ``swap``), one `_k_values` sum of each
surface's pair weights over the C-first, D-second pairs of each lag
cell, each divided by its scenario `_denominator`, and the values
combined into one `KSurface`. The estimators differ only in the rows,
the swap and the combination: unit mark masses for the ground and cross
K-functions, scenario S1 with the masses (N_C N_D / N^2, 1) for the
stationary one, a cone test for the directional one, and the DC swap
beside the CD row, reading the CD denominator (`_k_rows`), for the
symmetrized form. `k_smoothed` averages `k_inhom` over thinnings.
An estimator hands `_k_surface` its lag arguments, and `_k_surface`
resolves the geometry (`_geometry`) from the surfaces it sums, so an
estimator states its mark sets once, in its rows. A new geometry holds
the pairs of one rule (`_selection`): those whose first point is
eroded-in and in some surface's C, and whose second point is in that
surface's D. A geometry that `pair_geometry` returns is the selection of
one surface with C = D = the whole mark space, so it holds every pair
that can contribute to some cell and serves any marks and weights; when
one surface sums every pair (the ground K, the independent-marks
diagnostic, C = D = None), the evaluator's own build is that full
geometry. The selected geometry lives only inside the `_k_surface` call
that builds it, and a ``geometry`` argument is taken to hold every pair.
The random-labelling test, whose permutations move the marks, builds
every pair.
`k_measure_hat`, the estimate for one structuring set, sums the pairs of
its own fixed-erosion geometry at the set's bounding lags (the eroded-in
C -> D pairs) that pass the set's exact membership test. `_marked_terms`
checks the marked arguments and `_checked_lags` the lag grids (the default
grid for any left out), the erosion mode and the window before the
geometry is built (and before `k_smoothed` thins), so bad arguments fail
before any pair is searched.

Implementation notes
--------------------
A pair at spatial lag ds and temporal lag du contributes to exactly the
contiguous block of grid cells {(r, t): ds <= r <= first-point spatial
margin, du <= t <= first-point temporal margin}. Each pair is therefore
accumulated at the four corners of its index rectangle in a difference
array, and a double cumulative sum recovers every cell total in one pass;
per-cell denominator sums over the eroded windows use the same device with
degenerate rectangles starting at (0, 0).

`_stored_pairs` finds each candidate pair once, from its first point,
with a numpy sweep over spatial cells (`_candidate_pairs`). A pair a ->
b is stored only when its lags lie within a's own erosion limits, ds <=
r_grid[b_r(a)] and du <= t_grid[b_t(a)] (a's reach), so only the
eroded-in points search, each within its own reach. Each reach is padded
by 4 eps times the largest lag plus the largest coordinate, in space and
in time apart, so the candidates are a superset of the stored pairs even
after the rounding of the lags and of the search bounds. The points are
binned into cells half the radius, the largest padded spatial reach,
wide on each spatial axis up to three axes and one radius wide above (a
stencil of 3^5 = 243 cells in 5-d, not 5^5), widened by 1 + 4e-9, but
never narrower than the axis's extent over 4096 (fewer cells on more
than three axes), so the cell keys stay exact as int64 and as float64,
and no array is sized by the number of cells. Two points within the
radius lie at most reach = floor(radius / width + 1e-9) + 1 cells apart
on each axis, 2 at half a radius and 1 at a whole one (the widening
keeps radius / width at least 3e-9 below 2 or 1): the cell coordinates
never exceed 4096, so their rounding is far below 1e-9 of a cell. Each
axis's key stride leaves reach empty cells past its last one, so a step
of the stencil from a cell at an edge names no occupied cell across the
window (two steps can then share a key, but only an unoccupied one).

Point a searches the cell s steps away only when the cell's box lies
within its padded spatial reach. On each axis the gap from a to the box is
o - frac for a step o > 0, frac - 1 - o for o < 0 and 0 for o = 0, in
cells, where frac, a's coordinate in cells less its own cell, is exact;
each gap is taken 1e-9 of a cell short before it is scaled by the cell
width and squared, and the sum is compared with the squared reach. A gap
is at most two cells, so the shortening lowers the squared distance by a
relative 1e-9 or more, far above the rounding of the cell coordinates
(below 1e-12 of a cell) and of the sums: every b that a can store lies in
a cell that passes. The candidates are still a superset of the stored
pairs, and fewer than the pairs within the maximal lags: on the seed-1
`k-large` catalogue (9,612 points, 20 x 20 grid) K^CD with C = label 1
and D = label 2 sweeps 1,575,026 candidates for 827,623 stored pairs.

A selection comes as two bit masks per point (`_selection`), f for the
surfaces whose C holds the point and g for those whose D does; a -> b is
selected when f[a] & g[b] != 0, and f is cleared on the points that are
not eroded-in, which start no pair. A build without a selection takes
f = g = 1 on every point. The points with g != 0 are the targets; their
distinct g are their k g-classes (one without a selection, at most three
for the two surfaces an estimator sums), and a cell's g-classes are k
consecutive keys, cell key times k plus class, which stay exact in
float64. The targets are sorted by (key, time); the exact complex key,
key + 1j t, sorts the same way, since numpy orders complex numbers by real
part, then imaginary part. The points with f != 0, the sources, are
grouped by f, and a group searches only the g-classes v with f & g_v != 0,
so the selection needs no test per candidate. For each step of the
(2 reach + 1)^d stencil (the own cell and every neighbour, forward and
backward), each group and each of its g-classes, two vectorised
np.searchsorted calls on that key give each source whose reach takes the
step's cell its run of targets of the class in that cell within its
padded temporal reach of its time. The bounds t - reach and t + reach
round by at most half an ulp, well within the pad. A target lies in one
cell and one class, so every ordered candidate is found once; a -> a is
among them when a is a target too. The nonempty runs are held, three
words each (at most one per source, step and class), and expanded with
np.repeat in batches of `_CHUNK` candidates, the last one shorter, a run
cut where a batch ends. So a small pattern is filtered in one batch, and
the Python steps grow with the stencil, the classes and the candidates
over `_CHUNK`, never with n or the number of cells.

`_CHUNK` candidates at a time are filtered exactly on their lags. A
candidate a -> b is kept when a != b and a's erosion limits reach both
lags (ds <= r_grid[b_r], du <= t_grid[b_t]), that is when its rectangle is
nonempty, as one key I * n + J in the smallest unsigned type that holds
n^2 - 1 (uint32 up to 65,536 points, uint64 above), and counted at its
first point. One in-place np.sort of all keys restores the (I, J) order;
the keys are distinct, so this order does not depend on the order of the
candidates. J is decoded from the keys, which are then freed, and I is
rebuilt from the counts by np.repeat. Only then are the stored pairs
binned, `_CHUNK` at a time: their lags are computed again, with the same
bits, and looked up in the grids.

A lag's first cell, np.searchsorted(grid, lag, side="left"), is looked up
in a table (`_cell_lookup`) of `_BUCKETS` buckets per cell over
[0, grid[-1]], held in the cell type. The entry of the lag's bucket, the
first cell of the bucket's low edge, is a first guess c; one step up
(when grid[c] < lag) and then one step down (when grid[c - 1] >= lag)
correct it. The result is exact on any strictly increasing grid: every
lag is then tested against the two inequalities that define its cell,
grid[c - 1] < lag <= grid[c] (with -inf and +inf past the ends), and the
lags that fail go through np.searchsorted. When every gap of the grid is
wider than a bucket, a bucket holds at most one grid value, so a lag is
at most one cell above its guess. The edges and the bucket index are
both rounded, so a lag within a few ulps of an edge can be binned on the
wrong side of it, and its guess can then be one cell too high: on a
uniform grid the edges fall on the grid values, so a lag equal to a grid
value can need the down step. So no lag of a near-uniform grid reaches
the binary search. That search costs 30-40 ns per lag when the lags
spread over the cells (less when they crowd into a few, as its branches
then predict well); the table costs about 15-20.

Subsets are selected by index arrays (np.flatnonzero, then np.take), not
by boolean masks: with numpy 2.4 a mask selection costs about 6-10 ns
per element, the index route about 2. np.take is fast by intp and by
16-bit indices but several times slower by 8-bit ones into wider arrays,
so the lookup steps never gather by the uint8 cells.

A stored pair holds its first- and second-point indices as uint16 up to
65,536 points (int32 above), and its first lag cells (a_r, a_t), the
rectangle's low corner, as the smallest unsigned type that holds the
cell counts (uint8 up to 255 cells per axis). Up to 65,536 points and
255 cells per axis, that is 6 bytes per pair that can contribute. The
keys are built from the candidates' intp indices, and every sum or
product with a stored index is taken in intp or int64: under numpy's
promotion rules uint16 times a Python int stays uint16 and wraps. The
high corner comes from the first point's erosion limits, so the geometry
keeps it once per point, as (b_r + 1)(T + 1), b_t + 1 and their sum.
While the candidates are filtered, building it holds the keys kept so
far (4 bytes per stored pair up to 65,536 points), the sweep's runs
(three words per nonempty run of a source, a step and a class) and one
batch's candidates and temporaries; then the keys twice, as the batches'
pieces and their join; and last the output arrays and one chunk's lags.
The stored arrays equal those of a plain scan over all ordered pairs
(`tests/oracles.py`).

`_k_values` sums S surfaces at once, each with its own mark masks and
reciprocal intensities: one for a K estimate, a batch of permutations'
CD and DC numerators for the random-labelling test. It runs over
`_CHUNK` stored pairs at a time. Each chunk gathers the (pairs, S)
selection mC[I] mD[J] != 0 and keeps its nonzero entries pair-major
(and, for the directional statistic, those inside the cone): an entry
holds its pair's position in the chunk, its surface's bin offset and its
weight, and each surface's entries are in pair order. A chunk of a
single surface that selects every stored pair (an estimator's own build
of one surface without a cone, or the ground K on any geometry) is summed
in place, without a gather. The weight of an entry of surface s is
1/lam[s, I] * 1/lam[s, J]; when every row of 1/lam equals the first, the
chunk's pair weights are formed once and gathered per entry, with the
same bits, since equal factors give an equal product.
`_sum_rects` forms each corner's bins once per chunk, from the chunk's
pairs, and gathers them by position. That pays when the entries
outnumber the pairs (a batch of permutations on a few thousand pairs); a
chunk with no more entries than pairs (one permutation's two surfaces on
millions of pairs) instead gathers each entry's own pair, and its bins
and weights are formed per entry, with the same values. It adds the
weights into the difference array with `np.add.at` at every chunk's
first corners, then `np.subtract.at` at every chunk's second and third,
then `np.add.at` at every chunk's fourth, each in entry order:
corner-major across all chunks. That is the order in which `np.bincount`
over the four corner lists of all pairs concatenated (with weights
w, -w, -w, w) adds into each bin, and x - w is x + (-w) exactly. Surface s
owns the bins from s (R + 1)(T + 1) on, so no bin receives another
surface's weights, and pair-major order leaves the entries of one
surface in pair order: they reach its bins in the order a sum of that
surface alone would add them. The skipped pairs change no bin either:
`Weights` admits only positive finite intensities, and the mark masks
and the cone test are 0/1, so (while the products 1/lam[I] * 1/lam[J]
are finite) a skipped pair's full weight is +0.0 and a kept pair's is
the product times 1.0; and a bin that starts at +0.0 and only ever adds
or subtracts finite values never holds -0.0, the one value for which
x + 0.0 differs from x. The denominators' point sums (`_point_surface`) run
pair-major over (eroded point, surface) in the same way and skip their
zero weights, 1/lam times a 0 mask, by the same argument. So every cell
total equals the one of the full-array layout bit for bit, for any chunk
length and for any number of surfaces summed beside it; the double
cumulative sum runs along each surface's own axes. Dropping the
empty-rectangle pairs at the build drops only corner entries that were
masked out before, so it changes no total either. Nor does a selected
build: its stored pairs are the full geometry's stored pairs that some
surface selects, in the same (I, J) order, with the same first cells,
and every pair a surface's masks keep is among them. So each surface
keeps the same entries, in the same pair order, only cut into other
chunks, and each bin receives the same additions in the same order; the
pairs left out are ones every surface skipped, which change no bin. The
denominators read the per-point arrays only, which a selection leaves as
they are.
"""

import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .geometry import cone_volume, cylinder_volume, direction_in_cone, erode_window
from .pattern import (LabelSet, _check_count, _check_retention, full_mark_set, thin, write_json,
                      write_table)

__all__ = [
    "Weights",
    "weights_from_function",
    "weights_from_estimate",
    "KSurface",
    "CylinderSet",
    "ConeSet",
    "BoxUnionSet",
    "PairGeometry",
    "pair_geometry",
    "k_measure_hat",
    "k_inhom",
    "k_ground",
    "k_smoothed",
    "k_cross_multitype",
    "k_stationary",
    "k_directional",
    "poisson_reference",
    "default_lag_grids",
]

_SCENARIOS = ("S1", "S2", "S3", "S4")


def _norm_scenario(scenario):
    s = f"S{scenario}" if isinstance(scenario, int) else str(scenario).upper()
    if s not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {_SCENARIOS}")
    return s


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------


@dataclass
class Weights:
    """Per-point intensity evaluations used as estimator weights.

    ``lam`` holds the marked intensity at each point; ``lam_ground`` the
    ground (mark-integrated) intensity, needed only by scenarios 3-4 and
    by ground-process statistics. ``floor_hits`` is the plugged estimates'
    own-point floor count (`weights_from_estimate`), derived from the
    estimates and not from how often they were evaluated; it is carried
    into surface metadata as a data-quality flag.
    """

    lam: np.ndarray = None
    lam_ground: np.ndarray = None
    source: str = "TrueIntensity"
    floor_hits: int = 0

    def __post_init__(self):
        for name in ("lam", "lam_ground"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float)
            if v.ndim != 1 or not np.all(np.isfinite(v)) or np.any(v <= 0):
                raise ValueError(f"{name} must be a 1-d array of positive finite values")
            setattr(self, name, v)

    def _require(self, name, why):
        v = getattr(self, name)
        if v is None:
            raise ValueError(f"weights.{name} is required for {why}")
        return v

    def _ground(self, why):
        """``lam_ground``, else ``lam``: an unmarked pattern's only intensity."""
        return self._require("lam" if self.lam_ground is None else "lam_ground", why)


def weights_from_function(p, marked_fn=None, ground_fn=None, source="TrueIntensity"):
    """Evaluate intensity callables at the pattern's points.

    ``marked_fn(x, t, m)`` and ``ground_fn(x, t)`` take arrays and return
    per-point intensities.
    """
    lam = None if marked_fn is None else np.asarray(marked_fn(p.x, p.t, p.marks), dtype=float)
    lam_g = None if ground_fn is None else np.asarray(ground_fn(p.x, p.t), dtype=float)
    return Weights(lam=lam, lam_ground=lam_g, source=source)


def weights_from_estimate(est, ground_est=None):
    """Plug-in weights from intensity estimates (their own-point values).
    ``floor_hits`` adds each distinct estimate's own-point floor hits once,
    so ``weights_from_estimate(g, g)`` plugs the ground estimate ``g`` in as
    both intensities and counts its hits once."""
    lam = est.weights_for_own_points()
    hits = est.floor_hits
    lam_g = None
    if ground_est is not None:
        lam_g = ground_est.weights_for_own_points()
        if ground_est is not est:
            hits += ground_est.floor_hits
    return Weights(lam=lam, lam_ground=lam_g, source="PluggedEstimate", floor_hits=hits)


# --------------------------------------------------------------------------
# structuring sets (origin-centered templates applied at each first point)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderSet:
    """Spatial ball of radius r times temporal interval [-t, t]."""

    r: float
    t: float

    def __post_init__(self):
        if not (self.r >= 0 and self.t >= 0):  # NaN fails too
            raise ValueError(f"cylinder lags must be nonnegative, not (r={self.r}, t={self.t})")

    def bounding_lags(self):
        return self.r, self.t

    def contains_lag(self, dx, dt):
        ds = np.sqrt(np.sum(np.asarray(dx, dtype=float) ** 2, axis=1))
        return (ds <= self.r) & (np.abs(dt) <= self.t)

    def volume(self, d):
        return cylinder_volume(self.r, self.t, d)


@dataclass(frozen=True)
class ConeSet:
    """Double cone (planar double wedge [phi, psi] times [-t, t]) clipped
    to spatial radius r; requires d = 2. Boundary directions are included
    (closed set)."""

    phi: float
    psi: float
    r: float
    t: float

    def __post_init__(self):
        if not -math.pi / 2 <= self.phi < math.pi / 2:
            raise ValueError("phi must lie in [-pi/2, pi/2)")
        if not self.phi < self.psi <= self.phi + math.pi:
            raise ValueError("psi must lie in (phi, phi + pi]")
        if not (self.r >= 0 and self.t >= 0):  # NaN fails too
            raise ValueError(f"cone lags must be nonnegative, not (r={self.r}, t={self.t})")

    def bounding_lags(self):
        return self.r, self.t

    def contains_lag(self, dx, dt):
        dx = np.asarray(dx, dtype=float)
        if dx.shape[1] != 2:
            raise ValueError("cone sets require two spatial dimensions")
        return (CylinderSet(self.r, self.t).contains_lag(dx, dt)
                & direction_in_cone(dx[:, 0], dx[:, 1], self.phi, self.psi))

    def volume(self, d=2):
        return cone_volume(self.phi, self.psi, self.r, self.t)


@dataclass(frozen=True)
class BoxUnionSet:
    """Union of closed axis-aligned space-time boxes around the origin.
    ``boxes`` is a tuple of (spatial_bounds, temporal_bounds) pairs, each
    spatial_bounds a tuple of per-axis (lo, hi)."""

    boxes: tuple

    def __post_init__(self):
        bounds = [b for spatial, temporal in self.boxes for b in (*spatial, temporal)]
        if (len({len(spatial) for spatial, _ in self.boxes}) != 1
                or not all(-math.inf < lo <= hi < math.inf for lo, hi in bounds)):  # NaN fails
            raise ValueError("a box union needs one box or more, all with the same spatial "
                             f"axes and finite bounds lo <= hi, not {self.boxes}")

    def bounding_lags(self):
        r2 = 0.0
        t = 0.0
        for spatial, temporal in self.boxes:
            r2 = max(r2, sum(max(lo**2, hi**2) for lo, hi in spatial))
            t = max(t, abs(temporal[0]), abs(temporal[1]))
        return math.sqrt(r2), t

    def contains_lag(self, dx, dt):
        dx = np.asarray(dx, dtype=float)
        dt = np.asarray(dt, dtype=float)
        if dx.shape[1] != len(self.boxes[0][0]):
            raise ValueError(f"boxes have {len(self.boxes[0][0])} spatial axes, not {dx.shape[1]}")
        out = np.zeros(dx.shape[0], dtype=bool)
        for spatial, temporal in self.boxes:
            ok = (dt >= temporal[0]) & (dt <= temporal[1])
            for a, (lo, hi) in enumerate(spatial):
                ok &= (dx[:, a] >= lo) & (dx[:, a] <= hi)
            out |= ok
        return out


# --------------------------------------------------------------------------
# pair geometry: everything about a (pattern, lag grid) combination that
# does not depend on marks or weights — reusable across mark permutations
# (all but an estimator's own selected build)
# --------------------------------------------------------------------------


@dataclass
class PairGeometry:
    r_grid: np.ndarray
    t_grid: np.ndarray
    I: np.ndarray            # first-point indices of the stored pairs, sorted by (I, J);
                             # uint16 up to 65,536 points, int32 above (`_index_type`)
    J: np.ndarray            # second-point indices, of the same type
    a_r: np.ndarray          # first r-cell of each stored pair's nonempty rectangle
    a_t: np.ndarray          # first t-cell; both np.min_scalar_type(max(R, T))
    pt_b_r: np.ndarray       # last r-cell where each point stays eroded-in
    pt_b_t: np.ndarray       # last t-cell where each point stays eroded-in
    ell_r: np.ndarray        # eroded spatial volumes per r-cell
    ell_t: np.ndarray        # eroded temporal lengths per t-cell
    erosion: str             # "per-cell" | "fixed"
    pair_ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the flat row offset and the column one past each point's erosion
        # limits, and their sum: the far sides and the far corner of the
        # rectangles of the pairs it starts
        ncol = self.t_grid.size + 1
        row_end = ((self.pt_b_r + 1) * ncol).astype(np.intp)
        col_end = (self.pt_b_t + 1).astype(np.intp)
        self.pair_ends = row_end, col_end, row_end + col_end

    @property
    def shape(self):
        return self.r_grid.size, self.t_grid.size


# the pair search's cell keys take at most about _KEY_BITS bits (and the
# classes at most 4 more), exact in float64: up to 4096 cells per
# axis on up to three axes, fewer on more
_KEY_BITS = 36
# the pair filter runs over _CHUNK candidates, the binning of the stored
# pairs and the surface sums over _CHUNK stored pairs at a time
_CHUNK = 1 << 16
# the difference array of an R x T grid has (R + 1)(T + 1) bins, int32-indexed
_MAX_BINS = np.iinfo(np.int32).max
# the lag-cell lookup's table holds _BUCKETS buckets per cell of a lag grid
_BUCKETS = 4


def _index_type(n):
    """The type of the point indices a geometry of ``n`` points stores:
    uint16 up to 65,536 points, int32 above (see the module notes)."""
    return np.uint16 if n <= 1 << 16 else np.int32


def _cell_lookup(grid, cell):
    """The table `_lag_cells` reads for ``grid``: the first cell of the low
    edge of each of `_BUCKETS` buckets per cell over [0, grid[-1]], in the
    cell type ``cell``; the buckets per unit lag; and the grid with -inf
    before it and +inf after it."""
    size = _BUCKETS * grid.size
    step = float(grid[-1]) / size
    table = np.searchsorted(grid, np.arange(size) * step, side="left").astype(cell)
    return table, 1.0 / step if step > 0 else 0.0, np.concatenate([[-np.inf], grid, [np.inf]])


def _lag_cells(lookup, x):
    """The first cell of each lag in ``x``, the first grid value at or above
    it: np.searchsorted(grid, x, side="left"), for the `_cell_lookup` of
    the grid, in its cell type. The bucket's cell is the first guess; one
    step up and one down correct it (the module notes say why that is
    enough on a near-uniform grid), and only the lags still off go
    through the binary search."""
    table, scale, padded = lookup
    below, above = padded[:-1], padded[1:]  # cell c lies between below[c] and above[c]
    q = x * scale
    np.clip(q, 0, table.size - 1, out=q)
    # the steps run in intp: np.take by 8-bit indices into wider arrays is slow
    c = np.take(table, q.astype(np.intp)).astype(np.intp)
    c += np.take(above, c) < x
    c -= np.take(below, c) >= x
    miss = np.flatnonzero((np.take(above, c) < x) | (np.take(below, c) >= x))
    if miss.size:
        c[miss] = np.searchsorted(above[:-1], np.take(x, miss), side="left")
    return c.astype(table.dtype)


def _candidate_pairs(space, t, reach_s, reach_t, f, g):
    """Every ordered pair a -> b with f[a] & g[b] != 0 whose second point
    lies within reach_s[a] of the first in ``space`` (one row per point)
    and within reach_t[a] of it in time ``t``, once, with some farther
    pairs (a -> a among them): (a, b) index arrays in batches of `_CHUNK`
    candidates, the last one shorter. ``f`` and ``g`` are per-point bit
    masks. The points with g != 0 are binned in spatial cells and sorted by
    cell key, g-class and time; a point with f != 0 searches each cell of
    the stencil whose box lies within its reach_s, and there the run of
    each g-class it pairs with (see the module notes)."""
    src, dst = np.flatnonzero(f), np.flatnonzero(g)
    if not src.size or not dst.size:
        return
    dim = space.shape[1]
    lo = np.min(space, axis=0)
    extent = np.max(space, axis=0) - lo
    # half the largest reach up to three axes, a whole one above: a stencil
    # of 5^d cells at d <= 3, 3^d above
    radius = np.max(np.take(reach_s, src))
    width = np.maximum(radius / (2.0 if dim <= 3 else 1.0),
                       extent / 2.0 ** (_KEY_BITS // max(dim, 3)))
    width = np.maximum(width * (1.0 + 4e-9), np.finfo(float).tiny)
    reach = (np.floor(radius / width + 1e-9) + 1).astype(np.int64)
    coords = (space - lo) / width  # in cells
    cells = coords.astype(np.int64)
    # reach empty cells past the last on each axis: a neighbour key of a
    # cell at an edge names no occupied cell across the window
    strides = np.cumprod(np.concatenate([[1], np.max(cells, axis=0)[:-1] + 1 + reach[:-1]]))
    cell_key = cells @ strides
    # the targets by (key, time), a cell's g-classes k consecutive keys;
    # complex numbers sort by real, then imaginary part
    kinds, cls = np.unique(np.take(g, dst), return_inverse=True)
    k = kinds.size
    key = np.take(cell_key, dst) * k + cls
    order = np.lexsort((np.take(t, dst), key))
    z = np.take(key, order) + 1j * np.take(t, np.take(dst, order))
    order = np.take(dst, order)
    # the sources grouped by f, each group with the g-classes it pairs with,
    # and each source with its run's bounds in its own cell and its squared
    # reach
    src = np.take(src, np.argsort(np.take(f, src), kind="stable"))
    fk, begin = np.unique(np.take(f, src), return_index=True)
    groups = [(b, e, np.flatnonzero(kinds & fu).tolist())
              for fu, b, e in zip(fk, begin.tolist(), np.append(begin[1:], src.size).tolist())]
    base = np.take(cell_key, src) * k
    ts, rt = np.take(t, src), np.take(reach_t, src)
    z_lo, z_hi = base + 1j * (ts - rt), base + 1j * (ts + rt)
    rho2 = np.take(reach_s, src) ** 2
    # per axis and step o, each source's squared distance to the box of the
    # cell o steps away on that axis, taken 1e-9 of a cell short
    frac = np.take(coords, src, axis=0) - np.take(cells, src, axis=0)
    gaps = []
    for axis, (r, w) in enumerate(zip(reach.tolist(), width.tolist())):
        steps = np.arange(-r, r + 1)[:, None]
        gap = np.maximum(steps - frac[:, axis], frac[:, axis] - 1 - steps)
        gap = np.maximum(gap - 1e-9, 0.0) * w
        gaps.append(gap * gap)
    # each source's nonempty runs, over every step of the stencil whose cell
    # lies within its reach, one per g-class its group pairs with
    live, first, runs = [], [], []
    for step in itertools.product(*(range(r + 1) for r in (2 * reach).tolist())):
        dist = gaps[0][step[0]]
        for axis in range(1, dim):
            dist = dist + gaps[axis][step[axis]]
        near = dist <= rho2
        offset = int(np.dot(np.subtract(step, reach), strides)) * k
        for b, e, classes in groups:
            q = b + np.flatnonzero(near[b:e])
            if not q.size:
                continue
            for v in classes:
                start = np.searchsorted(z, np.take(z_lo, q) + (offset + v), side="left")
                count = np.searchsorted(z, np.take(z_hi, q) + (offset + v), side="right") - start
                nonempty = np.flatnonzero(count)
                live.append(np.take(src, np.take(q, nonempty)))
                first.append(np.take(start, nonempty))
                runs.append(np.take(count, nonempty))
    if not runs:
        return
    live, first, runs = (np.concatenate(parts) for parts in (live, first, runs))
    ends = np.cumsum(runs)
    total = int(ends[-1]) if ends.size else 0
    for lo_c in range(0, total, _CHUNK):
        hi_c = min(lo_c + _CHUNK, total)
        # the runs that hold candidates lo_c .. hi_c - 1, the first and the
        # last cut to them
        s0, s1 = np.searchsorted(ends, [lo_c, hi_c - 1], side="right").tolist()
        here, begin = runs[s0:s1 + 1].copy(), first[s0:s1 + 1].copy()
        cut = lo_c - int(ends[s0] - runs[s0])
        here[0] -= cut
        begin[0] += cut
        here[-1] -= int(ends[s1]) - hi_c
        yield (np.repeat(live[s0:s1 + 1], here),
               np.take(order, np.repeat(begin - (np.cumsum(here) - here), here)
                       + np.arange(hi_c - lo_c)))


def _lags(axes, t, a, b):
    """The spatial and temporal lags of the pairs (a, b), with the same bits
    for (b, a): the coordinate differences only change sign. The per-axis
    gathers of ``axes`` (one coordinate array per spatial axis) are squared
    and summed in place: the same bits as the row gathers and sum of
    squares, in half the time."""
    ds = np.take(axes[0], b) - np.take(axes[0], a)
    ds *= ds
    for x in axes[1:]:
        dx = np.take(x, b) - np.take(x, a)
        dx *= dx
        ds += dx
    np.sqrt(ds, out=ds)
    return ds, np.abs(np.take(t, b) - np.take(t, a))


def _stored_pairs(p, r_grid, t_grid, pt_b_r, pt_b_t, select=None):
    """The ordered pairs whose rectangle of lag cells is nonempty, in (I, J)
    order, with the first cells (a_r, a_t) of that rectangle; with a
    ``select`` of per-point bit masks (f, g), only those pairs a -> b with
    f[a] & g[b] != 0.

    A pair enters the cells from its own lags (a_r, a_t) up to its first
    point's erosion limits (b_r, b_t). Its rectangle is nonempty exactly
    when ds <= r_grid[b_r] and du <= t_grid[b_t], lags that never exceed
    (r_max, t_max), or equally when a_r <= b_r and a_t <= b_t, since a
    lag's first cell is the first grid value at or above it. The lag test
    is the exact filter of the sweep's candidates (see the module notes).
    The sweep searches from each eroded-in first point, within its own
    erosion limits padded by a bound on the rounding, only the second
    points the selection pairs it with (every point without a ``select``),
    so the filter tests one orientation per candidate, a != b and its first
    point's reach. It keeps each pair as one key I * n + J and counts it at
    its first point; one sort of the keys restores (I, J) order, J is
    decoded from them and I rebuilt from the counts. Only then are the
    stored pairs binned, from their lags. The first cells come from the
    table lookup `_lag_cells`, equal to np.searchsorted on any grid, and
    every subset is selected by an index array (the module notes say why
    both)."""
    n = p.n
    eps = np.finfo(float).eps
    # the rounding pads of the spatial and the temporal reach
    pad_s = 4.0 * eps * (float(r_grid[-1]) + np.max(np.abs(p.x), initial=0.0))
    pad_t = 4.0 * eps * (float(t_grid[-1]) + np.max(np.abs(p.t), initial=0.0))
    reach_r = np.where(pt_b_r >= 0, r_grid[pt_b_r], -1.0)
    reach_t = np.where(pt_b_t >= 0, t_grid[pt_b_t], -1.0)
    # without a selection every pair is taken: f = 1 and g = 1. A point that
    # is not eroded-in starts no pair: it gets no first-point bits
    f, g = (np.ones(n, np.uint8),) * 2 if select is None else select
    f = np.where((pt_b_r >= 0) & (pt_b_t >= 0), f, 0)
    cell = np.min_scalar_type(max(r_grid.size, t_grid.size))
    index = _index_type(n)
    # the keys I * n + J: uint32 up to 65,536 points, uint64 above
    key_type = np.min_scalar_type(max(n * n - 1, 0))

    counts = np.zeros(n, dtype=np.intp)
    axes = [np.ascontiguousarray(p.x[:, d]) for d in range(p.dim)]

    def kept(a, b):
        """The key of each candidate a -> b, a != b, whose first point
        reaches both lags, counted at its first point."""
        ds, du = _lags(axes, p.t, a, b)
        keep = np.flatnonzero((ds <= np.take(reach_r, a)) & (du <= np.take(reach_t, a)) & (a != b))
        first = np.take(a, keep)
        np.add(counts, np.bincount(first, minlength=n), out=counts)
        first *= n
        first += np.take(b, keep)
        return first.astype(key_type)

    # each batch's temporaries are freed before the next, and the last
    # batch's before the keys are joined (np.concatenate needs one piece)
    pieces = [np.empty(0, key_type)] + [
        kept(a, b) for a, b in _candidate_pairs(p.x, p.t, reach_r + pad_s, reach_t + pad_t, f, g)]

    # one in-place sort of the distinct keys gives (I, J) order; J is decoded
    # while the keys are alive, I from the counts once they are freed
    key = np.concatenate(pieces)
    del pieces
    key.sort()
    J = np.empty(key.size, index)
    np.remainder(key, n, out=J, casting="unsafe")
    del key
    I = np.repeat(np.arange(n, dtype=index), counts)
    a_r, a_t = np.empty(I.size, cell), np.empty(I.size, cell)
    r_cells, t_cells = _cell_lookup(r_grid, cell), _cell_lookup(t_grid, cell)
    for start in range(0, I.size, _CHUNK):
        stop = start + _CHUNK
        ds, du = _lags(axes, p.t, I[start:stop], J[start:stop])
        a_r[start:stop] = _lag_cells(r_cells, ds)
        a_t[start:stop] = _lag_cells(t_cells, du)
    return I, J, a_r, a_t


def _check_lag_cells(n_r, n_t):
    """Reject an n_r x n_t lag grid whose difference array int32 cannot index."""
    if (n_r + 1) * (n_t + 1) > _MAX_BINS:
        raise ValueError(f"r_grid and t_grid have too many cells: {n_r} x {n_t} lags give "
                         f"{(n_r + 1) * (n_t + 1)} difference bins, more than {_MAX_BINS}")


def _checked_grids(r_grid, t_grid):
    """The lag grids as float arrays, each a nonempty, strictly increasing
    vector of finite nonnegative lags, with few enough cells (no window)."""
    grids = np.asarray(r_grid, dtype=float), np.asarray(t_grid, dtype=float)
    for g, name in zip(grids, ("r_grid", "t_grid")):
        if (g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)) or np.any(g < 0)
                or np.any(np.diff(g) <= 0)):
            raise ValueError(f"{name} must be a nonempty, strictly increasing vector "
                             "of finite nonnegative lags")
    _check_lag_cells(grids[0].size, grids[1].size)
    return grids


def _checked_lags(p, r_grid, t_grid, erosion):
    """The `_checked_grids` (the default grid for any left as None), after the
    checks of the erosion mode and of the window's erosion at the maximal lags."""
    dr, dt = default_lag_grids(p.window)
    r_grid, t_grid = _checked_grids(dr if r_grid is None else r_grid,
                                    dt if t_grid is None else t_grid)
    if erosion not in ("per-cell", "fixed"):
        raise ValueError("erosion must be 'per-cell' or 'fixed'")
    erode_window(p.window, float(r_grid[-1]), float(t_grid[-1]))  # ErosionError if too large
    return r_grid, t_grid


def pair_geometry(p, r_grid=None, t_grid=None, erosion="per-cell", *, _select=None):
    """Build the mark-independent pair/erosion geometry for a lag grid
    (default: quarter-extent 20-cell grids).

    Validates that the window survives erosion at the maximal lags. The
    result holds every ordered pair that can contribute to some cell (its
    first point eroded-in), so it can be reused across any number of
    weight/mark-set evaluations on the same point locations (e.g. mark
    permutations). The K-family evaluator, building its own geometry,
    passes the private ``_select``, the per-point bit masks of
    `_selection`, and gets only the pairs its surfaces select by the same
    rule; it keeps that geometry to itself.
    """
    r_grid, t_grid = _checked_lags(p, r_grid, t_grid, erosion)
    R, T = r_grid.size, t_grid.size
    lo, hi = p.window.spatial_bounds()
    # each point's distances to the window's spatial and temporal boundary
    margin_s = np.min(np.minimum(p.x - lo, hi - p.x), axis=1)
    margin_t = np.minimum(p.t - p.window.temporal[0], p.window.temporal[1] - p.t)
    if erosion == "per-cell":
        pt_b_r = np.searchsorted(r_grid, margin_s, side="right") - 1
        pt_b_t = np.searchsorted(t_grid, margin_t, side="right") - 1
        ell_r = np.prod([(hi[a] - lo[a]) - 2.0 * r_grid for a in range(p.dim)], axis=0)
        ell_t = p.window.temporal_length - 2.0 * t_grid
    else:
        r_max, t_max = float(r_grid[-1]), float(t_grid[-1])
        eligible = (margin_s >= r_max) & (margin_t >= t_max)
        pt_b_r = np.where(eligible, R - 1, -1)
        pt_b_t = np.where(eligible, T - 1, -1)
        ell_r = np.full(R, np.prod([(hi[a] - lo[a]) - 2.0 * r_max for a in range(p.dim)]))
        ell_t = np.full(T, p.window.temporal_length - 2.0 * t_max)
    I, J, a_r, a_t = _stored_pairs(p, r_grid, t_grid, pt_b_r, pt_b_t, _select)
    return PairGeometry(
        r_grid=r_grid, t_grid=t_grid, I=I, J=J, a_r=a_r, a_t=a_t,
        pt_b_r=pt_b_r, pt_b_t=pt_b_t, ell_r=ell_r, ell_t=ell_t,
        erosion=erosion,
    )


def _sum_rects(geom, S, chunks):
    """Per-cell sums of the weights of index rectangles on ``S`` surfaces,
    each rectangle from its first cell (a_r, a_t) to its point I's erosion
    limit, over ``chunks`` of (I, a_r, a_t, pos, off, w). A chunk holds
    rectangles (I, a_r, a_t) and entries: each entry's rectangle position
    ``pos`` in the chunk (None when there is one entry per rectangle, in
    order), its surface s's bin offset ``off``, s (R + 1)(T + 1) (0 when S
    is 1), and its weight ``w``. One difference array holds the
    four-corner sums of every surface, each in its own bins, and a double
    cumulative sum along each surface's axes recovers the cells. Each
    corner's bins are formed once per chunk, from its rectangles, and
    gathered by position. Every weight is added into its corner's bin
    corner-major across all chunks, then in chunk and entry order, so each
    bin gets the additions a sum of its surface alone would make, in the
    same order."""
    R, T = geom.shape
    ncol = T + 1
    row_end, col_end, far = geom.pair_ends
    diff = np.zeros(S * (R + 1) * ncol)
    # the first cells are cast to intp before any index arithmetic: under
    # numpy's promotion rules uint8 * int stays uint8 and wraps
    corners = ((np.add.at, lambda I, a_r, a_t: a_r.astype(np.intp) * ncol + a_t),
               (np.subtract.at, lambda I, a_r, a_t: np.take(row_end, I) + a_t),
               (np.subtract.at, lambda I, a_r, a_t: a_r.astype(np.intp) * ncol
                + np.take(col_end, I)),
               (np.add.at, lambda I, a_r, a_t: np.take(far, I)))
    for add, corner in corners:
        for I, a_r, a_t, pos, off, w in chunks:
            bins = corner(I, a_r, a_t)
            if pos is not None:
                bins = np.take(bins, pos)
            if S > 1:
                bins += off
            add(diff, bins, w)
    return np.cumsum(np.cumsum(diff.reshape(S, R + 1, ncol), axis=1), axis=2)[:, :R, :T]


def _pair_major(keep):
    """The nonzero entries of the (m, S) ``keep`` (rows are pairs or points,
    columns surfaces) in row-major order, so each surface's entries stay
    in row order: their flat indices, their rows and their surfaces (the
    rows are the flat indices, and the surfaces None, when S is 1)."""
    e = np.flatnonzero(keep)
    S = keep.shape[1]
    if S == 1:
        return e, e, None
    pos = e // S
    return e, pos, e - pos * S


def _point_surface(geom, point_w):
    """Per-cell sums of point weights over the eroded windows (rectangle
    from cell (0,0) to each point's erosion limit), one surface per row of
    the (S, n) ``point_w``. The entries run pair-major over (eroded point,
    surface), and a zero weight is skipped: it is +0.0, which changes no
    bin (see the module notes)."""
    I = np.flatnonzero((geom.pt_b_r >= 0) & (geom.pt_b_t >= 0))
    S = len(point_w)
    R, T = geom.shape
    w = np.take(point_w.T, I, axis=0)  # (eroded point, surface)
    e, pos, s = _pair_major(w)
    zeros = np.zeros(I.size, dtype=np.intp)
    off = 0 if s is None else s * ((R + 1) * (T + 1))
    return _sum_rects(geom, S, [(I, zeros, zeros, pos, off, np.take(w, e))])


def _denominator(geom, scenario, mC, mD, inv_lam, inv_lam_g, nu_C, nu_D):
    """Scenario normalization: the window measure is known (S1, S2) or the
    reciprocal ground-intensity sum (S3, S4); the mark-set masses are known
    (S1, S3) or reciprocal-intensity sums over the C and D points (S2, S4).
    The arguments after the scenario are the terms of S surfaces as
    `_stacked` returns them, and so is the result, (S, R, T). It is
    symmetric in (C, D)."""
    if scenario in ("S1", "S2"):
        window = np.outer(geom.ell_r, geom.ell_t)
    else:
        window = _point_surface(geom, inv_lam_g)
    if scenario in ("S1", "S3"):
        return window * (nu_C * nu_D)[:, None, None]
    S_C, S_D = np.split(_point_surface(geom, np.concatenate([inv_lam * mC, inv_lam * mD])), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(window > 0, S_C * S_D / window, 0.0)


def _k_values(geom, inv, mC, mD, denom, pair_test=None):
    """The minus-sampling estimate of S surfaces: row s of the (S, n)
    ``inv``, ``mC`` and ``mD`` gives surface s the weights inv[s, I] *
    inv[s, J] of its C-first, D-second stored pairs, summed per lag cell
    (each pair counts in the cells from its own lags up to its first
    point's erosion limit), over its denominator ``denom[s]``.
    ``pair_test(I, J)``, if given, returns a boolean per pair of the first-
    and second-point indices it is handed; only the pairs it passes are
    summed. Degenerate cells give 0: an empty numerator means no
    qualifying pairs, and an empty denominator means no eligible points
    were available to estimate the normalizing masses. Either way the cell
    carries no information.

    The sum runs over `_CHUNK` stored pairs at a time, all S surfaces of a
    chunk together, corner-major across all chunks. A chunk's entries are
    its selected (pair, surface) pairs, pair-major. A chunk of a single
    surface that keeps every stored pair is summed in place; otherwise an
    entry refers to its pair by position in the chunk, or, when the chunk
    has no more entries than pairs, carries its own pair. When every row of
    ``inv`` equals the first, the weights are formed once per pair and
    gathered per entry. The module notes say why every surface equals its
    own full-array sum bit for bit."""
    S, n = inv.shape
    R, T = geom.shape
    # (n, S): a pair's marks on all S surfaces are one row gather
    in_C, in_D = np.ascontiguousarray((mC != 0).T), np.ascontiguousarray((mD != 0).T)
    # equal rows give equal products
    fixed = bool(np.all(inv == inv[0]))
    flat = inv.ravel()
    chunks = []
    # np.take: gathers by uint16 or int32 indices are several times slower
    # through fancy indexing, which first converts the indices to intp
    for start in range(0, geom.I.size, _CHUNK):
        stop = start + _CHUNK
        I, J = geom.I[start:stop], geom.J[start:stop]
        a_r, a_t = geom.a_r[start:stop], geom.a_t[start:stop]
        # the selected entries, pair-major, each surface's in pair order
        pos, s = _pair_major(np.take(in_C, I, axis=0) & np.take(in_D, J, axis=0))[1:]
        if pair_test is not None:
            hit = np.flatnonzero(pair_test(np.take(I, pos), np.take(J, pos)))
            pos = np.take(pos, hit)
            if s is not None:
                s = np.take(s, hit)
        if s is None and pos.size == I.size:
            pos = None  # one surface keeps every pair: the chunk is summed in place
        elif pos.size <= I.size:
            # no more entries than pairs: each entry takes its own pair
            I, J, a_r, a_t = (np.take(v, pos) for v in (I, J, a_r, a_t))
            pos = None
        if fixed:
            w = np.take(flat, I) * np.take(flat, J)
            if pos is not None:
                w = np.take(w, pos)
        else:
            # the entries' own pairs; unequal rows come with S > 1
            first, second = (I, J) if pos is None else (np.take(I, pos), np.take(J, pos))
            row = s * n  # intp, so row + first is too
            w = np.take(flat, row + first) * np.take(flat, row + second)
        off = 0 if s is None else s * ((R + 1) * (T + 1))
        chunks.append((I, a_r, a_t, pos, off, w))
    num = _sum_rects(geom, S, chunks)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((num == 0) | (denom == 0), 0.0, num / denom)


# --------------------------------------------------------------------------
# surfaces
# --------------------------------------------------------------------------


@dataclass
class _Surface:
    """Finite values over a rectangular lag grid: ``values[i, j]`` belongs
    to (r_grid[i], t_grid[j]). ``C`` and ``D`` are the mark sets."""

    r_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    C: object
    D: object

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.r_grid.size, self.t_grid.size):
            raise ValueError("values shape does not match lag grids")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("surface values must be finite")


@dataclass
class KSurface(_Surface):
    """A K-function estimate over a rectangular lag grid.

    ``C`` and ``D`` are None for ground statistics, ``scenario`` is the
    normalizing-measure treatment, ``weights_source`` one of
    TrueIntensity / PluggedEstimate / Smoothed(n, p). ``meta`` carries
    data-quality items (floor hits, erosion mode, spread of smoothing
    replicates, degenerate-thinning count, seeds); its ``route`` names the
    pair search and is always "indexed". Its Poisson benchmark is the
    volume of each cell's lag set (`poisson_surface`).
    """

    scenario: str
    weights_source: str
    d: int
    meta: dict = field(default_factory=dict)

    def poisson_surface(self):
        """The Poisson benchmark on the same grid: the volume of each cell's
        lag set, the cylinder 2 t r^d omega_d, or the double cone of the
        wedge [phi, psi] of a `k_directional` surface."""
        r = self.r_grid.reshape(-1, 1)
        if "phi" in self.meta:
            return cone_volume(self.meta["phi"], self.meta["psi"], r, self.t_grid)
        return cylinder_volume(r, self.t_grid, self.d)

    def diff_poisson(self):
        return self.values - self.poisson_surface()

    def write_csv(self, path):
        """Long-format rows r,t,k_hat,k_poisson,diff."""
        ref = self.poisson_surface()
        r, t = np.meshgrid(self.r_grid, self.t_grid, indexing="ij")
        write_table(path, ["r", "t", "k_hat", "k_poisson", "diff"],
                    [g.ravel() for g in (r, t, self.values, ref, self.values - ref)])

    def write_meta(self, path):
        doc = {
            "C": str(self.C),
            "D": str(self.D),
            "scenario": self.scenario,
            "weights_source": self.weights_source,
            "d": self.d,
            "r_grid": self.r_grid,
            "t_grid": self.t_grid,
            "meta": self.meta,
        }
        write_json(path, doc)


def default_lag_grids(window, n=20):
    """``n``-cell lag grids (20 by default) reaching a quarter of the shorter
    spatial side and a quarter of the temporal extent; ``n`` must be a
    whole number of at least one."""
    _check_count(n, "lag cell")
    lo, hi = window.spatial_bounds()
    r_max = float(np.min(hi - lo)) / 4.0
    t_max = window.temporal_length / 4.0
    steps = np.arange(1, n + 1) / n
    return r_max * steps, t_max * steps


def poisson_reference(r_grid, t_grid, d):
    """The theoretical Poisson surface: the cylinder volumes 2 t r^d omega_d
    of the grid."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    return KSurface(
        r_grid=r_grid, t_grid=t_grid, values=cylinder_volume(r_grid.reshape(-1, 1), t_grid, d),
        C=None, D=None, scenario="theory", weights_source="Poisson", d=d,
    )


def _mark_masks(p, C, D, marks=None):
    """The 0/1 masks of C and D (None = full mark space) over the marks of
    ``p``, or over ``marks`` of its mark space in any shape (a batch of
    permutations' marks stacked); ones on an unmarked pattern."""
    if p.marks is None:
        if C is not None or D is not None:
            raise ValueError("mark sets supplied for an unmarked pattern")
        ones = np.ones(p.n)
        return ones, ones.copy()
    marks = p.marks if marks is None else marks
    C = full_mark_set(p.mark_space) if C is None else C
    D = full_mark_set(p.mark_space) if D is None else D
    return C.mask(marks).astype(float), D.mask(marks).astype(float)


def _mark_sets(p, C, D):
    """Masks and reference masses of C and D (None = full mark space);
    unit masses on an unmarked pattern."""
    mC, mD = _mark_masks(p, C, D)
    if p.marks is None:
        return mC, mD, 1.0, 1.0
    nu_C = p.nu(C) if C is not None else p.nu_total()
    nu_D = p.nu(D) if D is not None else p.nu_total()
    if nu_C <= 0 or nu_D <= 0:
        raise ValueError("mark sets must have positive reference measure")
    return mC, mD, nu_C, nu_D


def _per_point(p, lam):
    if lam.shape[0] != p.n:
        raise ValueError("weights must have one value per point")
    return lam


def _marked_terms(p, weights, C, D, scenario):
    """Everything a marked statistic needs besides the geometry, checked:
    the mark masks, 1/lam, 1/lam_ground (S3 and S4 only) and the mark-set
    masses, in the argument order of `_denominator`."""
    if p.marks is None:
        raise ValueError("marked K needs a marked pattern; use k_ground instead")
    mC, mD, nu_C, nu_D = _mark_sets(p, C, D)
    return (mC, mD, *_inverse_intensities(p, weights, scenario), nu_C, nu_D)


def _inverse_intensities(p, weights, scenario):
    """1/lam and 1/lam_ground (S3 and S4 only, else None) of ``weights`` at
    the points of ``p``, checked."""
    if weights is None:
        raise ValueError("weights are required")
    inv_lam = 1.0 / _per_point(p, weights._require("lam", "marked K estimation"))
    inv_lam_g = None
    if scenario in ("S3", "S4"):
        inv_lam_g = 1.0 / _per_point(p, weights._require("lam_ground", f"scenario {scenario}"))
    return inv_lam, inv_lam_g


def _stacked(terms):
    """The `_marked_terms` of S patterns or weightings as one batch of S
    surfaces for `_k_rows`: (S, n) masks and reciprocal intensities (None
    where absent) and (S,) mark-set masses."""
    return tuple(None if col[0] is None else np.stack(col) for col in zip(*terms))


def _selection(rows, swap=False):
    """The ordered pairs that the surfaces of ``rows``, each led by its
    (mC, mD) masks, sum, and with ``swap`` their (D, C) swaps, as per-point
    bit masks (f, g): bit s of f[a] says a is in surface s's C, bit s of
    g[b] that b is in its D, so a -> b is summed when f[a] & g[b] != 0. None
    when some surface sums every pair."""
    c, d = (np.stack([row[i] != 0 for row in rows]) for i in (0, 1))
    if swap:
        c, d = np.concatenate([c, d]), np.concatenate([d, c])
    if np.any(c.all(axis=1) & d.all(axis=1)):
        return None
    bits = (1 << np.arange(len(c))).astype(np.min_scalar_type((1 << len(c)) - 1))
    return tuple(np.bitwise_or.reduce(m * bits[:, None], axis=0) for m in (c, d))


def _geometry(p, marks, r_grid, t_grid, erosion, geometry=None):
    """The caller's precomputed geometry, checked against the call, or a new
    one for these grids, checked before `pair_geometry` is entered, as the
    other arguments are. A new geometry holds only the pairs that
    `_selection` of ``marks``, its (rows, swap), picks; a given one is
    taken to hold every pair, as `pair_geometry` builds it. An
    erosion mode of None is per-cell for a new geometry and the given
    geometry's own; a mode named beside a geometry must be its own."""
    if geometry is None:
        erosion = "per-cell" if erosion is None else erosion
        return pair_geometry(p, *_checked_lags(p, r_grid, t_grid, erosion), erosion=erosion,
                             _select=_selection(*marks))
    if r_grid is not None or t_grid is not None:
        raise ValueError("pass lag grids or a geometry, not both")
    if erosion is not None and erosion != geometry.erosion:
        raise ValueError(f"erosion {erosion!r} differs from the geometry's {geometry.erosion!r}")
    if geometry.pt_b_r.size != p.n:
        raise ValueError(f"the geometry holds {geometry.pt_b_r.size} points, "
                         f"the pattern {p.n}")
    return geometry


def _k_rows(geom, scenario, terms, swap=False, pair_test=None):
    """The evaluator's core: the (S, R, T) values of the S surfaces of the
    `_stacked` ``terms`` over their ``scenario`` denominators, summed on
    ``geom`` (``pair_test`` as in `_k_values`); with ``swap``, then their
    (D, C) swaps, each over its row's denominator, symmetric in (C, D)."""
    mC, mD, inv = terms[:3]
    denom = _denominator(geom, scenario, *terms)
    if swap:
        mC, mD = np.concatenate([mC, mD]), np.concatenate([mD, mC])
        inv, denom = np.concatenate([inv, inv]), np.concatenate([denom, denom])
    return _k_values(geom, inv, mC, mD, denom, pair_test)


def _k_surface(p, lags, scenario, rows, C, D, source, name=None, combine=None,
               pair_test=None, swap=False, **meta):
    """The one evaluator of the K family: the `_k_rows` surfaces of the
    `_marked_terms` ``rows`` (``swap`` as there), mapped by ``combine`` (by
    default to the first) to a `KSurface` over C and D of scenario ``name``
    (by default ``scenario``), with ``meta`` beside its erosion and route.
    They are summed on the `_geometry` of the estimator's ``lags``, its
    (r_grid, t_grid, erosion, geometry), which a new build selects from the
    rows' masks and their swaps, so it holds every pair they sum."""
    geom = _geometry(p, (rows, swap), *lags)
    k = _k_rows(geom, scenario, _stacked(rows), swap, pair_test)
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=k[0] if combine is None else combine(k),
        C=C, D=D, scenario=name or scenario, weights_source=source, d=p.dim,
        meta={"erosion": geom.erosion, "route": "indexed", **meta},
    )


def _children(seed, n, what):
    """The ``n`` child seed sequences spawned from ``seed``, after the
    checks of the count and of the seed."""
    _check_count(n, what)
    try:
        root = np.random.SeedSequence(seed)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad seed {seed!r}: {e}") from None
    return root.spawn(n)


def _pool(threads):
    """A context holding a pool of ``threads`` workers for `_replicates`,
    or None (run in the caller's thread) when threads is 1. One pool serves
    every `_replicates` call made inside it."""
    return ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()


def _replicates(fn, children, pool):
    """[fn(i, children[i]) for each i]; run on ``pool`` unless it is None,
    in index order either way."""
    if pool is not None:
        return list(pool.map(fn, range(len(children)), children))
    return [fn(i, child) for i, child in enumerate(children)]


def k_inhom(
    p,
    C=None,
    D=None,
    r_grid=None,
    t_grid=None,
    weights=None,
    scenario="S2",
    erosion=None,
    symmetrize=False,
    geometry=None,
):
    """Marked inhomogeneous spatio-temporal K-function estimate.

    Parameters
    ----------
    p : MarkedPattern
    C, D : mark sets (None = full mark space)
    r_grid, t_grid : lag vectors (default: quarter-extent 20-cell grids)
    weights : Weights
        Marked intensity per point; scenarios S3/S4 additionally need
        ``lam_ground``.
    scenario : {"S1", "S2", "S3", "S4"} or 1..4
        Normalizing-measure treatment: S1 all known; S2 mark-set masses
        estimated; S3 window measure estimated; S4 both (ratio form).
    erosion : {"per-cell", "fixed"}, optional
        Minus-sampling erosion varies with the lag cell (literal form) or
        is fixed at the maximal lags for all cells. None means per-cell,
        or the erosion of ``geometry`` when one is passed.
    symmetrize : bool
        Return the symmetrized estimate (mean of the CD and DC forms).
    geometry : PairGeometry, optional
        Precomputed geometry for these locations and grids (permutation
        fast path). An ``erosion`` named beside it must be its own.
    """
    scenario = _norm_scenario(scenario)
    rows = [_marked_terms(p, weights, C, D, scenario)]
    return _k_surface(p, (r_grid, t_grid, erosion, geometry), scenario, rows, C, D,
                      weights.source, swap=symmetrize,
                      combine=(lambda k: 0.5 * (k[0] + k[1])) if symmetrize else None,
                      floor_hits=weights.floor_hits, symmetrized=bool(symmetrize),
                      nu_C=float(rows[0][4]), nu_D=float(rows[0][5]))


def k_ground(p, r_grid=None, t_grid=None, weights=None, scenario="S1",
             erosion=None, geometry=None):
    """Inhomogeneous space-time K-function of the ground process.

    Uses ``weights.lam_ground`` (or ``lam`` for unmarked patterns).
    ``scenario`` is "S1" (window measures known) or "S3" (window measures
    estimated by the reciprocal-intensity sum); the mark-set scenarios do
    not arise. ``erosion`` and ``geometry`` are as in `k_inhom`.
    """
    if weights is None:
        raise ValueError("weights are required")
    scenario = _norm_scenario(scenario)
    if scenario not in ("S1", "S3"):
        raise ValueError("ground K supports scenarios S1 and S3 only")
    inv, ones = 1.0 / _per_point(p, weights._ground("ground K without lam_ground")), np.ones(p.n)
    return _k_surface(p, (r_grid, t_grid, erosion, geometry), scenario,
                      [(ones, ones, inv, inv, 1.0, 1.0)], None, None, weights.source,
                      floor_hits=weights.floor_hits, ground=True)


def k_measure_hat(p, C, D, E, weights):
    """Minus-sampling estimate of the second-order reduced moment measure
    of a single structuring set E (known window and mark-set measures).

    The window is eroded by E's circumscribing cylinder lags (r_c, t_c);
    the sum runs over ordered distinct pairs with the first point in the
    eroded window with mark in C and the second point displaced into E with
    mark in D; E is first tried on the pattern's axes. The fixed-erosion
    geometry of the eroded-in C -> D pairs at (r_c, t_c), summed in (I, J)
    order, holds every such pair on the same lags (a cylinder or cone tests
    ds itself; a box's ds rounds to at most r_c, since squaring, summing and
    sqrt are monotone under rounding). An unmarked pattern's pairs are
    weighted by its ground intensity, as in `k_ground`.
    """
    if weights is None:
        raise ValueError("weights are required")
    r_c, t_c = E.bounding_lags()
    eroded = erode_window(p.window, r_c, t_c)
    mC, mD, nu_C, nu_D = _mark_sets(p, C, D)
    if p.marks is not None:
        lam = weights._require("lam", "measure estimation")
    else:
        lam = weights._ground("an unmarked pattern's measure without lam_ground")
    inv = 1.0 / _per_point(p, lam)
    E.contains_lag(np.empty((0, p.dim)), np.empty(0))  # a set of other axes fails here
    geom = _geometry(p, ([(mC, mD)], False), [r_c], [t_c], "fixed")
    terms = [np.empty(0)]
    for start in range(0, geom.I.size, _CHUNK):
        I, J = geom.I[start:start + _CHUNK], geom.J[start:start + _CHUNK]
        keep = np.flatnonzero(E.contains_lag(
            np.take(p.x, J, axis=0) - np.take(p.x, I, axis=0), np.take(p.t, J) - np.take(p.t, I)))
        terms.append(np.take(inv, np.take(I, keep)) * np.take(inv, np.take(J, keep)))
    # one sum over all chunks' terms, so the total is independent of _CHUNK
    total = float(np.sum(np.concatenate(terms)))
    denom = eroded.spatial_volume * eroded.temporal_length * nu_C * nu_D
    return 0.0 if total == 0.0 else total / denom


def k_directional(p, C=None, D=None, phi=-math.pi / 2, psi=math.pi / 2,
                  r_grid=None, t_grid=None, weights=None, scenario="S2",
                  erosion=None, geometry=None):
    """Directional marked inhomogeneous K-function: cylinder sets replaced
    by double cones over the wedge [phi, psi]. Requires d = 2. The full
    wedge (-pi/2, pi/2] reproduces k_inhom exactly. ``erosion`` and
    ``geometry`` are as in `k_inhom`."""
    if p.dim != 2:
        raise ValueError("directional K requires two spatial dimensions")
    ConeSet(phi, psi, 1.0, 1.0)  # validate angles
    scenario = _norm_scenario(scenario)
    rows = [_marked_terms(p, weights, C, D, scenario)]

    def in_cone(I, J):
        dx = np.take(p.x, J, axis=0) - np.take(p.x, I, axis=0)
        return direction_in_cone(dx[:, 0], dx[:, 1], phi, psi)

    return _k_surface(p, (r_grid, t_grid, erosion, geometry), scenario, rows, C, D,
                      weights.source, pair_test=in_cone, phi=phi, psi=psi,
                      floor_hits=weights.floor_hits)


def k_cross_multitype(p, i, j, r_grid=None, t_grid=None, weights=None,
                      erosion=None, geometry=None):
    """i-to-j cross K-function for multitype (label-marked) patterns.

    ``weights.lam`` must hold each point's own-component ground intensity
    (the intensity of the sub-process carrying that point's label). The
    normalization uses eroded window measures only: the result does not
    depend on the label reference weights. ``i == j`` gives component i's
    space-time K-function. ``erosion`` and ``geometry`` are as in
    `k_inhom`.
    """
    if p.marks is None or not p.mark_space.is_labelled:
        raise ValueError("cross K requires a label-marked pattern")
    C, D = LabelSet([i]), LabelSet([j])
    mC, mD, inv = _marked_terms(p, weights, C, D, "S1")[:3]
    if not mC.any() or not mD.any():
        warnings.warn(f"component {j if mC.any() else i} is empty; surface is zero")
    rows = [(mC, mD, inv, None, 1.0, 1.0)]  # unit mark masses
    return _k_surface(p, (r_grid, t_grid, erosion, geometry), "S1", rows, C, D,
                      weights.source, name="cross", i=i, j=j, floor_hits=weights.floor_hits)


def k_stationary(p, C=None, D=None, r_grid=None, t_grid=None, erosion="per-cell"):
    """Stationary marked space-time K-function: constant intensity
    N/volume and empirical mark-set masses N_C N_D / N^2 plugged into the
    minus-sampling form. With C = D = full mark space this is the unmarked
    stationary estimator."""
    if p.n == 0:
        raise ValueError("stationary K needs a nonempty pattern")
    mC, mD = _mark_sets(p, C, D)[:2]
    lam_hat = p.n / p.window.volume
    n_C = float(np.sum(mC))
    n_D = float(np.sum(mD))
    # a view, so no array made here is held through the pair build (a
    # 77 kB one raised the peak RSS of the build at n = 9,642 by 0.5 MB)
    inv = np.broadcast_to(1.0 / lam_hat, p.n)
    # scenario S1 with the masses (N_C N_D / N^2, 1): x * 1.0 is x
    return _k_surface(p, (r_grid, t_grid, erosion, None), "S1",
                      [(mC, mD, inv, None, n_C * n_D / p.n**2, 1.0)], C, D, "Stationary",
                      name="stationary", n_C=n_C, n_D=n_D)


def k_smoothed(p, C=None, D=None, r_grid=None, t_grid=None, weights_builder=None,
               retention=0.5, n=10, scenario="S2", erosion="per-cell",
               symmetrize=False, seed=None, threads=1):
    """Smoothed K-function: the average of estimates over n independent
    p-thinnings of the pattern.

    ``weights_builder(thinned_pattern, retention)`` must return Weights for
    the thinned process (whose intensity is retention times the original;
    plug-in estimators refit on the thinned pattern target this
    automatically, true-intensity callers must scale by the retention).
    Thinnings left without C- or D-points contribute all-zero surfaces;
    their count is reported in the metadata, and so is ``floor_hits``, the
    sum of the other thinnings' ``Weights.floor_hits``.
    """
    _check_retention(retention)
    children = _children(seed, n, "thinning")
    _check_count(threads, "thread")
    if weights_builder is None:
        raise ValueError("a weights_builder is required")
    if p.marks is None:
        raise ValueError("smoothing is defined for marked patterns")
    scenario = _norm_scenario(scenario)
    # the mark sets', grids', erosion's and window's checks, before any thinning
    _mark_sets(p, C, D)
    r_grid, t_grid = _checked_lags(p, r_grid, t_grid, erosion)
    shape = (r_grid.size, t_grid.size)

    def one(i, child):
        q = thin(p, retention, seed=child)
        if q.n == 0:
            return None
        mC, mD = _mark_masks(q, C, D)
        if not np.any(mC) or not np.any(mD):
            return None
        w = weights_builder(q, retention)
        surf = k_inhom(q, C, D, r_grid, t_grid, w, scenario=scenario,
                       erosion=erosion, symmetrize=symmetrize)
        return surf.values, w.floor_hits

    with _pool(threads) as pool:
        results = _replicates(one, children, pool)
    degenerate = sum(1 for v in results if v is None)
    floor_hits = sum(v[1] for v in results if v is not None)
    surfaces = [np.zeros(shape) if v is None else v[0] for v in results]
    stack = np.stack(surfaces)
    mean = stack.mean(axis=0)
    spread = stack.std(axis=0, ddof=1) if n > 1 else np.zeros(shape)
    return KSurface(
        r_grid=r_grid, t_grid=t_grid, values=mean, C=C, D=D, scenario=scenario,
        weights_source=f"Smoothed(n={n}, p={retention})", d=p.dim,
        meta={"erosion": erosion, "route": "indexed", "retention": retention,
              "n_thinnings": n, "degenerate_thinnings": degenerate,
              "floor_hits": floor_hits, "seed": str(seed), "spread": spread},
    )
