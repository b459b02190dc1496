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
denominator scenarios and the stationary specialization.

Every statistic here, and every contrast surface in `inference`, reads one
`PairGeometry`, the only pair search (`_stored_pairs`). Every K-function
estimator, and every marking diagnostic in `inference`, is one evaluator,
`_k_surface`, over a resolved geometry: the terms of S surfaces stacked,
one `_k_values` sum of each surface's pair weights over the C-first,
D-second pairs of each lag cell, each divided by its scenario
`_denominator`, and the values combined into one `KSurface`. The
estimators differ only in the terms: unit mark masses for the ground and
cross K-functions, scenario S1 with the masses (N_C N_D / N^2, 1) for the
stationary one, a cone test for the directional one, and the DC surface
beside the CD one for the symmetrized form. `k_smoothed` averages
`k_inhom` over thinnings.
`k_measure_hat`, the estimate for one structuring set, sums the stored
pairs of the fixed-erosion geometry at its set's bounding lags that pass
an exact membership test. `_marked_terms` checks the marked arguments and
`_checked_lags` the lag grids (the default grid for any left out), the
erosion mode and the window before the geometry is built (and before
`k_smoothed` thins), so bad arguments fail before any pair is searched.

Implementation notes
--------------------
A pair at spatial lag ds and temporal lag du contributes to exactly the
contiguous block of grid cells {(r, t): ds <= r <= first-point spatial
margin, du <= t <= first-point temporal margin}. Each pair is therefore
accumulated at the four corners of its index rectangle in a difference
array, and a double cumulative sum recovers every cell total in one pass;
per-cell denominator sums over the eroded windows use the same device with
degenerate rectangles starting at (0, 0).

`_stored_pairs` finds each candidate pair once, with a numpy sweep over
spatial cells (`_candidate_pairs`). Time is rescaled by r_max / t_max. A
sup-metric ball of radius r_max (t_max when r_max is zero), padded by
4 eps times the radius plus the largest coordinate, contains the whole
(r_max, t_max) cylinder even after the rounding of the rescaled times and
of the lags, so the candidates are a superset of the pairs within the
maximal lags. The points are binned into cells half the radius wide on
each spatial axis, widened by 1 + 1e-9, but never narrower than the
axis's extent over 4096 (fewer cells on more than three axes), so the
cell keys stay exact as int64 and as float64, and no array is sized by
the number of cells. Two points within the radius lie at most
reach = floor(radius / width + 1e-9) + 1 cells apart on each axis, 2 at
the usual width: the cell coordinates never exceed 4096, so their
rounding is far below 1e-9 of a cell. Each axis's key stride leaves
reach empty cells past its last one, so the stencil of a cell at an edge
reaches no occupied cell across the window. The points are sorted by
(cell key, rescaled time); the exact complex key, key + 1j t, sorts the
same way, since numpy orders complex numbers by real part, then
imaginary part. For the own cell and each forward offset of the
(2 reach + 1)^d stencil, two vectorised np.searchsorted calls on that key
give each point's run of neighbours within the radius in time (in the
own cell, only the later points). The search bounds t - radius and
t + radius round by at most half an ulp, well within the padding. So
every unordered candidate is found once, from the cell with the lower
key, and no point is paired with itself. The nonempty runs of all
offsets are held, three words each (at most one per point and offset),
and expanded with np.repeat in batches of `_CHUNK` candidates, the last
one shorter, a run cut where a batch ends. So a small pattern is
filtered in one batch, and the Python steps grow with the stencil and
with the candidates over `_CHUNK`, never with n or the number of cells.

`_CHUNK` candidates at a time are filtered exactly on the unscaled lags.
ds and du are computed once per unordered pair; they have the same bits
either way round. Each orientation is kept when its first point's erosion
limits reach both lags (ds <= r_grid[b_r], du <= t_grid[b_t]), that is
when its rectangle is nonempty. A pair kept either way is binned once,
since (a_r, a_t) do not depend on the orientation, and is held unordered
with its cells. The filter also counts the kept orientations per block
of `_BLOCK` first points. The (I, J) order is then restored by a counting
sort: the output arrays are allocated once at their final length, and
each held piece's kept orientations go, in a stable order by block, to
their block's next free slots. They are picked again by the same test on
the cells, a_r <= b_r and a_t <= b_t. One sort of the keys I * n + J
inside each block then finishes the order. The keys are distinct, so this
order does not depend on the order in which the pieces arrived.

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
so the lookup steps and the counting sort's offsets never gather by the
uint8 cells or block ids.

A stored pair holds its first- and second-point indices as uint16 up to
65,536 points (int32 above), and its first lag cells (a_r, a_t), the
rectangle's low corner, as the smallest unsigned type that holds the cell
counts (uint8 up to 255 cells per axis). Up to 65,536 points and 255
cells per axis, that is 6 bytes per pair that can contribute. The indices
are gathered by and divided by `_BLOCK`, and every sum or product with
one is taken in intp or int64: under numpy's promotion rules uint16
times a Python int stays uint16 and wraps. The high corner comes from
the first point's erosion limits, so the geometry keeps it once per
point, as (b_r + 1)(T + 1), b_t + 1 and their sum. Building it holds the
unordered pieces (as many bytes per pair kept either way as a stored
pair), the output arrays, the sweep's runs (three words per nonempty run
of a point and an offset) and one batch's candidates and temporaries.
The stored arrays equal those of a plain scan over all ordered pairs
(`tests/oracles.py`).

`_k_values` sums S surfaces at once, each with its own mark masks and
reciprocal intensities: one for a K estimate, a batch of permutations'
CD and DC numerators for the random-labelling test. It runs over `_CHUNK`
stored pairs at a time. Each chunk keeps, for each surface, only its
pairs with mC[I] mD[J] != 0 (and, for the directional statistic, inside
the cone), surface by surface and each in pair order, and builds their
weights 1/lam[I] * 1/lam[J] once; a single surface builds no per-entry
surface numbers or bin offsets. It then adds the weights into the
difference array with `np.add.at` at every chunk's first corners, then
`np.subtract.at` at every chunk's second and third, then `np.add.at` at
every chunk's fourth, each in entry order: corner-major across all chunks.
That is the order in which `np.bincount` over the four corner lists of
all pairs concatenated (with weights w, -w, -w, w) adds into each bin,
and x - w is x + (-w) exactly. Surface s owns the bins from
s (R + 1)(T + 1) on, so no bin receives another surface's weights, and
the entries of one surface reach its bins in the order a sum of that
surface alone would add them. The skipped pairs change no bin either:
`Weights` admits only positive finite intensities, and the mark masks and
the cone test are 0/1, so (while the products 1/lam[I] * 1/lam[J] are
finite) a skipped pair's full weight is +0.0 and a kept pair's is the
product times 1.0; and a bin that starts at +0.0 and only ever adds or
subtracts finite values never holds -0.0, the one value for which
x + 0.0 differs from x. So every cell total equals the one of the
full-array layout bit for bit, for any chunk length and for any number
of surfaces summed beside it; the double cumulative sum runs along each
surface's own axes. Dropping the empty-rectangle pairs at the build
drops only corner entries that were masked out before, so it changes no
total either.
"""

import itertools
import math
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .geometry import (cone_volume, cylinder_volume, direction_in_cone, erode_window,
                       unit_ball_volume)
from .pattern import LabelSet, _check_retention, full_mark_set, thin, write_json, write_table

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
        ds = np.sqrt(np.sum(dx**2, axis=1))
        ok = (ds <= self.r) & (np.abs(dt) <= self.t)
        return ok & direction_in_cone(dx[:, 0], dx[:, 1], self.phi, self.psi)

    def volume(self, d=2):
        return cone_volume(self.phi, self.psi, self.r, self.t)


@dataclass(frozen=True)
class BoxUnionSet:
    """Union of closed axis-aligned space-time boxes around the origin.
    ``boxes`` is a tuple of (spatial_bounds, temporal_bounds) pairs, each
    spatial_bounds a tuple of per-axis (lo, hi)."""

    boxes: tuple

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


# the pair search's output is ordered _BLOCK first points at a time
_BLOCK = 256
# the pair search's cell keys take at most about _KEY_BITS bits, exact in
# float64: up to 4096 cells per axis on up to three axes, fewer on more
_KEY_BITS = 36
# the pair filter runs over _CHUNK candidates, the surface sums over _CHUNK
# stored pairs at a time
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


def _candidate_pairs(space, t, radius):
    """Every unordered pair of points whose coordinates in ``space`` (one row
    per point) and times ``t`` each differ by at most ``radius``, once, with
    some farther pairs: (a, b) index arrays in batches of `_CHUNK`
    candidates, the last one shorter. The points are swept in spatial
    cells, sorted by cell key and time; each point's candidates in its own
    cell and in each forward cell of the stencil are a run of that order
    (see the module notes)."""
    n, dim = space.shape
    if n < 2:
        return
    lo = np.min(space, axis=0)
    extent = np.max(space, axis=0) - lo
    width = np.maximum(radius / 2.0, extent / 2.0 ** (_KEY_BITS // max(dim, 3)))
    width = np.maximum(width * (1.0 + 1e-9), np.finfo(float).tiny)
    reach = (np.floor(radius / width + 1e-9) + 1).astype(np.int64)
    cells = ((space - lo) / width).astype(np.int64)
    # reach empty cells past the last on each axis: a neighbour key of a
    # cell at an edge names no occupied cell across the window
    strides = np.cumprod(np.concatenate([[1], np.max(cells, axis=0)[:-1] + 1 + reach[:-1]]))
    key = cells @ strides
    order = np.lexsort((t, key))
    z = key[order] + 1j * t[order]  # complex numbers sort by real, then imaginary part
    # each distinct key offset once: every pair of neighbour cells is swept
    # from the lower key
    stencil = {int(np.dot(step, strides))
               for step in itertools.product(*(range(-r, r + 1) for r in reach.tolist()))}
    # each point's nonempty runs, over the own cell and the forward offsets
    live, first, runs = [], [], []
    for offset in sorted(s for s in stencil if s >= 0):
        if offset:
            start = np.searchsorted(z, z + complex(offset, -radius), side="left")
        else:
            start = np.arange(1, n + 1)  # the later points of the own cell
        count = np.searchsorted(z, z + complex(offset, radius), side="right") - start
        nonempty = np.flatnonzero(count)
        live.append(nonempty)
        first.append(np.take(start, nonempty))
        runs.append(np.take(count, nonempty))
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
        yield (np.take(order, np.repeat(live[s0:s1 + 1], here)),
               np.take(order, np.repeat(begin - (np.cumsum(here) - here), here)
                       + np.arange(hi_c - lo_c)))


def _stored_pairs(p, r_grid, t_grid, pt_b_r, pt_b_t):
    """The ordered pairs whose rectangle of lag cells is nonempty, in (I, J)
    order, with the first cells (a_r, a_t) of that rectangle.

    A pair enters the cells from its own lags (a_r, a_t) up to its first
    point's erosion limits (b_r, b_t). Its rectangle is nonempty exactly
    when ds <= r_grid[b_r] and du <= t_grid[b_t], lags that never exceed
    (r_max, t_max), or equally when a_r <= b_r and a_t <= b_t, since a
    lag's first cell is the first grid value at or above it. This one test
    is the exact filter of the sweep's candidates (see the module notes),
    so only the pairs kept one way or the other are binned. Each coordinate
    difference the sweep bounds is at most the pair's spatial lag or its
    rescaled temporal lag, so every pair the filter keeps is found once
    the radius is padded by a bound on the rounding of the rescaled
    times. The first cells come from the table lookup `_lag_cells`, equal
    to np.searchsorted on any grid, and every subset is selected by an
    index array (the module notes say why both)."""
    n = p.n
    r_max, t_max = float(r_grid[-1]), float(t_grid[-1])
    scale = r_max / t_max if r_max > 0 and t_max > 0 else 1.0
    radius = r_max if r_max > 0 else t_max
    t = p.t * scale
    largest = max(np.max(np.abs(p.x), initial=0.0), np.max(np.abs(t), initial=0.0))
    radius += 4.0 * np.finfo(float).eps * (radius + largest)
    reach_r = np.where(pt_b_r >= 0, r_grid[pt_b_r], -1.0)
    reach_t = np.where(pt_b_t >= 0, t_grid[pt_b_t], -1.0)
    cell = np.min_scalar_type(max(r_grid.size, t_grid.size))
    index = _index_type(n)
    n_blocks = -(-n // _BLOCK)
    block = np.min_scalar_type(n_blocks)

    # each batch of candidates is filtered and binned once, and kept when
    # either orientation's first point reaches them
    pieces = []
    counts = np.zeros(n_blocks, dtype=np.int64)
    axes = [np.ascontiguousarray(p.x[:, d]) for d in range(p.dim)]
    r_cells, t_cells = _cell_lookup(r_grid, cell), _cell_lookup(t_grid, cell)
    for a, b in _candidate_pairs(p.x, t, radius):
        # per-axis gathers, squared and summed in place: the same bits
        # as the row gathers and sum of squares, in half the time
        ds = np.take(axes[0], b) - np.take(axes[0], a)
        ds *= ds
        for x in axes[1:]:
            dx = np.take(x, b) - np.take(x, a)
            dx *= dx
            ds += dx
        np.sqrt(ds, out=ds)
        du = np.abs(np.take(p.t, b) - np.take(p.t, a))
        fwd = (ds <= np.take(reach_r, a)) & (du <= np.take(reach_t, a))
        back = (ds <= np.take(reach_r, b)) & (du <= np.take(reach_t, b))
        counts += np.bincount(np.take(a, np.flatnonzero(fwd)) // _BLOCK, minlength=n_blocks)
        counts += np.bincount(np.take(b, np.flatnonzero(back)) // _BLOCK, minlength=n_blocks)
        keep = np.flatnonzero(fwd | back)
        pieces.append((np.take(a, keep).astype(index), np.take(b, keep).astype(index),
                       _lag_cells(r_cells, np.take(ds, keep)),
                       _lag_cells(t_cells, np.take(du, keep))))

    # a counting sort by block of first points: each piece's orientations
    # whose rectangle is nonempty (the reach test, on the cells) go to
    # their blocks' next free slots, then one key sort inside each block
    # restores (I, J) order
    ends = np.cumsum(counts)
    cursor = ends - counts
    stored = [np.empty(int(counts.sum()), dtype) for dtype in (index, index, cell, cell)]
    while pieces:
        a, b, a_r, a_t = pieces.pop()
        fwd = np.flatnonzero((a_r <= np.take(pt_b_r, a)) & (a_t <= np.take(pt_b_t, a)))
        back = np.flatnonzero((a_r <= np.take(pt_b_r, b)) & (a_t <= np.take(pt_b_t, b)))
        piece = [np.concatenate([np.take(first, fwd), np.take(second, back)])
                 for first, second in ((a, b), (b, a), (a_r, a_r), (a_t, a_t))]
        # block ids in the smallest unsigned type: numpy's stable argsort
        # sorts 8- and 16-bit keys by radix (a quotient cannot wrap)
        ids = (piece[0] // _BLOCK).astype(block)
        here = np.bincount(ids, minlength=n_blocks)
        # each pair's rank in the piece's stable order by block, moved to
        # its block's next free slot (the offsets repeated over the blocks'
        # runs: np.take by the uint8 ids would be slow)
        dest = np.empty(ids.size, dtype=np.intp)
        dest[np.argsort(ids, kind="stable")] = (np.arange(ids.size)
                                               + np.repeat(cursor - (np.cumsum(here) - here), here))
        cursor += here
        for out, values in zip(stored, piece):
            out[dest] = values
    for start, stop in zip((ends - counts).tolist(), ends.tolist()):
        order = np.argsort(stored[0][start:stop].astype(np.int64) * n + stored[1][start:stop])
        for out in stored:
            out[start:stop] = np.take(out[start:stop], order)
    return stored


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


def pair_geometry(p, r_grid=None, t_grid=None, erosion="per-cell"):
    """Build the mark-independent pair/erosion geometry for a lag grid
    (default: quarter-extent 20-cell grids).

    Validates that the window survives erosion at the maximal lags. The
    result can be reused across any number of weight/mark-set evaluations
    on the same point locations (e.g. mark permutations).
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
    I, J, a_r, a_t = _stored_pairs(p, r_grid, t_grid, pt_b_r, pt_b_t)
    return PairGeometry(
        r_grid=r_grid, t_grid=t_grid, I=I, J=J, a_r=a_r, a_t=a_t,
        pt_b_r=pt_b_r, pt_b_t=pt_b_t, ell_r=ell_r, ell_t=ell_t,
        erosion=erosion,
    )


def _sum_rects(geom, S, chunks):
    """Per-cell sums of the weights of index rectangles on ``S`` surfaces,
    each rectangle from its first cell (a_r, a_t) to its point I's erosion
    limit, over ``chunks`` of (w, I, a_r, a_t, off): ``off`` is each
    entry's surface s times (R + 1)(T + 1), or 0 when S is 1 (so that a
    single surface holds no array of offsets). One
    difference array holds the four-corner sums of every surface, each in
    its own bins, and a double cumulative sum along each surface's axes
    recovers the cells. Every weight is added into its corner's bin
    corner-major across all chunks, then in chunk and entry order, so each
    bin gets the additions a sum of its surface alone would make, in the
    same order."""
    R, T = geom.shape
    ncol = T + 1
    row_end, col_end, far = geom.pair_ends
    diff = np.zeros(S * (R + 1) * ncol)
    # the first cells are cast to intp before any index arithmetic: under
    # numpy's promotion rules uint8 * int stays uint8 and wraps
    for w, I, a_r, a_t, off in chunks:
        np.add.at(diff, a_r.astype(np.intp) * ncol + a_t + off, w)
    for w, I, a_r, a_t, off in chunks:
        np.subtract.at(diff, np.take(row_end, I) + a_t + off, w)
    for w, I, a_r, a_t, off in chunks:
        np.subtract.at(diff, a_r.astype(np.intp) * ncol + np.take(col_end, I) + off, w)
    for w, I, a_r, a_t, off in chunks:
        np.add.at(diff, np.take(far, I) + off, w)
    return np.cumsum(np.cumsum(diff.reshape(S, R + 1, ncol), axis=1), axis=2)[:, :R, :T]


def _point_surface(geom, point_w):
    """Per-cell sums of point weights over the eroded windows (rectangle
    from cell (0,0) to each point's erosion limit), one surface per row of
    the (S, n) ``point_w``."""
    I = np.flatnonzero((geom.pt_b_r >= 0) & (geom.pt_b_t >= 0))
    S = len(point_w)
    R, T = geom.shape
    zeros = np.zeros(S * I.size, dtype=np.intp)
    off = np.repeat(np.arange(S) * ((R + 1) * (T + 1)), I.size)
    return _sum_rects(geom, S, [(np.take(point_w, I, axis=1).ravel(), np.tile(I, S),
                                 zeros, zeros, off)])


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
    chunk together, corner-major across all chunks; the module notes say
    why every surface equals its own full-array sum bit for bit."""
    S, n = inv.shape
    R, T = geom.shape
    # (n, S): a pair's marks on all S surfaces are one row gather
    in_C, in_D = np.ascontiguousarray((mC != 0).T), np.ascontiguousarray((mD != 0).T)
    inv = inv.ravel()
    chunks = []
    # np.take: gathers by uint16 or int32 indices are several times slower
    # through fancy indexing, which first converts the indices to intp
    for start in range(0, geom.I.size, _CHUNK):
        stop = start + _CHUNK
        I, J = geom.I[start:stop], geom.J[start:stop]
        # row s: the C-first, D-second pairs of surface s
        sel = np.ascontiguousarray((np.take(in_C, I, axis=0) & np.take(in_D, J, axis=0)).T)
        # the selected entries' pairs, surface-major, each in pair order; a
        # single surface needs no array of their surfaces
        k = np.flatnonzero(sel)
        if S > 1:
            s = np.repeat(np.arange(S), np.count_nonzero(sel, axis=1))
            k -= s * I.size
        I, J = np.take(I, k), np.take(J, k)
        if pair_test is not None:
            hit = np.flatnonzero(pair_test(I, J))
            k, I, J = (np.take(v, hit) for v in (k, I, J))
            if S > 1:
                s = np.take(s, hit)
        if S > 1:
            row = s * n  # intp, so row + I is too
            w, off = np.take(inv, row + I) * np.take(inv, row + J), s * ((R + 1) * (T + 1))
        else:
            w, off = np.take(inv, I) * np.take(inv, J), 0
        chunks.append((w, I, np.take(geom.a_r[start:stop], k), np.take(geom.a_t[start:stop], k),
                       off))
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
    pair search and is always "indexed".
    """

    scenario: str
    weights_source: str
    d: int
    meta: dict = field(default_factory=dict)

    def poisson_surface(self):
        """The Poisson benchmark 2 t r^d omega_d on the same grid."""
        return poisson_reference(self.r_grid, self.t_grid, self.d).values

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
            "r_grid": [float(v) for v in self.r_grid],
            "t_grid": [float(v) for v in self.t_grid],
            "meta": _jsonable(self.meta),
        }
        write_json(path, doc)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


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
    """The theoretical Poisson surface 2 t r^d omega_d."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.outer(r_grid**d, 2.0 * t_grid) * unit_ball_volume(d)
    return KSurface(
        r_grid=r_grid, t_grid=t_grid, values=values, C=None, D=None,
        scenario="theory", weights_source="Poisson", d=d,
    )


def _mark_masks(p, C, D):
    if p.marks is None:
        if C is not None or D is not None:
            raise ValueError("mark sets supplied for an unmarked pattern")
        ones = np.ones(p.n)
        return ones, ones.copy()
    C = full_mark_set(p.mark_space) if C is None else C
    D = full_mark_set(p.mark_space) if D is None else D
    return C.mask(p.marks).astype(float), D.mask(p.marks).astype(float)


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
    if weights is None:
        raise ValueError("weights are required")
    if p.marks is None:
        raise ValueError("marked K needs a marked pattern; use k_ground instead")
    mC, mD, nu_C, nu_D = _mark_sets(p, C, D)
    inv_lam = 1.0 / _per_point(p, weights._require("lam", "marked K estimation"))
    inv_lam_g = None
    if scenario in ("S3", "S4"):
        inv_lam_g = 1.0 / _per_point(p, weights._require("lam_ground", f"scenario {scenario}"))
    return mC, mD, inv_lam, inv_lam_g, nu_C, nu_D


def _stacked(terms):
    """The `_marked_terms` of S patterns or weightings as one batch of S
    surfaces for `_denominator` and `_k_values`: (S, n) masks and
    reciprocal intensities (None where absent) and (S,) mark-set masses."""
    return tuple(None if col[0] is None else np.stack(col) for col in zip(*terms))


def _geometry(p, r_grid, t_grid, erosion, geometry=None):
    """The caller's precomputed geometry, checked against the call, or a new
    one for these grids, checked before `pair_geometry` is entered, as the
    other arguments are. An erosion mode of None is per-cell for a new
    geometry and the given geometry's own; a mode named beside a geometry
    must be its own."""
    if geometry is None:
        erosion = "per-cell" if erosion is None else erosion
        return pair_geometry(p, *_checked_lags(p, r_grid, t_grid, erosion), erosion=erosion)
    if r_grid is not None or t_grid is not None:
        raise ValueError("pass lag grids or a geometry, not both")
    if erosion is not None and erosion != geometry.erosion:
        raise ValueError(f"erosion {erosion!r} differs from the geometry's {geometry.erosion!r}")
    if geometry.pt_b_r.size != p.n:
        raise ValueError(f"the geometry holds {geometry.pt_b_r.size} points, "
                         f"the pattern {p.n}")
    return geometry


def _k_surface(p, geom, scenario, rows, C, D, source, name=None, combine=None,
               pair_test=None, **meta):
    """The one evaluator of the K family: the S surfaces whose
    `_marked_terms` are ``rows``, each over its ``scenario`` denominator,
    summed together on ``geom`` (restricted by ``pair_test`` as in
    `_k_values`), as a `KSurface` over C and D. ``combine`` maps their
    (S, R, T) values to the surface's (by default the first); ``name`` is
    its scenario (by default ``scenario``), and ``meta`` adds to its
    erosion and route."""
    terms = _stacked(rows)
    k = _k_values(geom, terms[2], terms[0], terms[1], _denominator(geom, scenario, *terms),
                  pair_test)
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=k[0] if combine is None else combine(k),
        C=C, D=D, scenario=name or scenario, weights_source=source, d=p.dim,
        meta={"erosion": geom.erosion, "route": "indexed", **meta},
    )


def _check_count(n, what):
    """Reject a count of ``what`` that is not a whole number >= 1 (or is a
    bool)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need a whole number of at least one {what}, got {n!r}")


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
    if symmetrize:  # the DC surface beside the CD one
        rows.append(_marked_terms(p, weights, D, C, scenario))
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    return _k_surface(p, geom, scenario, rows, C, D, weights.source,
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
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    return _k_surface(p, geom, scenario, [(ones, ones, inv, inv, 1.0, 1.0)], None, None,
                      weights.source, floor_hits=weights.floor_hits, ground=True)


def k_measure_hat(p, C, D, E, weights, return_report=False):
    """Minus-sampling estimate of the second-order reduced moment measure
    of a single structuring set E (known window and mark-set measures).

    The window is eroded by E's circumscribing cylinder lags (r_c, t_c);
    the sum runs over ordered distinct pairs with the first point in the
    eroded window with mark in C and the second point displaced into E with
    mark in D. It reads the fixed-erosion `pair_geometry` at (r_c, t_c),
    whose stored pairs, in (I, J) order, contain every such pair on the
    same lags (a cylinder or cone tests ds itself; a box's ds rounds to at
    most r_c, since squaring, summing and sqrt are monotone under rounding).
    An unmarked pattern's pairs are weighted by its ground intensity, as in
    `k_ground`. With ``return_report``, ``pairs`` counts those stored pairs.
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
    geom = pair_geometry(p, [r_c], [t_c], erosion="fixed")
    terms = [np.empty(0)]
    for start in range(0, geom.I.size, _CHUNK):
        I, J = geom.I[start:start + _CHUNK], geom.J[start:start + _CHUNK]
        keep = np.flatnonzero((np.take(mC, I) > 0) & (np.take(mD, J) > 0) & E.contains_lag(
            np.take(p.x, J, axis=0) - np.take(p.x, I, axis=0), np.take(p.t, J) - np.take(p.t, I)))
        terms.append(np.take(inv, np.take(I, keep)) * np.take(inv, np.take(J, keep)))
    # one sum over all chunks' terms, so the total is independent of _CHUNK
    total = float(np.sum(np.concatenate(terms)))
    denom = eroded.spatial_volume * eroded.temporal_length * nu_C * nu_D
    value = 0.0 if total == 0.0 else total / denom
    if return_report:
        return value, {"floor_hits": weights.floor_hits, "pairs": geom.I.size}
    return value


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
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)

    def in_cone(I, J):
        dx = np.take(p.x, J, axis=0) - np.take(p.x, I, axis=0)
        return direction_in_cone(dx[:, 0], dx[:, 1], phi, psi)

    return _k_surface(p, geom, scenario, rows, C, D, weights.source, pair_test=in_cone,
                      phi=phi, psi=psi, floor_hits=weights.floor_hits)


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
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    rows = [(mC, mD, inv, None, 1.0, 1.0)]  # unit mark masses
    return _k_surface(p, geom, "S1", rows, C, D, weights.source, name="cross", i=i, j=j,
                      floor_hits=weights.floor_hits)


def k_stationary(p, C=None, D=None, r_grid=None, t_grid=None, erosion="per-cell"):
    """Stationary marked space-time K-function: constant intensity
    N/volume and empirical mark-set masses N_C N_D / N^2 plugged into the
    minus-sampling form. With C = D = full mark space this is the unmarked
    stationary estimator."""
    if p.n == 0:
        raise ValueError("stationary K needs a nonempty pattern")
    mC, mD = _mark_sets(p, C, D)[:2]
    geom = _geometry(p, r_grid, t_grid, erosion)
    lam_hat = p.n / p.window.volume
    n_C = float(np.sum(mC))
    n_D = float(np.sum(mD))
    inv = np.full(p.n, 1.0 / lam_hat)
    # scenario S1 with the masses (N_C N_D / N^2, 1): x * 1.0 is x
    return _k_surface(p, geom, "S1", [(mC, mD, inv, None, n_C * n_D / p.n**2, 1.0)], C, D,
                      "Stationary", name="stationary", n_C=n_C, n_D=n_D)


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
