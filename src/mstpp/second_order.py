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

Every estimator here, and every contrast surface in `inference`, is
`_k_values` over one resolved `PairGeometry`: a pair weight summed over the
C-first, D-second pairs of each lag cell, divided by a scenario
`_denominator` (unit mark masses for the ground and cross K-functions) or
the stationary plug-in. `_marked_terms` checks the arguments before the
geometry is built, so bad arguments fail before any pair is searched.

Implementation notes
--------------------
A pair at spatial lag ds and temporal lag du contributes to exactly the
contiguous block of grid cells {(r, t): ds <= r <= first-point spatial
margin, du <= t <= first-point temporal margin}. Each pair is therefore
accumulated at the four corners of its index rectangle in a difference
array, and a double cumulative sum recovers every cell total in one pass;
per-cell denominator sums over the eroded windows use the same device with
degenerate rectangles starting at (0, 0).

Candidate pairs come from a KD-tree that holds the points with time
rescaled by r_max / t_max. Its sup-metric ball of radius r_max, padded by
a bound on the rounding of the rescaled times, contains the whole
(r_max, t_max) cylinder: it returns a superset of the pairs within the
maximal lags. The search emits the candidates of `_BLOCK` consecutive
first points at a time, sorted by (I, J), and feeds them to one blocked
pass (`_stored_pairs`). Each block is filtered exactly on the unscaled
lags (ds <= r_max, du <= t_max); every pair whose rectangle is empty,
because its lags exceed its first point's erosion limits, is dropped; the
rest are binned. A kept pair stores its first- and second-point indices
as int32 and its first lag cells (a_r, a_t), the rectangle's low corner,
as the smallest unsigned type that holds the cell counts (uint8 up to 255
cells per axis): 10 bytes per pair that can contribute. The high corner
comes from the first point's erosion limits, so the geometry keeps it
once per point, as (b_r + 1)(T + 1), b_t + 1 and their sum. Building it
holds one block's candidates at a time. The stored arrays equal those of
a plain scan over all ordered pairs (`tests/oracles.py`).

`_k_values` sums the numerator over `_CHUNK` stored pairs at a time. Each
chunk keeps only its pairs with mC[I] mD[J] != 0 (and, for the
directional statistic, inside the cone), and builds their weights
1/lam[I] * 1/lam[J] once. It then adds the weights into the difference
array with `np.add.at` at every chunk's first corners, then
`np.subtract.at` at every chunk's second and third, then `np.add.at` at
every chunk's fourth, each in pair order: corner-major across all chunks.
That is the order in which `np.bincount` over the four corner lists of
all pairs concatenated (with weights w, -w, -w, w) adds into each bin,
and x - w is x + (-w) exactly. The skipped pairs change no bin either:
`Weights` admits only positive finite intensities, and the mark masks and
the cone test are 0/1, so (while the products 1/lam[I] * 1/lam[J] are
finite) a skipped pair's full weight is +0.0 and a kept pair's is the
product times 1.0; and a bin that starts at +0.0 and only ever adds or
subtracts finite values never holds -0.0, the one value for which
x + 0.0 differs from x. So every cell total equals the one of the
full-array layout bit for bit, for any chunk length. Dropping the
empty-rectangle pairs at the build drops only corner entries that were
masked out before, so it changes no total either.
"""

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import (cone_volume, cylinder_volume, direction_in_cone, erode_window,
                       unit_ball_volume)
from .pattern import LabelSet, full_mark_set, thin

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
        if self.r < 0 or self.t < 0:
            raise ValueError("cylinder lags must be nonnegative")

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
        if self.r < 0 or self.t < 0:
            raise ValueError("cone lags must be nonnegative")

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
    I: np.ndarray            # first-point indices (int32) of the stored pairs, sorted by (I, J)
    J: np.ndarray            # second-point indices (int32)
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


# candidate pairs are searched and filtered _BLOCK first points at a time
_BLOCK = 256
# the surface sums run over _CHUNK stored pairs at a time
_CHUNK = 1 << 16
# the difference array of an R x T grid has (R + 1)(T + 1) bins, int32-indexed
_MAX_BINS = np.iinfo(np.int32).max


def _margins(p):
    lo, hi = p.window.spatial_bounds()
    margin_s = np.min(np.minimum(p.x - lo, hi - p.x), axis=1)
    margin_t = np.minimum(p.t - p.window.temporal[0], p.window.temporal[1] - p.t)
    return margin_s, margin_t


def _pairs_indexed(p, r_max, t_max):
    """Candidate ordered pairs from a KD-tree search, as (I, J) blocks of
    _BLOCK first points each, in (I, J) order.

    Time is rescaled by r_max / t_max so the (r_max, t_max) cylinder fits
    in the sup-metric ball of radius r_max. Each coordinate difference the
    tree compares is at most the pair's spatial lag or its rescaled
    temporal lag, so every pair the exact filter keeps is found once the
    radius is padded by a bound on the rounding of the rescaled times.
    Each block's first points form a small tree searched against the
    whole pattern's, so only one block's pairs are held at a time."""
    from scipy.spatial import cKDTree

    n = p.n
    if n < 2:
        return
    scale = r_max / t_max if r_max > 0 and t_max > 0 else 1.0
    radius = r_max if r_max > 0 else t_max
    coords = np.column_stack([p.x, p.t * scale])
    radius += 4.0 * np.finfo(float).eps * (radius + np.max(np.abs(coords)))
    tree = cKDTree(coords)
    for start in range(0, n, _BLOCK):
        found = cKDTree(coords[start:start + _BLOCK]).sparse_distance_matrix(
            tree, radius, p=np.inf, output_type="ndarray")
        key = (found["i"] + start) * n + found["j"]
        key.sort()
        ii, jj = np.divmod(key, n)
        keep = ii != jj
        yield ii[keep], jj[keep]


def _stored_pairs(p, blocks, r_grid, t_grid, pt_b_r, pt_b_t):
    """The candidate pairs whose rectangle of lag cells is nonempty, with
    the first cells of that rectangle, from (I, J) blocks in (I, J) order.

    A pair enters the cells from its own lags (a_r, a_t) up to its first
    point's erosion limits (b_r, b_t). Its rectangle is nonempty exactly
    when ds <= r_grid[b_r] and du <= t_grid[b_t], lags that never exceed
    (r_max, t_max): this one test is the exact filter ds <= r_max,
    du <= t_max and the empty-rectangle test together, so only the pairs
    kept are binned."""
    reach_r = np.where(pt_b_r >= 0, r_grid[pt_b_r], -1.0)
    reach_t = np.where(pt_b_t >= 0, t_grid[pt_b_t], -1.0)
    cell = np.min_scalar_type(max(r_grid.size, t_grid.size))
    out = [], [], [], []
    for I, J in blocks:
        # np.take and per-axis sums: row gathers and reductions over a short
        # axis are several times slower through fancy indexing and np.sum
        dx = np.take(p.x, J, axis=0) - np.take(p.x, I, axis=0)
        ds = np.sqrt(sum(dx[:, a] * dx[:, a] for a in range(p.dim)))
        du = np.abs(p.t[J] - p.t[I])
        keep = np.flatnonzero((ds <= reach_r[I]) & (du <= reach_t[I]))
        I, J = I[keep], J[keep]
        out[0].append(I.astype(np.int32))
        out[1].append(J.astype(np.int32))
        out[2].append(np.searchsorted(r_grid, ds[keep], side="left").astype(cell))
        out[3].append(np.searchsorted(t_grid, du[keep], side="left").astype(cell))
    # one array at a time, each block list freed once joined, so the joined
    # arrays and the block lists coexist for one array only
    stored = []
    for parts, dtype in zip(out, (np.int32, np.int32, cell, cell)):
        stored.append(np.concatenate(parts) if parts else np.empty(0, dtype))
        parts.clear()
    return stored


def pair_geometry(p, r_grid, t_grid, erosion="per-cell"):
    """Build the mark-independent pair/erosion geometry for a lag grid.

    Validates that the window survives erosion at the maximal lags. The
    result can be reused across any number of weight/mark-set evaluations
    on the same point locations (e.g. mark permutations).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    for g, name in ((r_grid, "r_grid"), (t_grid, "t_grid")):
        if g.ndim != 1 or g.size == 0 or np.any(g < 0) or np.any(np.diff(g) <= 0):
            raise ValueError(f"{name} must be a nonempty, strictly increasing vector "
                             "of nonnegative lags")
    R, T = r_grid.size, t_grid.size
    if (R + 1) * (T + 1) > _MAX_BINS:
        raise ValueError("r_grid and t_grid have too many cells")
    if erosion not in ("per-cell", "fixed"):
        raise ValueError("erosion must be 'per-cell' or 'fixed'")
    r_max, t_max = float(r_grid[-1]), float(t_grid[-1])
    erode_window(p.window, r_max, t_max)  # raises ErosionError if too large

    margin_s, margin_t = _margins(p)
    lo, hi = p.window.spatial_bounds()
    if erosion == "per-cell":
        pt_b_r = np.searchsorted(r_grid, margin_s, side="right") - 1
        pt_b_t = np.searchsorted(t_grid, margin_t, side="right") - 1
        ell_r = np.prod([(hi[a] - lo[a]) - 2.0 * r_grid for a in range(p.dim)], axis=0)
        ell_t = p.window.temporal_length - 2.0 * t_grid
    else:
        eligible = (margin_s >= r_max) & (margin_t >= t_max)
        pt_b_r = np.where(eligible, R - 1, -1)
        pt_b_t = np.where(eligible, T - 1, -1)
        ell_r = np.full(R, np.prod([(hi[a] - lo[a]) - 2.0 * r_max for a in range(p.dim)]))
        ell_t = np.full(T, p.window.temporal_length - 2.0 * t_max)
    I, J, a_r, a_t = _stored_pairs(p, _pairs_indexed(p, r_max, t_max),
                                   r_grid, t_grid, pt_b_r, pt_b_t)
    return PairGeometry(
        r_grid=r_grid, t_grid=t_grid, I=I, J=J, a_r=a_r, a_t=a_t,
        pt_b_r=pt_b_r, pt_b_t=pt_b_t, ell_r=ell_r, ell_t=ell_t,
        erosion=erosion,
    )


def _sum_rects(geom, chunks):
    """Per-cell sums of the weights of index rectangles, each from its first
    cell (a_r, a_t) to its point I's erosion limit, over ``chunks`` of
    (w, I, a_r, a_t): a four-corner difference array and a double
    cumulative sum. Every weight is added into its corner's bin
    corner-major across all chunks, then in chunk and pair order."""
    R, T = geom.shape
    ncol = T + 1
    row_end, col_end, far = geom.pair_ends
    diff = np.zeros((R + 1) * (T + 1))
    # the first cells are cast to intp before any index arithmetic: under
    # numpy's promotion rules uint8 * int stays uint8 and wraps
    for w, I, a_r, a_t in chunks:
        np.add.at(diff, a_r.astype(np.intp) * ncol + a_t, w)
    for w, I, a_r, a_t in chunks:
        np.subtract.at(diff, np.take(row_end, I) + a_t, w)
    for w, I, a_r, a_t in chunks:
        np.subtract.at(diff, a_r.astype(np.intp) * ncol + np.take(col_end, I), w)
    for w, I, a_r, a_t in chunks:
        np.add.at(diff, np.take(far, I), w)
    return np.cumsum(np.cumsum(diff.reshape(R + 1, T + 1), axis=0), axis=1)[:R, :T]


def _point_surface(geom, point_w):
    """Per-cell sums of point weights over the eroded windows (rectangle
    from cell (0,0) to each point's erosion limit)."""
    I = np.flatnonzero((geom.pt_b_r >= 0) & (geom.pt_b_t >= 0))
    zeros = np.zeros(I.size, dtype=np.intp)
    return _sum_rects(geom, [(np.asarray(point_w, dtype=float)[I], I, zeros, zeros)])


def _denominator(geom, scenario, mC, mD, inv_lam, inv_lam_g, nu_C, nu_D):
    """Scenario normalization: the window measure is known (S1, S2) or the
    reciprocal ground-intensity sum (S3, S4); the mark-set masses are known
    (S1, S3) or reciprocal-intensity sums over the C and D points (S2, S4).
    The arguments after the scenario are the terms `_marked_terms` returns.
    It is symmetric in (C, D)."""
    if scenario in ("S1", "S2"):
        window = np.outer(geom.ell_r, geom.ell_t)
    else:
        window = _point_surface(geom, inv_lam_g)
    if scenario in ("S1", "S3"):
        return window * (nu_C * nu_D)
    S_C = _point_surface(geom, inv_lam * mC)
    S_D = _point_surface(geom, inv_lam * mD)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(window > 0, S_C * S_D / window, 0.0)


def _k_values(geom, inv, mC, mD, denom, pair_test=None):
    """The minus-sampling estimate: the weights inv[I] * inv[J] of the
    C-first, D-second stored pairs summed per lag cell (each pair counts in
    the cells from its own lags up to its first point's erosion limit),
    over the denominator. ``pair_test(I, J)``, if given, returns a boolean
    per pair of the first- and second-point indices it is handed; only the
    pairs it passes are summed. Degenerate cells give 0: an empty
    numerator means no qualifying pairs, and an empty denominator means no
    eligible points were available to estimate the normalizing masses.
    Either way the cell carries no information.

    The sum runs chunk by chunk, corner-major across all chunks; the module
    notes say why it equals the full-array sum bit for bit."""
    in_C, in_D = mC != 0, mD != 0
    chunks = []
    # np.take: gathers by int32 indices are several times slower through
    # fancy indexing, which first converts the indices to intp
    for start in range(0, geom.I.size, _CHUNK):
        stop = start + _CHUNK
        I, J = geom.I[start:stop], geom.J[start:stop]
        k = np.flatnonzero(np.take(in_C, I) & np.take(in_D, J))
        I, J = np.take(I, k), np.take(J, k)
        if pair_test is not None:
            hit = np.flatnonzero(pair_test(I, J))
            k, I, J = np.take(k, hit), np.take(I, hit), np.take(J, hit)
        chunks.append((np.take(inv, I) * np.take(inv, J), I,
                       np.take(geom.a_r[start:stop], k), np.take(geom.a_t[start:stop], k)))
    num = _sum_rects(geom, chunks)
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
        import csv

        ref = self.poisson_surface()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "t", "k_hat", "k_poisson", "diff"])
            for i, r in enumerate(self.r_grid):
                for j, t in enumerate(self.t_grid):
                    w.writerow(
                        [repr(float(r)), repr(float(t)), repr(float(self.values[i, j])),
                         repr(float(ref[i, j])), repr(float(self.values[i, j] - ref[i, j]))]
                    )

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
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    """20-cell lag grids reaching a quarter of the shorter spatial side and
    a quarter of the temporal extent."""
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


def _lag_grids(p, r_grid, t_grid):
    """The caller's lag grids, with the default grid for any left out."""
    dr, dt = default_lag_grids(p.window)
    return dr if r_grid is None else r_grid, dt if t_grid is None else t_grid


def _geometry(p, r_grid, t_grid, erosion, geometry=None):
    """The caller's precomputed geometry, or a new one for these grids."""
    if geometry is not None:
        return geometry
    return pair_geometry(p, *_lag_grids(p, r_grid, t_grid), erosion=erosion)


def _replicates(fn, n, seed, threads):
    """[fn(i, child_i) for i < n], the child seeds spawned from ``seed``;
    run on a thread pool when threads > 1, in index order either way."""
    children = np.random.SeedSequence(seed).spawn(n)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n), children))
    return [fn(i, child) for i, child in enumerate(children)]


def k_inhom(
    p,
    C=None,
    D=None,
    r_grid=None,
    t_grid=None,
    weights=None,
    scenario="S2",
    erosion="per-cell",
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
    erosion : {"per-cell", "fixed"}
        Minus-sampling erosion varies with the lag cell (literal form) or
        is fixed at the maximal lags for all cells.
    symmetrize : bool
        Return the symmetrized estimate (mean of the CD and DC forms).
    geometry : PairGeometry, optional
        Precomputed geometry for these locations and grids (permutation
        fast path); ``erosion`` is taken from it.
    """
    scenario = _norm_scenario(scenario)
    terms = _marked_terms(p, weights, C, D, scenario)
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    mC, mD, inv_lam, _, nu_C, nu_D = terms
    denom = _denominator(geom, scenario, *terms)
    values = _k_values(geom, inv_lam, mC, mD, denom)
    if symmetrize:  # the denominator is symmetric in (C, D)
        values = 0.5 * (values + _k_values(geom, inv_lam, mD, mC, denom))
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=values,
        C=C, D=D, scenario=scenario, weights_source=weights.source, d=p.dim,
        meta={
            "erosion": geom.erosion,
            "route": "indexed",
            "floor_hits": weights.floor_hits,
            "symmetrized": bool(symmetrize),
            "nu_C": float(nu_C),
            "nu_D": float(nu_D),
        },
    )


def k_ground(p, r_grid=None, t_grid=None, weights=None, scenario="S1",
             erosion="per-cell", geometry=None):
    """Inhomogeneous space-time K-function of the ground process.

    Uses ``weights.lam_ground`` (or ``lam`` for unmarked patterns).
    ``scenario`` is "S1" (window measures known) or "S3" (window measures
    estimated by the reciprocal-intensity sum); the mark-set scenarios do
    not arise.
    """
    if weights is None:
        raise ValueError("weights are required")
    scenario = _norm_scenario(scenario)
    if scenario not in ("S1", "S3"):
        raise ValueError("ground K supports scenarios S1 and S3 only")
    lam_g = weights.lam_ground if weights.lam_ground is not None else weights.lam
    if lam_g is None:
        raise ValueError("weights.lam_ground (or lam) is required")
    inv = 1.0 / _per_point(p, lam_g)
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    ones = np.ones(p.n)
    denom = _denominator(geom, scenario, ones, ones, inv, inv, 1.0, 1.0)
    values = _k_values(geom, inv, ones, ones, denom)
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=values, C=None, D=None,
        scenario=scenario, weights_source=weights.source, d=p.dim,
        meta={"erosion": geom.erosion, "route": "indexed",
              "floor_hits": weights.floor_hits, "ground": True},
    )


def k_measure_hat(p, C, D, E, weights, return_report=False):
    """Minus-sampling estimate of the second-order reduced moment measure
    of a single structuring set E (known window and mark-set measures).

    The window is eroded by E's circumscribing cylinder lags; the sum runs
    over ordered distinct pairs with the first point in the eroded window
    with mark in C and the second point displaced into E with mark in D.
    The candidate pairs come from the KD-tree search of `pair_geometry`
    at E's bounding lags, whose padded ball contains E, so the same pairs
    are summed in the same (I, J) order as by a scan of all pairs. With
    ``return_report``, ``pairs`` counts those candidates: the ordered
    pairs the tree returns, before E's exact membership test.
    """
    r_c, t_c = E.bounding_lags()
    erode_window(p.window, r_c, t_c)
    mC, mD, nu_C, nu_D = _mark_sets(p, C, D)
    if p.marks is not None:
        lam = weights._require("lam", "measure estimation")
    else:
        lam = weights.lam if weights.lam is not None else weights._require(
            "lam_ground", "measure estimation on an unmarked pattern"
        )
    inv = 1.0 / _per_point(p, lam)
    margin_s, margin_t = _margins(p)
    first = (margin_s >= r_c) & (margin_t >= t_c) & (mC > 0)
    pairs, terms = 0, [np.empty(0)]
    for I, J in _pairs_indexed(p, r_c, t_c):
        pairs += I.size
        keep = first[I] & (mD[J] > 0) & E.contains_lag(p.x[J] - p.x[I], p.t[J] - p.t[I])
        terms.append(inv[I[keep]] * inv[J[keep]])
    # one sum over all blocks' terms, so the total is independent of _BLOCK
    total = float(np.sum(np.concatenate(terms)))
    eroded = erode_window(p.window, r_c, t_c)
    denom = eroded.spatial_volume * eroded.temporal_length * nu_C * nu_D
    value = 0.0 if total == 0.0 else total / denom
    if return_report:
        return value, {"floor_hits": weights.floor_hits, "pairs": pairs}
    return value


def k_directional(p, C=None, D=None, phi=-math.pi / 2, psi=math.pi / 2,
                  r_grid=None, t_grid=None, weights=None, scenario="S2",
                  erosion="per-cell", geometry=None):
    """Directional marked inhomogeneous K-function: cylinder sets replaced
    by double cones over the wedge [phi, psi]. Requires d = 2. The full
    wedge (-pi/2, pi/2] reproduces k_inhom exactly."""
    if p.dim != 2:
        raise ValueError("directional K requires two spatial dimensions")
    ConeSet(phi, psi, 1.0, 1.0)  # validate angles
    scenario = _norm_scenario(scenario)
    terms = _marked_terms(p, weights, C, D, scenario)
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    mC, mD, inv_lam = terms[:3]

    def in_cone(I, J):
        dx = np.take(p.x, J, axis=0) - np.take(p.x, I, axis=0)
        return direction_in_cone(dx[:, 0], dx[:, 1], phi, psi)

    values = _k_values(geom, inv_lam, mC, mD, _denominator(geom, scenario, *terms),
                       pair_test=in_cone)
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=values, C=C, D=D,
        scenario=scenario, weights_source=weights.source, d=p.dim,
        meta={"erosion": geom.erosion, "route": "indexed", "phi": phi, "psi": psi,
              "floor_hits": weights.floor_hits},
    )


def k_cross_multitype(p, i, j, r_grid=None, t_grid=None, weights=None,
                      erosion="per-cell", geometry=None):
    """i-to-j cross K-function for multitype (label-marked) patterns.

    ``weights.lam`` must hold each point's own-component ground intensity
    (the intensity of the sub-process carrying that point's label). The
    normalization uses eroded window measures only: the result does not
    depend on the label reference weights. ``i == j`` gives component i's
    space-time K-function.
    """
    if p.marks is None or not p.mark_space.is_labelled:
        raise ValueError("cross K requires a label-marked pattern")
    C, D = LabelSet([i]), LabelSet([j])
    mC, mD, inv = _marked_terms(p, weights, C, D, "S1")[:3]
    if not mC.any() or not mD.any():
        warnings.warn(f"component {j if mC.any() else i} is empty; surface is zero")
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    denom = _denominator(geom, "S1", mC, mD, inv, None, 1.0, 1.0)  # unit mark masses
    values = _k_values(geom, inv, mC, mD, denom)
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=values,
        C=C, D=D, scenario="cross",
        weights_source=weights.source, d=p.dim,
        meta={"erosion": geom.erosion, "route": "indexed", "i": i, "j": j,
              "floor_hits": weights.floor_hits},
    )


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
    denom = np.outer(geom.ell_r, geom.ell_t) * (n_C * n_D / p.n**2)
    values = _k_values(geom, inv, mC, mD, denom)
    return KSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=values, C=C, D=D,
        scenario="stationary", weights_source="Stationary", d=p.dim,
        meta={"erosion": geom.erosion, "route": "indexed",
              "n_C": n_C, "n_D": n_D},
    )


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
    their count is reported in the metadata.
    """
    if not 0.0 < retention < 1.0:
        raise ValueError("retention must lie in (0, 1)")
    if n < 1:
        raise ValueError("need at least one thinning")
    if weights_builder is None:
        raise ValueError("a weights_builder is required")
    if p.marks is None:
        raise ValueError("smoothing is defined for marked patterns")
    scenario = _norm_scenario(scenario)
    _mark_sets(p, C, D)  # the mark sets' checks, before any thinning
    r_grid, t_grid = _lag_grids(p, r_grid, t_grid)
    shape = (np.asarray(r_grid).size, np.asarray(t_grid).size)

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
        return surf.values

    results = _replicates(one, n, seed, threads)
    degenerate = sum(1 for v in results if v is None)
    surfaces = [np.zeros(shape) if v is None else v for v in results]
    stack = np.stack(surfaces)
    mean = stack.mean(axis=0)
    spread = stack.std(axis=0, ddof=1) if n > 1 else np.zeros(shape)
    return KSurface(
        r_grid=np.asarray(r_grid, dtype=float), t_grid=np.asarray(t_grid, dtype=float),
        values=mean, C=C, D=D, scenario=scenario,
        weights_source=f"Smoothed(n={n}, p={retention})", d=p.dim,
        meta={"erosion": erosion, "route": "indexed", "retention": retention,
              "n_thinnings": n, "degenerate_thinnings": degenerate,
              "seed": str(seed), "spread": spread},
    )
