"""Reference implementations used as test oracles.

Everything here is written as directly as possible from the estimator
definitions — plain Python loops over ordered pairs, one lag cell at a
time — with none of the difference-array, sorting, or indexing machinery
of the library code. Slow on purpose; tests keep N small. Two sections
instead keep a library kernel as it was before it was optimized (the brute
nearest-generator search and the full-array pair geometry, whose pairs
come from a plain scan instead of the library's cell sweep), as references
the optimized kernels must match exactly; so does the row-by-row catalog
reader.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from mstpp.pattern import MarkedPattern


def margins(p):
    """Distance of each point to the window boundary: (spatial, temporal)."""
    lo, hi = p.window.spatial_bounds()
    ms = np.min(np.minimum(p.x - lo, hi - p.x), axis=1)
    tlo, thi = p.window.temporal
    mt = np.minimum(p.t - tlo, thi - p.t)
    return ms, mt


def k_cells_oracle(p, r_grid, t_grid, lam, *, lam_ground=None, c_mask=None,
                   d_mask=None, nu_c=1.0, nu_d=1.0, scenario="S1",
                   erosion="per-cell", pair_ok=None):
    """K-surface by direct evaluation of the definition, cell by cell.
    ``pair_ok``, if given, is an (n, n) boolean matrix of extra ordered-pair
    eligibility (e.g. direction membership)."""
    n = p.n
    lam = np.asarray(lam, dtype=float)
    lam_g = lam if lam_ground is None else np.asarray(lam_ground, dtype=float)
    c_mask = np.ones(n, dtype=bool) if c_mask is None else np.asarray(c_mask, dtype=bool)
    d_mask = np.ones(n, dtype=bool) if d_mask is None else np.asarray(d_mask, dtype=bool)
    ms, mt = margins(p)
    ds = np.sqrt(np.sum((p.x[:, None, :] - p.x[None, :, :]) ** 2, axis=2))
    du = np.abs(p.t[:, None] - p.t[None, :])
    lo, hi = p.window.spatial_bounds()
    sides = hi - lo
    t_len = p.window.temporal_length
    r_max, t_max = float(r_grid[-1]), float(t_grid[-1])

    out = np.zeros((r_grid.size, t_grid.size))
    for a, r in enumerate(r_grid):
        for b, t in enumerate(t_grid):
            if erosion == "per-cell":
                elig = (ms >= r) & (mt >= t)
                ell = float(np.prod(sides - 2.0 * r)) * (t_len - 2.0 * t)
            else:
                elig = (ms >= r_max) & (mt >= t_max)
                ell = float(np.prod(sides - 2.0 * r_max)) * (t_len - 2.0 * t_max)
            num = 0.0
            for i in range(n):
                if not (elig[i] and c_mask[i]):
                    continue
                for j in range(n):
                    if j == i or not d_mask[j]:
                        continue
                    if pair_ok is not None and not pair_ok[i, j]:
                        continue
                    if ds[i, j] <= r and du[i, j] <= t:
                        num += 1.0 / (lam[i] * lam[j])
            if num == 0.0:
                out[a, b] = 0.0
                continue
            s_c = float(np.sum(1.0 / lam[elig & c_mask]))
            s_d = float(np.sum(1.0 / lam[elig & d_mask]))
            g = float(np.sum(1.0 / lam_g[elig]))
            if scenario == "S1":
                denom = ell * nu_c * nu_d
            elif scenario == "S2":
                denom = s_c * s_d / ell
            elif scenario == "S3":
                denom = nu_c * nu_d * g
            else:
                denom = s_c * s_d / g
            out[a, b] = 0.0 if denom == 0.0 else num / denom
    return out


def measure_oracle(p, contains, r_e, t_e, lam, *, c_mask=None, d_mask=None,
                   nu_c=1.0, nu_d=1.0):
    """Reduced-moment-measure estimate for one structuring set, where
    ``contains(dx, dt)`` decides membership of the signed lag."""
    n = p.n
    lam = np.asarray(lam, dtype=float)
    c_mask = np.ones(n, dtype=bool) if c_mask is None else np.asarray(c_mask, dtype=bool)
    d_mask = np.ones(n, dtype=bool) if d_mask is None else np.asarray(d_mask, dtype=bool)
    ms, mt = margins(p)
    lo, hi = p.window.spatial_bounds()
    ell = float(np.prod((hi - lo) - 2.0 * r_e)) * (p.window.temporal_length - 2.0 * t_e)
    num = 0.0
    for i in range(n):
        if not (c_mask[i] and ms[i] >= r_e and mt[i] >= t_e):
            continue
        for j in range(n):
            if j == i or not d_mask[j]:
                continue
            if contains(p.x[j] - p.x[i], p.t[j] - p.t[i]):
                num += 1.0 / (lam[i] * lam[j])
    return num / (ell * nu_c * nu_d)


def voronoi_masses_oracle(p, n_space, n_time, chunk=200_000):
    """Ground-tessellation cell masses by midpoint labeling on an
    independent grid: nearest generator under max(spatial Euclid, |dt|),
    ties to the lowest index."""
    lo, hi = p.window.spatial_bounds()
    axes = [lo[a] + (np.arange(n_space) + 0.5) * (hi[a] - lo[a]) / n_space
            for a in range(p.dim)]
    tlo, thi = p.window.temporal
    t_axis = tlo + (np.arange(n_time) + 0.5) * (thi - tlo) / n_time
    mesh = np.meshgrid(*axes, indexing="ij")
    space_nodes = np.column_stack([m.ravel() for m in mesh])
    vol = p.window.volume / (n_space ** p.dim * n_time)
    masses = np.zeros(p.n)
    # the spatial distances are the same in every time slice
    space_d = [np.sqrt(np.sum((space_nodes[s:s + chunk, None, :] - p.x[None, :, :]) ** 2, axis=2))
               for s in range(0, space_nodes.shape[0], chunk)]
    # one time slice at a time keeps the node array small at high resolution
    for tv in t_axis:
        dt = np.abs(tv - p.t)[None, :]
        for blk_d in space_d:
            d = np.maximum(blk_d, dt)
            lab = np.argmin(d, axis=1)
            masses += np.bincount(lab, minlength=p.n) * vol
    return masses


def marked_masses_oracle(p, n_space, n_time, n_mark, chunk=100_000):
    """Marked-tessellation cell masses on an independent grid under the
    full metric: max-combination for interval marks, additive for labels.
    Interval reference must be Lebesgue; labels use unit counting weights."""
    labelled = p.mark_space.is_labelled
    lo, hi = p.window.spatial_bounds()
    axes = [lo[a] + (np.arange(n_space) + 0.5) * (hi[a] - lo[a]) / n_space
            for a in range(p.dim)]
    tlo, thi = p.window.temporal
    axes.append(tlo + (np.arange(n_time) + 0.5) * (thi - tlo) / n_time)
    if labelled:
        mark_nodes = np.arange(1, p.mark_space.k + 1, dtype=float)
        mark_w = np.ones(mark_nodes.size)
    else:
        mlo, mhi = p.mark_space.lo, p.mark_space.hi
        mark_nodes = mlo + (np.arange(n_mark) + 0.5) * (mhi - mlo) / n_mark
        mark_w = np.full(n_mark, (mhi - mlo) / n_mark)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    vol = p.window.volume / (n_space ** p.dim * n_time)
    masses = np.zeros(p.n)
    for s in range(0, nodes.shape[0], chunk):
        blk = nodes[s:s + chunk]
        d2 = np.sum((blk[:, None, :-1] - p.x[None, :, :]) ** 2, axis=2)
        base = np.maximum(np.sqrt(d2), np.abs(blk[:, None, -1] - p.t[None, :]))
        for z, w in zip(mark_nodes, mark_w):
            dm = np.abs(z - p.marks)[None, :]
            d = base + dm if labelled else np.maximum(base, dm)
            lab = np.argmin(d, axis=1)
            masses += np.bincount(lab, minlength=p.n) * (vol * w)
    return masses


def mc_volume(indicator, r, t, d, n_samples, seed):
    """Monte-Carlo volume of a lag set inside the bounding box
    [-r, r]^d x [-t, t]; ``indicator(dx, dt)`` maps sample arrays
    ((n, d), (n,)) to a boolean array."""
    rng = np.random.default_rng(seed)
    dx = rng.uniform(-r, r, size=(n_samples, d))
    dt = rng.uniform(-t, t, size=n_samples)
    box = (2.0 * r) ** d * (2.0 * t)
    return box * float(np.mean(indicator(dx, dt)))


def wedge_contains(dx, phi, psi):
    """Double-wedge direction membership via plain angle arithmetic:
    the angle of dx or of -dx lies in [phi, psi] (closed)."""
    ang = math.atan2(dx[1], dx[0])
    for a in (ang, ang + math.pi if ang <= 0 else ang - math.pi):
        if phi - 1e-15 <= a <= psi + 1e-15:
            return True
    return False


# --------------------------------------------------------------------------
# brute nearest-generator search: every query against every generator
#
# The library's search before it pruned generators by tile bounding boxes,
# kept verbatim as the reference for the pruned search. A metric is
# (groups, join) as in mstpp.intensity.
# --------------------------------------------------------------------------


def _sq_dists(block, gens):
    """Squared Euclidean distances accumulated one coordinate at a time —
    the same summation order as reducing stacked differences, so results
    are bit-identical, without materializing the 3-d intermediate."""
    d2 = (block[:, 0, None] - gens[None, :, 0]) ** 2
    for k in range(1, block.shape[1]):
        d2 += (block[:, k, None] - gens[None, :, k]) ** 2
    return d2


def _space_part(metric, block, gens):
    """The metric before the mark joins: max over the coordinate groups of
    the squared distance within each (only those leading columns are read),
    rooted when the mark is added."""
    groups, join = metric
    d2, col = None, 0
    for size in groups:
        sq = _sq_dists(block[:, col : col + size], gens[:, col : col + size])
        d2 = sq if d2 is None else np.maximum(d2, sq, out=d2)
        col += size
    return np.sqrt(d2) if join == "add" else d2


def _join_mark(join, part, dm, out):
    """Join absolute mark differences ``dm`` to the space part."""
    if join == "add":
        return np.add(part, dm, out=out)
    return np.maximum(part, dm * dm, out=out)


def nearest_oracle(metric, queries, gens, chunk):
    """Index of each query row's nearest generator row, ``chunk`` queries at
    a time; the mark, if the metric has one, is the last column. argmin
    keeps the first occurrence, so ties go to the lowest generator index."""
    join = metric[1]
    labels = np.empty(queries.shape[0], dtype=np.intp)
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        d = _space_part(metric, block, gens)
        if join is not None:
            d = _join_mark(join, d, np.abs(block[:, -1, None] - gens[None, :, -1]), d)
        labels[start : start + chunk] = np.argmin(d, axis=1)
    return labels


def mesh(axes):
    """Every node of the product of 1-d node arrays, one row each, in mesh
    order (the last axis varies fastest)."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


def sweep_oracle(metric, gens, grid, chunk):
    """(nearest-generator labels, mark weight) blocks over a grid's nodes
    times its mark axis. A grid is (1-d axes, volume element, mark axis or
    None); its nodes are ``mesh(axes)``. Without a mark axis there is one
    block, of weight 1.0; with one, the space part is computed once per
    chunk and reused for every mark node (chunks outer, mark nodes inner)."""
    axes, _, mark_axis = grid
    nodes = mesh(axes)
    if mark_axis is None:
        yield nearest_oracle(metric, nodes, gens, chunk), 1.0
        return
    gm = gens[:, -1]
    for start in range(0, nodes.shape[0], chunk):
        part = _space_part(metric, nodes[start : start + chunk], gens)
        buf = np.empty_like(part)
        for z, wj in zip(*mark_axis):
            d = _join_mark(metric[1], part, np.abs(z - gm)[None, :], buf)
            yield np.argmin(d, axis=1), wj


# --------------------------------------------------------------------------
# full-array pair geometry
#
# The library's pair geometry before it was built in blocks, kept verbatim
# as the reference for the blocked pass: every candidate pair is held at
# once with its displacement, its lags and its first lag cells, and the
# rectangles' corners are laid out over all of them (empty ones masked).
# The surface helpers below are the formulas that were evaluated on it.
# --------------------------------------------------------------------------


@dataclass
class FullGeometry:
    r_grid: np.ndarray
    t_grid: np.ndarray
    I: np.ndarray
    J: np.ndarray
    dx: np.ndarray
    ds: np.ndarray
    du: np.ndarray
    a_r: np.ndarray
    a_t: np.ndarray
    pt_b_r: np.ndarray
    pt_b_t: np.ndarray
    ell_r: np.ndarray
    ell_t: np.ndarray
    pair_corners: tuple = field(init=False)
    point_corners: tuple = field(init=False)

    def __post_init__(self):
        T = self.t_grid.size
        self.pair_corners = rect_corners_oracle(
            self.a_r, self.pt_b_r[self.I], self.a_t, self.pt_b_t[self.I], T)
        zeros = np.zeros(self.pt_b_r.size, dtype=np.intp)
        self.point_corners = rect_corners_oracle(zeros, self.pt_b_r, zeros, self.pt_b_t, T)

    @property
    def shape(self):
        return self.r_grid.size, self.t_grid.size


def pair_geometry_oracle(p, r_grid, t_grid, erosion="per-cell", select=None):
    """Every pair within the maximal lags, in (I, J) order, with the full
    per-pair arrays; no argument checks. The candidates come from a plain
    scan, one first point at a time, over all ordered pairs with i != j
    and |dt| <= t_max, so the reference does not depend on the library's
    cell sweep. A ``select`` of per-point bit masks (first, second) keeps
    only the pairs i -> j with first[i] & second[j] != 0."""
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    r_max, t_max = float(r_grid[-1]), float(t_grid[-1])
    rows = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
             np.empty((0, p.dim)), np.empty(0))]
    for i in range(p.n):
        j = np.flatnonzero(np.abs(p.t - p.t[i]) <= t_max)
        j = j[j != i]
        if select is not None:
            j = j[(select[0][i] & select[1][j]) != 0]
        dx = p.x[j] - p.x[i]
        ds = np.sqrt(sum(dx[:, a] * dx[:, a] for a in range(p.dim)))
        keep = ds <= r_max
        rows.append((np.full(np.count_nonzero(keep), i), j[keep], dx[keep], ds[keep]))
    I, J, dx, ds = (np.concatenate(arrays) for arrays in zip(*rows))
    du = np.abs(p.t[J] - p.t[I])

    margin_s, margin_t = margins(p)
    R, T = r_grid.size, t_grid.size
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
    a_r = np.searchsorted(r_grid, ds, side="left")
    a_t = np.searchsorted(t_grid, du, side="left")
    return FullGeometry(
        r_grid=r_grid, t_grid=t_grid, I=I, J=J, dx=dx, ds=ds, du=du,
        a_r=a_r, a_t=a_t, pt_b_r=pt_b_r, pt_b_t=pt_b_t, ell_r=ell_r, ell_t=ell_t,
    )


def rect_corners_oracle(a_r, b_r, a_t, b_t, T):
    """Mask of the nonempty rectangles [a_r..b_r] x [a_t..b_t] and the flat
    difference-array indices of their four corners, concatenated."""
    valid = (a_r <= b_r) & (a_t <= b_t)
    ar = a_r[valid]
    br = b_r[valid] + 1
    at = a_t[valid]
    bt = b_t[valid] + 1
    ncol = T + 1
    idx = np.concatenate([ar * ncol + at, br * ncol + at, ar * ncol + bt, br * ncol + bt])
    return valid, idx


def sum_corners_oracle(corners, w, R, T):
    valid, idx = corners
    wv = np.asarray(w, dtype=float)[valid]
    wts = np.concatenate([wv, -wv, -wv, wv])
    diff = np.bincount(idx, weights=wts, minlength=(R + 1) * (T + 1)).reshape(R + 1, T + 1)
    return np.cumsum(np.cumsum(diff, axis=0), axis=1)[:R, :T]


def denominator_oracle(geom, scenario, mC, mD, inv_lam, inv_lam_g, nu_C, nu_D):
    if scenario in ("S1", "S2"):
        window = np.outer(geom.ell_r, geom.ell_t)
    else:
        window = sum_corners_oracle(geom.point_corners, inv_lam_g, *geom.shape)
    if scenario in ("S1", "S3"):
        return window * (nu_C * nu_D)
    S_C = sum_corners_oracle(geom.point_corners, inv_lam * mC, *geom.shape)
    S_D = sum_corners_oracle(geom.point_corners, inv_lam * mD, *geom.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(window > 0, S_C * S_D / window, 0.0)


def k_values_oracle(geom, pair_w, mC, mD, denom):
    num = sum_corners_oracle(geom.pair_corners, pair_w * mC[geom.I] * mD[geom.J], *geom.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((num == 0) | (denom == 0), 0.0, num / denom)


# --------------------------------------------------------------------------
# catalog reading, one row at a time
# --------------------------------------------------------------------------


def load_catalog_oracle(path, window, mark_space):
    """`load_catalog` as a plain row-by-row ``csv`` read, each field through
    float(), into the checked `MarkedPattern` constructor: the same header
    rule, messages, line numbers and warnings."""
    dim = window.dim
    expected = (["x", "y"] if dim == 2 else [f"x{i + 1}" for i in range(dim)]) + ["t", "mark"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise ValueError(f"expected header {','.join(expected)!r}, got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 2:
                raise ValueError(f"line {lineno}: expected {dim + 2} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"line {lineno}: values must be finite, got {','.join(row)!r}")
            rows.append(values)
    if not rows:
        raise ValueError("catalog is empty")
    data = np.asarray(rows, dtype=float)
    x, t, marks = data[:, :dim], data[:, dim], data[:, dim + 1]
    inside = window.contains(x, t) & mark_space.mark_mask(marks)
    if not inside.all():
        warnings.warn(f"{int(np.sum(~inside))} dropped (outside window or mark space)")
    x, t, marks = x[inside], t[inside], marks[inside]
    rows_in = np.column_stack([x, t, marks])
    _, keep = np.unique(rows_in, axis=0, return_index=True)
    if keep.shape[0] != rows_in.shape[0]:
        warnings.warn(f"{rows_in.shape[0] - keep.shape[0]} duplicate rows collapsed")
        keep = np.sort(keep)
        x, t, marks = x[keep], t[keep], marks[keep]
    if x.shape[0] == 0:
        raise ValueError("no rows remain inside the window")
    return MarkedPattern(x=x, t=t, marks=marks, window=window, mark_space=mark_space)
