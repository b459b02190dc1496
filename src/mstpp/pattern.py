"""
The marked point-pattern data model: mark spaces and their reference
measures, mark sets, patterns, ingestion, and the basic transformers
(rescaling, mark restriction, thinning, mark permutation).

Every CSV and JSON artifact the package writes goes through one of two
writers: ``write_table`` (float cells at full round-trip precision) and
``write_json`` (numpy values as plain JSON, sorted keys, two-space indent,
final newline).

A pattern holds its points only as arrays (x: (N, d), t: (N,), marks:
(N,)), which the estimators read whole; there is no per-point object. It
is immutable after construction, and always satisfies simpleness: no two
points share an identical (location, mark). Unmarked ("ground") patterns
carry ``marks=None`` and ``mark_space=None``; the simulators produce these
and the marking operations upgrade them.
"""

import csv
import io
import json
import math
import numbers
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Window

__all__ = [
    "ContinuousMarks",
    "LabelMarks",
    "MarkInterval",
    "LabelSet",
    "full_mark_set",
    "MarkedPattern",
    "pattern_from_arrays",
    "load_catalog",
    "save_catalog",
    "write_table",
    "write_json",
    "rescale",
    "restrict_marks",
    "project_ground",
    "thin",
    "permute_marks",
]

_REFERENCES = ("lebesgue", "normalized", "empirical")


@dataclass(frozen=True)
class ContinuousMarks:
    """Continuous mark space: an interval [lo, hi] with a reference measure.

    Parameters
    ----------
    lo, hi : float
        Finite interval bounds, lo < hi.
    reference : {"lebesgue", "normalized", "empirical"}
        Reference measure on the interval: plain length, length normalized
        to a probability measure, or the empirical mark distribution
        (atoms of weight 1/N at the observed marks; measure queries then
        need the observed marks).
    """

    lo: float
    hi: float
    reference: str = "lebesgue"

    def __post_init__(self):
        if not -np.inf < self.lo < self.hi < np.inf:  # NaN fails too
            raise ValueError(f"mark interval requires finite lo < hi, got ({self.lo}, {self.hi})")
        if self.reference not in _REFERENCES:
            raise ValueError(f"unknown reference measure {self.reference!r}")

    is_labelled = False

    def contains_mark(self, m):
        return bool(np.all(self.mark_mask(m)))

    def mark_mask(self, marks):
        marks = np.asarray(marks, dtype=float)
        return (marks >= self.lo) & (marks <= self.hi)

    def nu(self, mark_set, marks=None):
        """Reference-measure mass of a mark set; empirical reference needs
        the observed marks."""
        _check_mark_set(self, mark_set)
        lo = max(self.lo, mark_set.lo)
        hi = min(self.hi, mark_set.hi)
        if self.reference == "empirical":
            if marks is None:
                raise ValueError("empirical reference needs the observed marks")
            return float(np.mean(mark_set.mask(np.asarray(marks, dtype=float))))
        length = max(0.0, hi - lo)
        if self.reference == "normalized":
            return length / (self.hi - self.lo)
        return length

    def nu_total(self, marks=None):
        if self.reference == "lebesgue":
            return self.hi - self.lo
        return 1.0


@dataclass(frozen=True)
class LabelMarks:
    """Finite label space {1, ..., k}, k >= 2, with positive finite per-label
    weights (the counting measure when weights are omitted)."""

    k: int
    weights: tuple = None

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 2:
            raise ValueError(f"label space requires a whole number k >= 2, got {self.k!r}")
        w = self.weights
        if w is None:
            w = tuple(1.0 for _ in range(self.k))
        else:
            w = tuple(float(v) for v in w)
            if len(w) != self.k:
                raise ValueError("need one weight per label")
            if not all(0 < v < np.inf for v in w):  # NaN fails too
                raise ValueError(f"label weights must be positive and finite, got {w}")
        object.__setattr__(self, "weights", w)

    is_labelled = True

    def contains_mark(self, m):
        return bool(np.all(self.mark_mask(m)))

    def mark_mask(self, marks):
        marks = np.asarray(marks, dtype=float)
        return (marks == np.round(marks)) & (marks >= 1) & (marks <= self.k)

    def nu(self, mark_set, marks=None):
        _check_mark_set(self, mark_set)
        return float(sum(self.weights[i - 1] for i in sorted(mark_set.labels) if 1 <= i <= self.k))

    def nu_total(self, marks=None):
        return float(sum(self.weights))


@dataclass(frozen=True)
class MarkInterval:
    """Mark Borel set for continuous marks: an interval with configurable
    end-point closure (closure only matters for membership, not for the
    Lebesgue mass)."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if not self.lo <= self.hi:  # NaN fails too
            raise ValueError(f"mark interval requires lo <= hi, not NaN: "
                             f"got ({self.lo}, {self.hi})")

    def mask(self, marks):
        marks = np.asarray(marks, dtype=float)
        left = marks >= self.lo if self.closed_lo else marks > self.lo
        right = marks <= self.hi if self.closed_hi else marks < self.hi
        return left & right

    def contains(self, m):
        return bool(self.mask(np.asarray([m]))[0])


@dataclass(frozen=True)
class LabelSet:
    """Mark set for label spaces: a subset of {1, ..., k}."""

    labels: frozenset

    def __init__(self, labels):
        labels = tuple(labels)
        for v in labels:
            # the marks are floats, so 2.0 names label 2; NaN fails too
            if not (math.isfinite(v) and v == int(v)):
                raise ValueError(f"labels must be whole numbers, got {v}")
        object.__setattr__(self, "labels", frozenset(int(v) for v in labels))
        if not self.labels:
            raise ValueError("label set must be nonempty")

    def mask(self, marks):
        marks = np.asarray(marks)
        out = np.zeros(marks.shape, dtype=bool)
        for lab in self.labels:
            out |= marks == lab
        return out

    def contains(self, m):
        return m in self.labels


def _check_mark_set(mark_space, mark_set):
    """Raise ValueError unless ``mark_set`` is of the kind ``mark_space``
    takes: a LabelSet on labels, a MarkInterval on continuous marks."""
    kind = LabelSet if mark_space.is_labelled else MarkInterval
    if not isinstance(mark_set, kind):
        raise ValueError(f"a {type(mark_space).__name__} mark space takes a {kind.__name__} "
                         f"mark set, got a {type(mark_set).__name__}")


def full_mark_set(mark_space):
    """The mark set covering the whole mark space."""
    if mark_space.is_labelled:
        return LabelSet(range(1, mark_space.k + 1))
    return MarkInterval(mark_space.lo, mark_space.hi)


def _first_rows(rows, groups=False):
    """The first index of each distinct row of the 2-d ``rows``, in row
    order, and with ``groups`` each row's group, the position of its
    group's first index there. A stable lexsort sets equal rows (-0.0 ==
    0.0) side by side, each run headed by its first index."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    heads = order[new]
    first = np.sort(heads)
    if not groups:
        return first
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.searchsorted(first, heads)[np.cumsum(new) - 1]
    return first, group


@dataclass(frozen=True)
class MarkedPattern:
    """A finite marked (or ground) spatio-temporal point pattern in a window.

    Attributes
    ----------
    x : ndarray (N, d)
    t : ndarray (N,)
    marks : ndarray (N,) or None
        None for a ground (unmarked) pattern.
    window : Window
    mark_space : ContinuousMarks | LabelMarks | None
    """

    x: np.ndarray
    t: np.ndarray
    marks: object
    window: Window
    mark_space: object

    def __post_init__(self):
        # own private copies: the arrays are frozen below and must never
        # alias caller-owned memory
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(0, self.window.dim) if x.size == 0 else np.atleast_2d(x)
        x = np.array(x, dtype=float, order="C")
        t = np.array(np.asarray(self.t, dtype=float).ravel(), dtype=float)
        if x.shape[0] != t.shape[0]:
            raise ValueError("x and t must have one row per point")
        if x.size and not np.all(np.isfinite(x)):
            raise ValueError("coordinates must be finite")
        if t.size and not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if x.shape[1] != self.window.dim:
            raise ValueError("pattern and window dimension mismatch")
        if x.shape[0] and not np.all(self.window.contains(x, t)):
            raise ValueError("all points must lie inside the window")
        marks = self.marks
        if marks is not None:
            if self.mark_space is None:
                raise ValueError("marks need a mark space")
            marks = np.array(np.asarray(marks, dtype=float).ravel(), dtype=float)
            if marks.shape[0] != t.shape[0]:
                raise ValueError("need one mark per point")
            if marks.size and not np.all(self.mark_space.mark_mask(marks)):
                raise ValueError("mark outside mark space")
        elif self.mark_space is not None:
            raise ValueError("mark space given but no marks")
        rows = np.column_stack([x, t] if marks is None else [x, t, marks])
        if _first_rows(rows).size != t.size:
            raise ValueError("pattern is not simple: duplicate (location, mark)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "marks", marks)
        self.x.setflags(write=False)
        self.t.setflags(write=False)
        if marks is not None:
            self.marks.setflags(write=False)

    @classmethod
    def _trusted(cls, x, t, marks, window, mark_space):
        """A pattern from fields already known to be valid and simple,
        without the checks; the arrays become read-only and are not
        copied."""
        p = object.__new__(cls)
        for name, value in zip(("x", "t", "marks", "window", "mark_space"),
                               (x, t, marks, window, mark_space)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(p, name, value)
        return p

    @cached_property
    def _distinct_locations(self):
        """Whether no two points share a location (x, t); computed once."""
        return _first_rows(np.column_stack([self.x, self.t])).size == self.n

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    @property
    def is_marked(self):
        return self.marks is not None

    def nu(self, mark_set):
        """Reference-measure mass of a mark set under this pattern's space
        (empirical references read this pattern's marks)."""
        if not self.is_marked:
            raise ValueError("ground pattern has no mark space")
        return self.mark_space.nu(mark_set, marks=self.marks)

    def nu_total(self):
        if not self.is_marked:
            raise ValueError("ground pattern has no mark space")
        return self.mark_space.nu_total(marks=self.marks)

    def with_marks(self, marks, mark_space):
        return MarkedPattern(self.x, self.t, marks, self.window, mark_space)


def pattern_from_arrays(x, t, marks=None, window=None, mark_space=None):
    """Build a validated pattern from arrays. ``window`` is required."""
    if window is None:
        raise ValueError("window is required")
    return MarkedPattern(x=x, t=t, marks=marks, window=window, mark_space=mark_space)


def _catalog_header(dim):
    """``x,y,t,mark`` for d = 2, else ``x1,...,xd,t,mark``."""
    coords = ["x", "y"] if dim == 2 else [f"x{i + 1}" for i in range(dim)]
    return coords + ["t", "mark"]


# the characters of a catalog body that np.loadtxt reads as float() does,
# with no quoting, underscore, comment or unicode whitespace
_PLAIN = re.compile(r"[0-9eE+\-., \t\r\n]*")


def load_catalog(path, window, mark_space):
    """Read a catalog CSV into a validated pattern.

    The header must be ``x,y,t,mark`` (d = 2) or ``x1,...,xd,t,mark``, for
    the window's dimension d.
    Label marks are integers 1..k. Rows outside the window are dropped with
    a count report (warning); duplicate (location, mark) rows collapse to
    one with a warning so the pattern stays simple. Blank lines are skipped.

    A body of plain numbers is parsed by one np.loadtxt call, which reads
    each field as float() does; any other body (quoted fields, underscores,
    a malformed row) is read row by row by the ``csv`` module, the only
    parser that reports a malformed row, so both give the same pattern.

    Raises
    ------
    ValueError
        On a malformed row, a row with a NaN or infinite value among
        them (each with its line number), or an empty result.
    """
    dim = window.dim
    expected = _catalog_header(dim)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or [h.strip() for h in header] != expected:
            raise ValueError(f"expected header {','.join(expected)!r}, got {header!r}")
        body = fh.read()
    data = _plain_rows(body, dim + 2)
    if data is None:
        data = _csv_rows(body, dim + 2)
    x, t, marks = data[:, :dim], data[:, dim], data[:, dim + 1]
    inside = window.contains(x, t) & mark_space.mark_mask(marks)
    n_dropped = int(np.sum(~inside))
    if n_dropped:
        warnings.warn(f"{n_dropped} dropped (outside window or mark space)", stacklevel=2)
    x, t, marks = x[inside], t[inside], marks[inside]
    keep = _first_rows(np.column_stack([x, t, marks]))
    if keep.size != t.size:
        warnings.warn(f"{t.size - keep.size} duplicate rows collapsed", stacklevel=2)
        x, t, marks = x[keep], t[keep], marks[keep]
    if x.shape[0] == 0:
        raise ValueError("no rows remain inside the window")
    # finite, inside the window and the mark space, and simple: the checks
    # of the constructor, already made; the arrays are fresh copies
    return MarkedPattern._trusted(x, t, marks, window, mark_space)


def _plain_rows(body, width):
    """The rows of a catalog ``body`` (the text after its header) as one
    (rows, ``width``) float array, read by np.loadtxt; None unless the body
    holds plain numbers only, ``width`` finite ones on each nonblank line."""
    lines = [line for line in body.splitlines() if line]
    if not lines or _PLAIN.fullmatch(body) is None:
        return None  # and no data: loadtxt would warn
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == width and np.all(np.isfinite(data)) else None


def _csv_rows(body, width):
    """The rows of a catalog ``body`` read one at a time by the ``csv``
    module, as a float array; a malformed row raises ValueError with its
    line number."""
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ValueError(f"line {lineno}: values must be finite, got {','.join(row)!r}")
        rows.append(values)
    if not rows:
        raise ValueError("catalog is empty")
    return np.asarray(rows, dtype=float)


def save_catalog(p, path):
    """Write a marked pattern as a catalog CSV (the inverse of
    ``load_catalog``); floats are written with full round-trip precision."""
    if not p.is_marked:
        raise ValueError("catalogs carry a mark column; pattern is unmarked")
    write_table(path, _catalog_header(p.dim), [*p.x.T, p.t, p.marks])


def write_table(path, header, columns):
    """Write equal-length ``columns`` under ``header`` as a CSV table in the
    ``csv`` module's default dialect. A float cell is ``repr(float(v))``
    (full round-trip precision); an integer or bool cell is an integer."""
    cells = []
    for col in map(np.asarray, columns):
        cells.append(col.astype(int).tolist() if col.dtype.kind in "biu"
                     else list(map(repr, col.astype(float).tolist())))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def write_json(path, doc):
    """Write ``doc`` as JSON with sorted keys, a two-space indent and a
    final newline. numpy arrays and scalars are written as lists and
    numbers, dict keys as strings, and any other value JSON cannot hold as
    its ``str``."""
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def rescale(p, beta_s, beta_t):
    """Scale spatial coordinates by beta_s and times by beta_t (window
    included); marks are untouched."""
    if beta_s <= 0 or beta_t <= 0:
        raise ValueError("scale factors must be positive")
    window = Window(
        spatial=tuple((lo * beta_s, hi * beta_s) for lo, hi in p.window.spatial),
        temporal=(p.window.temporal[0] * beta_t, p.window.temporal[1] * beta_t),
    )
    x = p.x * beta_s
    t = p.t * beta_t
    # rescaling can push boundary points a ulp outside the scaled window
    lo, hi = window.spatial_bounds()
    x = np.clip(x, lo, hi)
    t = np.clip(t, window.temporal[0], window.temporal[1])
    return MarkedPattern(x=x, t=t, marks=p.marks, window=window, mark_space=p.mark_space)


def restrict_marks(p, mark_set):
    """Subsequence of points with mark in the set, original order kept
    (the restriction variant: marks are retained)."""
    if not p.is_marked:
        raise ValueError("ground pattern has no marks to restrict")
    if p.nu(mark_set) <= 0:
        raise ValueError("mark set has zero reference mass")
    keep = mark_set.mask(p.marks)
    return MarkedPattern(
        x=p.x[keep], t=p.t[keep], marks=p.marks[keep], window=p.window, mark_space=p.mark_space
    )


def project_ground(p, mark_set=None):
    """Projection variant: drop marks (optionally restricting to a mark set
    first), returning a ground pattern."""
    if mark_set is not None:
        p = restrict_marks(p, mark_set)
    return MarkedPattern(x=p.x, t=p.t, marks=None, window=p.window, mark_space=None)


def _is_count(n):
    """Whether ``n`` is a whole number of at least one: of an integral type,
    and not a bool."""
    return not isinstance(n, bool) and isinstance(n, numbers.Integral) and n >= 1


def _check_count(n, what):
    """Reject a count of ``what`` that is not `_is_count`."""
    if not _is_count(n):
        raise ValueError(f"need a whole number of at least one {what}, got {n!r}")


def _check_retention(retention):
    if not 0 < retention < 1:  # NaN fails too
        raise ValueError(f"retention must lie in (0, 1), got {retention!r}")


def thin(p, retention, seed=None):
    """Independent thinning: each point kept with probability ``retention``,
    reproducibly under ``seed``."""
    _check_retention(retention)
    rng = np.random.default_rng(seed)
    keep = rng.random(p.n) < retention
    marks = p.marks[keep] if p.is_marked else None
    return MarkedPattern(
        x=p.x[keep], t=p.t[keep], marks=marks, window=p.window, mark_space=p.mark_space
    )


def permute_marks(p, seed=None):
    """Uniform random permutation of the marks (without replacement);
    locations untouched.

    Raises ValueError ("pattern is not simple") when two points share a
    location and the permutation gives them the same mark."""
    if not p.is_marked:
        raise ValueError("ground pattern has no marks to permute")
    if p.n < 2:
        raise ValueError("mark permutation needs at least two points")
    rng = np.random.default_rng(seed)
    marks = p.marks[rng.permutation(p.n)]
    if not p._distinct_locations:
        return MarkedPattern(
            x=p.x, t=p.t, marks=marks, window=p.window, mark_space=p.mark_space
        )
    # permuted valid marks over distinct locations: valid and simple
    return MarkedPattern._trusted(p.x.copy(), p.t.copy(), marks, p.window, p.mark_space)
