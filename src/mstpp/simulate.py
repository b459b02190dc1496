"""
Generators for the benchmark models and their building blocks:
inhomogeneous Poisson processes (dominating-rate thinning), Gaussian
random fields on regular grids, log-Gaussian Cox processes, iid and
geostatistical marking schemes, and superposition of components into a
multitype pattern.

A grid field has a separable covariance, so its lattice covariance is the
Kronecker product C_S (x) C_T of a spatial and a temporal factor. It is
drawn through the symmetric square root of that product, built from the
eigendecompositions of the two small factors (the Kronecker eigen-trick,
Saatci 2012), and no matrix over all grid cells is ever formed. The
geostatistical marks are correlated at irregular points instead and use a
dense Cholesky factor with a jitter ladder.

Each named preset's true intensity has one home, ``preset_intensity``; it
reads the same per-preset Cox parameters as ``preset_sampler``.

All generators are pure functions of (inputs, seed) and safe to run
concurrently with independent seeds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Window
from .pattern import ContinuousMarks, LabelMarks, MarkedPattern, _is_count

__all__ = [
    "WhittleMatern",
    "Exponential",
    "Constant",
    "SeparableCovariance",
    "IntensityField",
    "GridField",
    "FactorizationError",
    "Bernoulli",
    "UniformInterval",
    "UserTable",
    "sim_poisson",
    "GRFSampler",
    "sim_grf",
    "sim_lgcp",
    "assign_marks_iid",
    "assign_marks_geostat",
    "superpose",
    "simulate_preset",
    "preset_sampler",
    "poisson_preset_intensity",
    "lgcp_mean",
    "preset_intensity",
    "PRESET_NAMES",
    "UNIT_WINDOW",
    "SIGMA2",
]

DENSE_CELL_GUARD = 8000
JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


class FactorizationError(RuntimeError):
    """A covariance that is not positive semidefinite: the dense factor of
    the geostatistical marks still fails after the jitter ladder, or a
    grid field's Kronecker covariance has an eigenvalue below
    -JITTER_LADDER[-1]."""


@dataclass(frozen=True)
class WhittleMatern:
    """Stationary isotropic Whittle-Matern covariance
    C(h) = sigma2 * (2^(1-nu)/Gamma(nu)) * (c h)^nu * K_nu(c h), with
    C(0) = sigma2 by continuity and the c = 0 limit constant at sigma2.

    Closed forms are used at nu in {0.5, 1.5, 2.5}; other smoothness
    values take the Bessel term from ``_matern_term``, once per distinct
    lag c h.
    """

    sigma2: float
    nu: float
    c: float

    def __post_init__(self):
        if not 0 < self.sigma2 < math.inf:  # NaN fails each check
            raise ValueError(f"sigma2 must be positive and finite, not {self.sigma2}")
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, not {self.nu}")
        if not 0 <= self.c < math.inf:
            raise ValueError(f"c must be nonnegative and finite, not {self.c}")

    def value(self, h):
        h = np.asarray(h, dtype=float)
        if self.c == 0.0:
            return np.full(h.shape, self.sigma2)
        ch = self.c * h
        if self.nu == 0.5:
            out = np.exp(-ch)
        elif self.nu == 1.5:
            out = (1.0 + ch) * np.exp(-ch)
        elif self.nu == 2.5:
            out = (1.0 + ch + ch * ch / 3.0) * np.exp(-ch)
        else:
            out = np.ones_like(ch)
            pos = ch > 0
            lags, inverse = np.unique(ch[pos], return_inverse=True)
            out[pos] = _matern_term(self.nu, lags)[inverse]
        return self.sigma2 * out


def _matern_term(nu, x):
    """The Matern term 2^(1-nu)/Gamma(nu) x^nu K_nu(x) at x > 0, with
    K_nu(x) the integral of exp(-x cosh s) cosh(nu s) over s >= 0 (DLMF
    10.32.9), by a trapezoid rule on [0, S], S = arccosh(max(750/x, 1)) + 1.
    It takes 200 nodes, or more where S grows past 25 (x below about 6e-8),
    so that no step exceeds 1/8: a coarser step misses the integrand's peak
    near s = log(2 nu / x). Its relative error against scipy.special.kv is
    below 1e-12 for nu in [0.3, 40] and x >= 1e-300, wherever kv is finite
    (tests/test_simulate.py).
    Each node's integrand is exponentiated from its logarithm, so nothing
    overflows at large nu or small x, and the nodes are summed one at a
    time, so memory stays O(len x)."""
    # 750 / x overflows below about 4e-306; below 1e-300 the term differs
    # from 1 by O(x^min(2 nu, 2))
    x = np.maximum(x, 1e-300)
    log_front = nu * np.log(x) - math.lgamma(nu) + (1.0 - nu) * math.log(2.0)
    span = np.arccosh(np.maximum(750.0 / x, 1.0)) + 1.0
    nodes = max(200, math.ceil(8.0 * np.max(span, initial=0.0)) + 1)
    step = span / (nodes - 1)
    total = np.zeros_like(x)
    for k in range(nodes):
        s = k * step
        rest = log_front - x * np.cosh(s)
        node = np.exp(rest + nu * s) + np.exp(rest - nu * s)
        total += node if 0 < k < nodes - 1 else 0.5 * node
    return 0.5 * step * total


@dataclass(frozen=True)
class Exponential:
    """Unit-variance exponential covariance C(h) = exp(-h / scale)."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # NaN fails too
            raise ValueError(f"scale must be positive and finite, not {self.scale}")

    def value(self, h):
        return np.exp(-np.asarray(h, dtype=float) / self.scale)


@dataclass(frozen=True)
class Constant:
    """Constant covariance C(h) = level for every lag (h = 0 included)."""

    level: float = 1.0

    def __post_init__(self):
        if not -math.inf < self.level < math.inf:  # NaN fails too
            raise ValueError(f"level must be finite, not {self.level}")

    def value(self, h):
        return np.full(np.asarray(h, dtype=float).shape, float(self.level))


@dataclass(frozen=True)
class SeparableCovariance:
    """Separable space-time product C(h, u) = C_S(h) * C_T(u)."""

    spatial: object
    temporal: object

    def value(self, h, u):
        return self.spatial.value(h) * self.temporal.value(u)

    def matrix(self, x, t):
        """Covariance matrix for points with spatial rows x (N, d) and
        times t (N,)."""
        t = np.asarray(t, dtype=float)
        u = np.abs(t[:, None] - t[None, :])
        return self.value(_pairwise_distances(x), u)


def _pairwise_distances(x):
    """Euclidean distances between the rows of x (N, d). The squares are
    summed axis by axis, so no (N, N, d) temporary is made."""
    x = np.asarray(x, dtype=float)
    d2 = np.zeros((x.shape[0], x.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, None, k] - x[None, :, k]
        d2 += diff * diff
    return np.sqrt(d2)


@dataclass(frozen=True)
class IntensityField:
    """A deterministic intensity function (x, t) -> lambda >= 0 on a window
    together with a finite dominating bound lam_max.

    ``fn`` is called with arrays (x (N, d), t (N,)) and must return (N,).
    """

    fn: object
    window: Window
    lam_max: float


@dataclass(frozen=True)
class GridField:
    """A field realized on a regular grid over a d = 2 window, evaluated
    off-grid by nearest cell center."""

    window: Window
    shape: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.shape)
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    def cell_edges(self):
        (x_lo, x_hi), (y_lo, y_hi) = self.window.spatial
        t_lo, t_hi = self.window.temporal
        nx, ny, nt = self.shape
        return (
            np.linspace(x_lo, x_hi, nx + 1),
            np.linspace(y_lo, y_hi, ny + 1),
            np.linspace(t_lo, t_hi, nt + 1),
        )

    def cell_centers(self):
        ex, ey, et = self.cell_edges()
        return (ex[:-1] + ex[1:]) / 2, (ey[:-1] + ey[1:]) / 2, (et[:-1] + et[1:]) / 2

    @property
    def cell_volume(self):
        nx, ny, nt = self.shape
        return self.window.volume / (nx * ny * nt)

    def at(self, x, t):
        """Nearest-cell evaluation for arrays x (N, 2), t (N,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.asarray(t, dtype=float).ravel()
        ex, ey, et = self.cell_edges()
        nx, ny, nt = self.shape
        ix = np.clip(np.searchsorted(ex, x[:, 0], side="right") - 1, 0, nx - 1)
        iy = np.clip(np.searchsorted(ey, x[:, 1], side="right") - 1, 0, ny - 1)
        it = np.clip(np.searchsorted(et, t, side="right") - 1, 0, nt - 1)
        return self.values[ix, iy, it]


def sim_poisson(field, seed=None):
    """Inhomogeneous Poisson sampling by dominating-rate thinning: draw
    N_dom ~ Poisson(lam_max |W|) uniform proposals and retain each with
    probability lambda(x, t) / lam_max. Returns a ground pattern whose
    count has mean integral(lambda).

    Raises
    ------
    ValueError
        If an evaluated intensity exceeds the declared lam_max.
    """
    rng = np.random.default_rng(seed)
    w = field.window
    n_dom = rng.poisson(field.lam_max * w.volume)
    lo, hi = w.spatial_bounds()
    x = lo + rng.random((n_dom, w.dim)) * (hi - lo)
    t = w.temporal[0] + rng.random(n_dom) * w.temporal_length
    lam = np.asarray(field.fn(x, t), dtype=float) if n_dom else np.zeros(0)
    if lam.size and lam.max() > field.lam_max * (1 + 1e-12):
        raise ValueError("intensity exceeds the declared dominating bound lam_max")
    keep = rng.random(n_dom) * field.lam_max < lam
    return MarkedPattern(x=x[keep], t=t[keep], marks=None, window=w, mark_space=None)


def _chol_with_jitter(cov):
    # smallest ladder jitter that makes the factorization succeed
    n = cov.shape[0]
    for jit in JITTER_LADDER:
        try:
            return np.linalg.cholesky(cov + jit * np.eye(n)), jit
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"covariance matrix not positive definite after jitter up to {JITTER_LADDER[-1]}"
    )


def _grid_shape(shape):
    # (nx, ny, nt) as Python ints, within the dense guard, or ValueError
    try:
        dims = tuple(shape)
    except TypeError:
        dims = ()
    if len(dims) != 3 or not all(_is_count(v) for v in dims):
        raise ValueError(f"grid shape must be three positive integers, got {shape!r}")
    nx, ny, nt = (int(v) for v in dims)
    if max(nx * ny, nt) > DENSE_CELL_GUARD:
        raise ValueError(f"grid has {nx * ny} spatial cells and {nt} time slices; "
                         f"dense guard is {DENSE_CELL_GUARD} for each")
    return nx, ny, nt


@dataclass(frozen=True)
class GRFSampler:
    """Precomputed lattice Gaussian-field sampler for a separable
    covariance. On the grid the covariance is the Kronecker product
    C_S (x) C_T of the spatial factor over the nx * ny cell centres and
    the temporal factor over the nt slice centres, so it is stored as
    the eigenbases U_S, U_T of the two factors and the square roots R
    (nx * ny, nt) of the product eigenvalues, clipped at 0. ``sample``
    applies the symmetric square root C^(1/2) = U diag(R) U^T with
    U = U_S (x) U_T to a standard normal draw without forming any
    N x N matrix, so one sampler serves any number of replicates.

    C^(1/2) is unique, so a draw does not depend on the basis LAPACK
    picks inside degenerate eigenspaces (lattice symmetry, or a rank-1
    temporal factor such as ``Constant``)."""

    window: Window
    shape: tuple
    mean: np.ndarray
    space_basis: np.ndarray
    time_basis: np.ndarray
    root: np.ndarray

    @classmethod
    def build(cls, mean_fn, cov, shape, window):
        """Evaluate the mean at the cell centres and eigendecompose both
        covariance factors.

        Raises
        ------
        ValueError
            If ``shape`` is not three positive integers, ``cov`` is not a
            SeparableCovariance, or either factor exceeds the dense guard
            (8000 spatial cells or time slices). All three are checked
            before any matrix is built.
        FactorizationError
            If a product eigenvalue is below -JITTER_LADDER[-1].
        """
        nx, ny, nt = _grid_shape(shape)
        if not isinstance(cov, SeparableCovariance):
            raise ValueError(f"cov must be a SeparableCovariance, got {type(cov).__name__}")
        grid = GridField(window=window, shape=(nx, ny, nt), values=np.zeros((nx, ny, nt)))
        cx, cy, ct = grid.cell_centers()
        mx, my, mt = np.meshgrid(cx, cy, ct, indexing="ij")
        mean = np.asarray(mean_fn(mx.ravel(), my.ravel(), mt.ravel()), dtype=float)
        sx, sy = np.meshgrid(cx, cy, indexing="ij")
        xs = np.column_stack([sx.ravel(), sy.ravel()])
        space_cov = cov.spatial.value(_pairwise_distances(xs))
        time_cov = cov.temporal.value(np.abs(ct[:, None] - ct[None, :]))
        lam_s, u_s = np.linalg.eigh(space_cov)
        lam_t, u_t = np.linalg.eigh(time_cov)
        lam = lam_s[:, None] * lam_t[None, :]
        if lam.min() < -JITTER_LADDER[-1]:
            raise FactorizationError(
                f"covariance not positive semidefinite: eigenvalue {lam.min():.3g} "
                f"below {-JITTER_LADDER[-1]}"
            )
        return cls(window=window, shape=(nx, ny, nt), mean=mean, space_basis=u_s,
                   time_basis=u_t, root=np.sqrt(np.maximum(lam, 0.0)))

    def sample(self, seed=None):
        rng = np.random.default_rng(seed)
        return self._field(rng.standard_normal(self.mean.size))

    def _field(self, z):
        # mean + C^(1/2) z for z (N,) in grid order; as a matrix, z has one
        # row per spatial cell and one column per time slice
        z = np.reshape(z, self.root.shape)
        u_s, u_t = self.space_basis, self.time_basis
        z = u_s @ ((u_s.T @ z @ u_t) * self.root) @ u_t.T
        return GridField(window=self.window, shape=self.shape,
                         values=(self.mean + z.ravel()).reshape(self.shape))


def sim_grf(mean_fn, cov, shape, window, seed=None):
    """Exact Gaussian random field draw on a regular (nx, ny, nt) grid
    through the symmetric square root of the lattice covariance
    C_S (x) C_T (see ``GRFSampler``).

    ``mean_fn(x, y, t)`` is evaluated vectorized at cell centers;
    ``cov`` is a SeparableCovariance. Grids with more than 8000 spatial
    cells (nx * ny) or time slices are refused by the dense guard. For
    repeated draws build a ``GRFSampler`` once and call its ``sample``
    instead.
    """
    return GRFSampler.build(mean_fn, cov, shape, window).sample(seed)


def sim_lgcp(mean_fn=None, cov=None, shape=None, window=None, seed=None,
             sampler=None):
    """Log-Gaussian Cox sampling: draw a Gaussian field on the grid, treat
    exp(field) as a piecewise-constant intensity per cell, then draw
    Poisson counts per cell with uniform placement inside each cell.

    The discretization error is O(cell diameter). Returns a ground pattern.
    The field is ``sampler.sample`` on the first normal draws of the
    seed's stream. Pass a prebuilt ``sampler`` (GRFSampler) to amortize
    the two eigendecompositions across replicates; otherwise one is built
    from (mean_fn, cov, shape, window).
    """
    if sampler is None:
        if mean_fn is None or cov is None or shape is None or window is None:
            raise ValueError("either a sampler or (mean_fn, cov, shape, window)")
        sampler = GRFSampler.build(mean_fn, cov, shape, window)
    window = sampler.window
    rng = np.random.default_rng(seed)
    field = sampler.sample(rng)
    lam = np.exp(field.values).ravel()
    counts = rng.poisson(lam * field.cell_volume)
    total = int(counts.sum())
    ex, ey, et = field.cell_edges()
    nx, ny, nt = field.shape
    idx = np.repeat(np.arange(lam.size), counts)
    ix, iy, it = np.unravel_index(idx, (nx, ny, nt))
    u = rng.random((total, 3))
    x = np.column_stack(
        [
            ex[ix] + u[:, 0] * (ex[ix + 1] - ex[ix]),
            ey[iy] + u[:, 1] * (ey[iy + 1] - ey[iy]),
        ]
    )
    t = et[it] + u[:, 2] * (et[it + 1] - et[it])
    return MarkedPattern(x=x, t=t, marks=None, window=window, mark_space=None)


@dataclass(frozen=True)
class Bernoulli:
    """Two-label iid marking: label 2 ("success") with probability p,
    label 1 otherwise."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")

    def default_space(self):
        return LabelMarks(k=2)

    def draw(self, n, rng):
        return np.where(rng.random(n) < self.p, 2.0, 1.0)


@dataclass(frozen=True)
class UniformInterval:
    """Iid marks uniform on [lo, hi]."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:  # NaN fails too
            raise ValueError(f"uniform marks need finite lo < hi, got ({self.lo}, {self.hi})")

    def default_space(self):
        return ContinuousMarks(self.lo, self.hi, reference="lebesgue")

    def draw(self, n, rng):
        return self.lo + rng.random(n) * (self.hi - self.lo)


@dataclass(frozen=True)
class UserTable:
    """Iid label marks with user-supplied probabilities for labels 1..k."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(v) for v in self.probs)
        if len(probs) < 2 or any(v < 0 for v in probs) or not math.isclose(sum(probs), 1.0):
            raise ValueError("need k >= 2 nonnegative probabilities summing to 1")
        object.__setattr__(self, "probs", probs)

    def default_space(self):
        return LabelMarks(k=len(self.probs))

    def draw(self, n, rng):
        return rng.choice(np.arange(1, len(self.probs) + 1, dtype=float), size=n, p=self.probs)


def assign_marks_iid(ground, law, seed=None, mark_space=None):
    """Random labelling: iid marks given the ground pattern, drawn from the
    law (Bernoulli, UniformInterval, or UserTable)."""
    if ground.is_marked:
        raise ValueError("pattern already carries marks")
    rng = np.random.default_rng(seed)
    marks = law.draw(ground.n, rng)
    space = mark_space if mark_space is not None else law.default_space()
    return ground.with_marks(marks, space)


def assign_marks_geostat(ground, cov, seed=None, mark_space=None, mean=0.0):
    """Geostatistical marking: the marks are one joint Gaussian draw at the
    N ground locations under the given space-time covariance (exact, no
    grid). The default mark space is the interval [-8, 8] with Lebesgue
    reference, wide enough that standard-Gaussian marks never leave it in
    practice."""
    if ground.is_marked:
        raise ValueError("pattern already carries marks")
    if ground.n > DENSE_CELL_GUARD:
        raise ValueError(f"{ground.n} points exceed the dense factorization guard")
    rng = np.random.default_rng(seed)
    if ground.n == 0:
        marks = np.zeros(0)
    else:
        cov_mat = cov.matrix(ground.x, ground.t)
        factor, _ = _chol_with_jitter(cov_mat)
        marks = mean + factor @ rng.standard_normal(ground.n)
    space = mark_space if mark_space is not None else ContinuousMarks(-8.0, 8.0, "lebesgue")
    return ground.with_marks(marks, space)


def superpose(components, mark_space=None):
    """Multitype superposition: component i receives label i + 1; windows
    must match exactly. Accepts ground patterns (typical) or marked ones
    (their marks are replaced by the component label)."""
    if not components:
        raise ValueError("need at least one component")
    window = components[0].window
    for p in components[1:]:
        if p.window != window:
            raise ValueError("component windows must match")
    k = len(components)
    space = mark_space if mark_space is not None else LabelMarks(k=max(k, 2))
    x = np.concatenate([p.x for p in components], axis=0)
    t = np.concatenate([p.t for p in components])
    marks = np.concatenate([np.full(p.n, float(i + 1)) for i, p in enumerate(components)])
    return MarkedPattern(x=x, t=t, marks=marks, window=window, mark_space=space)


# --------------------------------------------------------------------------
# benchmark model presets
# --------------------------------------------------------------------------

UNIT_WINDOW = Window(spatial=((0.0, 1.0), (0.0, 1.0)), temporal=(0.0, 1.0))
SIGMA2 = 1.0 / 16.0
PRESET_NAMES = ("poisson-bernoulli", "lgcp-bernoulli", "bivariate", "lgcp-geostat")

# spatial Whittle-Matern (smoothness 0.5, inverse scale 1) times a constant
# temporal factor; the constant factor makes the field constant in time per
# location, so the lattice covariance has rank nx * ny. The Kronecker square
# root needs no jitter for that: its negative rounding eigenvalues are
# clipped at 0
_BENCH_COV = SeparableCovariance(WhittleMatern(SIGMA2, 0.5, 1.0), Constant(1.0))

# (slope, var_sign) of each preset's Cox component, read by preset_sampler
# (the field mean lgcp_mean(slope, var_sign)) and by preset_intensity
_COX = {"lgcp-bernoulli": (-0.5, -1.0), "bivariate": (-1.5, -1.0), "lgcp-geostat": (-0.5, 1.0)}
_LABELS = Bernoulli(0.4)


def poisson_preset_intensity():
    """The fixed inhomogeneous test intensity 5 t exp(5 + 0.5 x) on the
    unit window, with its analytic dominating bound."""
    fn = lambda x, t: 5.0 * t * np.exp(5.0 + 0.5 * np.asarray(x)[:, 0])
    lam_max = 5.0 * math.exp(5.5)
    return IntensityField(fn=fn, window=UNIT_WINDOW, lam_max=lam_max)


def lgcp_mean(slope, var_sign=-1.0):
    """Cox-preset mean functions mu(x, y, t) = log(750) + slope (y + t)
    + var_sign * sigma2 / 2 (slope -0.5 or -1.5)."""
    def fn(x, y, t, _slope=float(slope), _sign=float(var_sign)):
        return math.log(750.0) + _slope * (np.asarray(y) + np.asarray(t)) + _sign * SIGMA2 / 2.0

    return fn


def preset_sampler(name, grf_shape=(16, 16, 16)):
    """Prebuild the Gaussian-field sampler behind an LGCP preset so repeated
    ``simulate_preset`` calls can skip the covariance eigendecompositions."""
    if name not in _COX:
        raise ValueError(f"preset {name!r} has no Gaussian-field component")
    return GRFSampler.build(lgcp_mean(*_COX[name]), _BENCH_COV, grf_shape, UNIT_WINDOW)


def preset_intensity(name):
    """A preset's true intensity as ``(ground_fn, marked_fn)``, the callables
    ``weights_from_function`` takes. A Cox part is the field's mean intensity
    exp(mu + sigma2 / 2); Bernoulli(0.4) labels take 0.6 and 0.4, the
    geostatistical marks the standard normal density, and each ``bivariate``
    label its own component's intensity, whose sum is the ground."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}")
    poisson = ground = poisson_preset_intensity().fn
    if name in _COX:
        slope, var_sign = _COX[name]
        level = 750.0 * np.exp((var_sign + 1.0) * SIGMA2 / 2.0)
        ground = cox = lambda x, t: level * np.exp(slope * (np.asarray(x)[:, 1] + t))
    if name == "bivariate":
        return (lambda x, t: poisson(x, t) + cox(x, t),
                lambda x, t, m: np.where(m == 1.0, poisson(x, t), cox(x, t)))
    if name == "lgcp-geostat":
        density = lambda m: np.exp(-0.5 * m**2) / np.sqrt(2.0 * np.pi)
        return ground, lambda x, t, m: ground(x, t) * density(m)
    return ground, lambda x, t, m: ground(x, t) * np.where(m == 1.0, 1.0 - _LABELS.p, _LABELS.p)


def simulate_preset(name, seed=None, grf_shape=(16, 16, 16), sampler=None):
    """Draw one realization of a named benchmark model.

    Presets
    -------
    poisson-bernoulli
        Inhomogeneous Poisson, intensity 5 t exp(5 + 0.5 x), iid two-label
        marks with success probability 0.4.
    lgcp-bernoulli
        Log-Gaussian Cox process, mean log(750) - 0.5(y+t) - sigma2/2 with
        sigma2 = 1/16, spatial Whittle-Matern (0.5, 1) covariance, constant
        temporal factor; same iid marking.
    bivariate
        Superposition of the Poisson ground process (label 1) and an
        independent LGCP with mean log(750) - 1.5(y+t) - sigma2/2 (label 2).
    lgcp-geostat
        LGCP with mean log(750) - 0.5(y+t) + sigma2/2; marks read off an
        independent unit-variance exponential-covariance Gaussian field at
        the full space-time location of each point.

    ``sampler``, if given, must come from ``preset_sampler(name, ...)`` and
    replaces the per-call sampler build for the preset's Cox component.
    """
    rng = np.random.default_rng(seed)

    def cox():
        return sim_lgcp(seed=rng, sampler=sampler if sampler is not None
                        else preset_sampler(name, grf_shape))

    if name == "poisson-bernoulli":
        ground = sim_poisson(poisson_preset_intensity(), seed=rng)
        return assign_marks_iid(ground, _LABELS, seed=rng)
    if name == "lgcp-bernoulli":
        return assign_marks_iid(cox(), _LABELS, seed=rng)
    if name == "bivariate":
        y1 = sim_poisson(poisson_preset_intensity(), seed=rng)
        return superpose([y1, cox()])
    if name == "lgcp-geostat":
        mark_cov = SeparableCovariance(Exponential(1.0), Constant(1.0))
        return assign_marks_geostat(cox(), mark_cov, seed=rng)
    raise ValueError(f"unknown preset {name!r}")
