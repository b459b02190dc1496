"""
Monte-Carlo inference for marking structure.

Three layers:

* ``envelopes`` wraps any statistic + simulator pair into min/max or
  pointwise-quantile envelope bands with an exceedance map.
* ``diag_independent_marks`` and ``diag_independent_components`` compute
  the difference surfaces whose population versions vanish under the
  corresponding independence hypotheses (marked K minus ground K; cross K
  minus the Poisson benchmark), plus the mark-decomposition residual.
* ``random_labelling_test`` permutes marks over fixed locations and
  envelopes the antisymmetric statistic Delta = K^CD - K^DC. Pair
  geometry is computed once per dataset (locations never change under
  permutation). Each permutation only permutes the marks and builds its
  weights, checked, keeping the observed 1/lam when its builder returns
  the observed weights; the surfaces are then summed a batch of
  permutations at a time. A batch's masks come from one call per mark
  set on its stacked marks, its mark-set masses are the observed ones (a
  permutation keeps the marks' multiset), and its P surfaces are one
  ``_k_rows`` call, whose DC swaps read their CD rows' denominators, so
  the numpy call count is per batch, not per permutation; each surface
  has the bits of its own `delta_surface` (second_order module notes).

Every surface here comes from the K-family core of ``second_order``: the
checks of ``_marked_terms``, one ``_geometry``, and the one evaluator
``_k_surface`` (Delta, the independent-marks diagnostic and the
decomposition residual sum their two K terms as two surfaces of it). So
the checks and arithmetic are those of ``k_inhom``, every term has the
bits of its own estimate, and bad arguments fail before any geometry,
tessellation or permutation.

Per-replicate randomness always derives from a root seed through
splittable seed sequences, and reductions run in replicate-index order,
so results are independent of the worker count.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .intensity import voronoi_ground
from .pattern import _check_count, permute_marks, write_json, write_table
from .second_order import (
    _CHUNK,
    _Surface,
    _checked_lags,
    _children,
    _geometry,
    _inverse_intensities,
    _k_rows,
    _k_surface,
    _mark_masks,
    _mark_sets,
    _marked_terms,
    _norm_scenario,
    _pool,
    _replicates,
    _stacked,
    k_inhom,
    pair_geometry,
    poisson_reference,
    weights_from_estimate,
)

__all__ = [
    "DeltaSurface",
    "EnvelopeSet",
    "envelopes",
    "delta_surface",
    "diag_independent_marks",
    "diag_independent_components",
    "decomposition_residual",
    "random_labelling_test",
]

DISCLAIMER = (
    "Pointwise envelopes are indicative only: per-cell exceedance is "
    "reported without any multiple-comparison adjustment across lag cells "
    "or mark-set pairs, so they do not form a calibrated global test."
)


@dataclass
class DeltaSurface(_Surface):
    """A difference surface over a lag grid (e.g. K^CD - K^DC)."""

    statistic: str
    meta: dict = field(default_factory=dict)


@dataclass
class EnvelopeSet:
    """Envelope bands around an observed statistic surface."""

    observed: object
    lower: np.ndarray
    upper: np.ndarray
    rank: str
    n_sim: int
    generator: str
    exceeds: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper shapes differ")
        if np.any(self.lower > self.upper):
            raise ValueError("envelope bounds are crossed")

    @property
    def exceedance_fraction(self):
        return float(np.mean(self.exceeds))

    def write_csv(self, path):
        obs = self.observed
        r, t = np.meshgrid(obs.r_grid, obs.t_grid, indexing="ij")
        write_table(path, ["r", "t", "observed", "lower", "upper", "exceeds"],
                    [g.ravel() for g in (r, t, obs.values, self.lower, self.upper, self.exceeds)])

    def write_meta(self, path):
        doc = {
            "rank": self.rank,
            "n_sim": self.n_sim,
            "generator": self.generator,
            "exceedance_fraction": self.exceedance_fraction,
            "meta": {k: (v if isinstance(v, np.ndarray) else str(v))
                     for k, v in self.meta.items()},
        }
        write_json(path, doc)


def _stat_values(stat):
    return stat.values if hasattr(stat, "values") else np.asarray(stat, dtype=float)


def _check_band(rank, alpha):
    if rank not in ("minmax", "pointwise"):
        raise ValueError("rank must be 'minmax' or 'pointwise'")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _envelope(observed, stack, rank, alpha, generator, **meta):
    """The ``rank`` band of the replicate ``stack`` around ``observed`` (a
    surface or an array), its exceedance map, and ``meta`` with the
    pointwise-band disclaimer."""
    if rank == "minmax":
        lower, upper, label = stack.min(axis=0), stack.max(axis=0), "MinMax"
    else:
        # both bounds from one partition of the stack, with the bits of one
        # call per bound (but for the sign of a zero bound where the stack
        # holds both -0.0 and +0.0: the partition can pick either)
        lower, upper = np.quantile(stack, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
        label = f"Pointwise({alpha})"
    obs = _stat_values(observed)
    return EnvelopeSet(
        observed=observed, lower=lower, upper=upper, rank=label, n_sim=len(stack),
        generator=generator, exceeds=(obs < lower) | (obs > upper),
        meta={**meta, "disclaimer": DISCLAIMER},
    )


def envelopes(observed_stat, simulator, n_sim, rank="minmax", alpha=0.05,
              seed=None, threads=1, generator="simulator"):
    """Envelope bands from replicated simulations of a statistic.

    ``simulator(index, seed)`` must return a statistic comparable to
    ``observed_stat`` (same grid); it receives a child seed spawned from
    the root seed. MinMax takes pointwise extremes; pointwise takes the
    empirical alpha/2 and 1-alpha/2 quantiles. Replicates may run on a
    thread pool; the reduction is in replicate order either way.
    """
    children = _children(seed, n_sim, "simulation")
    _check_count(threads, "thread")
    _check_band(rank, alpha)

    def run(i, child):
        try:
            return _stat_values(simulator(i, child))
        except Exception as e:  # propagate with replicate index per contract
            raise RuntimeError(f"simulator failed at replicate {i}: {e}") from e

    with _pool(threads) as pool:
        stack = np.stack(_replicates(run, children, pool))
    obs = _stat_values(observed_stat)
    if stack.shape[1:] != obs.shape:
        raise ValueError("simulated statistic shape differs from observed")
    return _envelope(observed_stat, stack, rank, alpha, generator, seed=str(seed))


# --------------------------------------------------------------------------
# difference statistics
# --------------------------------------------------------------------------


def _delta(k):
    """K^CD - K^DC: the CD surfaces of `_k_rows` less their DC swaps."""
    return k[0] - k[1]


def delta_surface(p, C, D, r_grid=None, t_grid=None, weights=None,
                  scenario="S2", erosion=None, geometry=None):
    """The antisymmetric marking statistic Delta = K^CD - K^DC. ``erosion``
    and ``geometry`` are as in `k_inhom`."""
    scenario = _norm_scenario(scenario)
    rows = [_marked_terms(p, weights, C, D, scenario)]
    mC, mD = rows[0][:2]
    geom = _geometry(p, r_grid, t_grid, erosion, geometry, marks=[(mC, mD), (mD, mC)])
    return _diagnostic(_k_surface(p, geom, scenario, rows, C, D, weights.source, swap=True,
                                  combine=_delta), "K_CD - K_DC")


def _diagnostic(surf, statistic, values=None):
    """A diagnostic surface on the grid and with the mark sets, scenario,
    erosion and weights of the K-family surface ``surf``: its values, or
    ``values`` when given."""
    return DeltaSurface(
        r_grid=surf.r_grid, t_grid=surf.t_grid,
        values=surf.values if values is None else values, C=surf.C, D=surf.D,
        statistic=statistic,
        meta={"scenario": surf.scenario, "erosion": surf.meta["erosion"],
              "weights_source": surf.weights_source},
    )


def diag_independent_marks(p, C, D, r_grid=None, t_grid=None, weights=None,
                           scenario="S2", erosion="per-cell"):
    """K^CD minus the full-mark-space surface K^MM (which reduces to the
    ground K): centred at zero under independent marking. Both terms are
    surfaces of one sum on one geometry, with identical weights and
    scenario, so C = D = full mark space gives an exactly zero surface."""
    scenario = _norm_scenario(scenario)
    rows = [_marked_terms(p, weights, *sets, scenario) for sets in ((C, D), (None, None))]
    geom = _geometry(p, r_grid, t_grid, erosion, marks=[r[:2] for r in rows])
    return _diagnostic(_k_surface(p, geom, scenario, rows, C, D, weights.source,
                                  combine=lambda k: k[0] - k[1]), "K_CD - K_ground")


def diag_independent_components(p, C, D, r_grid=None, t_grid=None, weights=None,
                                scenario="S2", erosion="per-cell"):
    """K^CD minus the Poisson benchmark 2 omega_d r^d t: centred at zero
    when the C- and D-component processes are independent."""
    surf = k_inhom(p, C, D, r_grid, t_grid, weights, scenario=scenario, erosion=erosion)
    return _diagnostic(surf, "K_CD - poisson", surf.diff_poisson())


def decomposition_residual(p, C, r_grid=None, t_grid=None, weights=None,
                           scenario="S2", erosion="per-cell"):
    """Residual of the independent-components decomposition of K^{C,M}:

        K^{CM} - [nu(M\\C)/nu(M)] * 2 omega_d r^d t - [nu(C)/nu(M)] * K^{CC}

    which is centred at zero when the C and M\\C components are
    independent. K^{CM} and K^{CC} are surfaces of one sum on one
    geometry."""
    scenario = _norm_scenario(scenario)
    rows = [_marked_terms(p, weights, C, D, scenario) for D in (None, C)]
    geom = _geometry(p, r_grid, t_grid, erosion, marks=[r[:2] for r in rows])
    nu_c, nu_m = p.nu(C), p.nu_total()
    poisson = poisson_reference(geom.r_grid, geom.t_grid, p.dim).values

    def residual(k):
        return k[0] - (nu_m - nu_c) / nu_m * poisson - nu_c / nu_m * k[1]

    return _diagnostic(_k_surface(p, geom, scenario, rows, C, None, weights.source,
                                  combine=residual), "K_CM decomposition residual")


# --------------------------------------------------------------------------
# random labelling
# --------------------------------------------------------------------------


def _default_builder(p):
    """Permutation-invariant default weights: the ground-process Voronoi
    estimate, used as the marked intensity under the empirical-mark
    reference convention (common mark density 1). Built once because it
    ignores marks entirely."""
    ground = voronoi_ground(p)
    weights = weights_from_estimate(ground, ground)

    def build(q):
        return weights

    return build


def random_labelling_test(p, C, D, r_grid=None, t_grid=None, weights_builder=None,
                          n_perm=99, rank="pointwise", alpha=0.05, scenario="S2",
                          erosion="per-cell", seed=None,
                          rebuild_weights=True, threads=1):
    """Monte-Carlo test of random labelling via mark permutation.

    The observed statistic is Delta = K^CD - K^DC; each of ``n_perm``
    permutations of the marks over the fixed locations is re-evaluated the
    same way and the observed surface is compared against the permutation
    envelope. ``weights_builder(pattern) -> Weights`` is re-applied to
    every permuted pattern unless ``rebuild_weights`` is False (fixed-
    weights fast mode, labeled in the output); the default builder is the
    mark-ignoring ground Voronoi plug-in, for which both modes coincide.
    Patterns with coincident locations are rejected up front: a
    permutation could give two such points the same mark, and no simple
    pattern allows that.

    Returns an EnvelopeSet whose metadata carries the per-cell exceedance
    map, the exceedance fraction, and the pointwise-band disclaimer.
    """
    if p.marks is None or p.n < 2:
        raise ValueError("random labelling needs a marked pattern with >= 2 points")
    children = _children(seed, n_perm, "permutation")
    _check_count(threads, "thread")
    _check_band(rank, alpha)
    scenario = _norm_scenario(scenario)
    if not p._distinct_locations:
        raise ValueError("random labelling needs distinct point locations: a mark "
                         "permutation can give coincident points the same mark")
    # the mark sets' and the lags' checks, before any work
    nu_C, nu_D = _mark_sets(p, C, D)[2:]
    _checked_lags(p, r_grid, t_grid, erosion)
    if C == D:
        warnings.warn("C == D makes Delta identically zero; the test is degenerate")
    geom = pair_geometry(p, r_grid, t_grid, erosion=erosion)
    if weights_builder is None:
        weights_builder = _default_builder(p)
    w_obs = weights_builder(p)
    observed = delta_surface(p, C, D, weights=w_obs, scenario=scenario, geometry=geom)
    inv_obs = _inverse_intensities(p, w_obs, scenario)

    def permuted(i, child):
        """A permutation's marks and its 1/lam and 1/lam_ground, the observed
        ones while its builder returns the observed weights."""
        q = permute_marks(p, seed=child)
        w = weights_builder(q) if rebuild_weights else w_obs
        return q.marks, inv_obs if w is w_obs else _inverse_intensities(q, w, scenario)

    def batch_terms(perms):
        """The `_stacked` `_marked_terms` of a batch of permutations: each
        mark set's masks from one call on their stacked marks, and the
        observed masses, since a permutation keeps the marks' multiset (an
        empirical mass is a count over n, exact in float64)."""
        marks, inv = zip(*perms)
        mC, mD = _mark_masks(p, C, D, np.stack(marks))
        return (mC, mD, *_stacked(inv), np.full(len(marks), nu_C), np.full(len(marks), nu_D))

    # a batch's CD and DC surfaces span about four _CHUNKs of (surface,
    # stored pair or difference-array bin) entries; larger ones fall out
    # of the cache and run slower (on ~480 points, batches of 4 to 16
    # permutations time alike, and 32 runs slower)
    R, T = geom.shape
    batch = max(1, 2 * _CHUNK // (geom.I.size + (R + 1) * (T + 1)))
    stack = np.empty((n_perm, *geom.shape))
    with _pool(threads) as pool:  # one pool for every batch
        for first in range(0, n_perm, batch):
            perms = _replicates(permuted, children[first:first + batch], pool)
            k = _k_rows(geom, scenario, batch_terms(perms), swap=True)
            stack[first:first + batch] = _delta(k.reshape(2, -1, R, T))
    env = _envelope(observed, stack, rank, alpha, "mark-permutation", seed=str(seed),
                    scenario=scenario,
                    weights_mode="rebuilt" if rebuild_weights else "fixed")
    env.meta["exceedance_fraction"] = env.exceedance_fraction
    return env
