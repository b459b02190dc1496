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
  permutation), so each permutation costs only two weighted accumulation
  passes.

Every surface here comes from the K-family core of ``second_order``
(``_marked_terms``, ``_geometry``, ``_k_values`` over ``_denominator``), so
its checks and arithmetic are those of ``k_inhom``, and bad arguments fail
before any geometry, tessellation or permutation.

Per-replicate randomness always derives from a root seed through
splittable seed sequences, and reductions run in replicate-index order,
so results are independent of the worker count.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .intensity import voronoi_ground
from .pattern import permute_marks
from .second_order import (
    _Surface,
    _denominator,
    _geometry,
    _k_values,
    _lag_grids,
    _mark_sets,
    _marked_terms,
    _norm_scenario,
    _replicates,
    k_inhom,
    pair_geometry,
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
        import csv

        obs = self.observed.values
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "t", "observed", "lower", "upper", "exceeds"])
            for i, r in enumerate(self.observed.r_grid):
                for j, t in enumerate(self.observed.t_grid):
                    w.writerow(
                        [repr(float(r)), repr(float(t)), repr(float(obs[i, j])),
                         repr(float(self.lower[i, j])), repr(float(self.upper[i, j])),
                         int(self.exceeds[i, j])]
                    )

    def write_meta(self, path):
        doc = {
            "rank": self.rank,
            "n_sim": self.n_sim,
            "generator": self.generator,
            "exceedance_fraction": self.exceedance_fraction,
            "meta": {k: (v.tolist() if isinstance(v, np.ndarray) else str(v))
                     for k, v in self.meta.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _stat_values(stat):
    return stat.values if hasattr(stat, "values") else np.asarray(stat, dtype=float)


def _check_band(rank, alpha):
    if rank not in ("minmax", "pointwise"):
        raise ValueError("rank must be 'minmax' or 'pointwise'")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _band(stack, rank, alpha):
    if rank == "minmax":
        return stack.min(axis=0), stack.max(axis=0), "MinMax"
    lower = np.quantile(stack, alpha / 2.0, axis=0)
    upper = np.quantile(stack, 1.0 - alpha / 2.0, axis=0)
    return lower, upper, f"Pointwise({alpha})"


def envelopes(observed_stat, simulator, n_sim, rank="minmax", alpha=0.05,
              seed=None, threads=1, generator="simulator"):
    """Envelope bands from replicated simulations of a statistic.

    ``simulator(index, seed)`` must return a statistic comparable to
    ``observed_stat`` (same grid); it receives a child seed spawned from
    the root seed. MinMax takes pointwise extremes; pointwise takes the
    empirical alpha/2 and 1-alpha/2 quantiles. Replicates may run on a
    thread pool; the reduction is in replicate order either way.
    """
    if n_sim < 1:
        raise ValueError("need at least one simulation")
    _check_band(rank, alpha)

    def run(i, child):
        try:
            return _stat_values(simulator(i, child))
        except Exception as e:  # propagate with replicate index per contract
            raise RuntimeError(f"simulator failed at replicate {i}: {e}") from e

    stack = np.stack(_replicates(run, n_sim, seed, threads))
    obs = _stat_values(observed_stat)
    if stack.shape[1:] != obs.shape:
        raise ValueError("simulated statistic shape differs from observed")
    lower, upper, rank_label = _band(stack, rank, alpha)
    exceeds = (obs < lower) | (obs > upper)
    return EnvelopeSet(
        observed=observed_stat, lower=lower, upper=upper, rank=rank_label,
        n_sim=n_sim, generator=generator, exceeds=exceeds,
        meta={"seed": str(seed), "disclaimer": DISCLAIMER},
    )


# --------------------------------------------------------------------------
# difference statistics
# --------------------------------------------------------------------------


def _delta_values(geom, scenario, terms):
    """K^CD - K^DC on shared geometry from `_marked_terms` output: the
    denominator is symmetric in (C, D), so one serves both terms."""
    mC, mD, inv_lam = terms[:3]
    denom = _denominator(geom, scenario, *terms)
    return _k_values(geom, inv_lam, mC, mD, denom) - _k_values(geom, inv_lam, mD, mC, denom)


def delta_surface(p, C, D, r_grid=None, t_grid=None, weights=None,
                  scenario="S2", erosion="per-cell", geometry=None):
    """The antisymmetric marking statistic Delta = K^CD - K^DC."""
    scenario = _norm_scenario(scenario)
    terms = _marked_terms(p, weights, C, D, scenario)
    geom = _geometry(p, r_grid, t_grid, erosion, geometry)
    return DeltaSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid,
        values=_delta_values(geom, scenario, terms), C=C, D=D,
        statistic="K_CD - K_DC",
        meta={"scenario": scenario, "erosion": geom.erosion,
              "weights_source": weights.source},
    )


def diag_independent_marks(p, C, D, r_grid=None, t_grid=None, weights=None,
                           scenario="S2", erosion="per-cell"):
    """K^CD minus the full-mark-space surface K^MM (which reduces to the
    ground K): centred at zero under independent marking. Computed with
    one shared geometry, identical weights and scenario on both terms, so
    C = D = full mark space gives an exactly zero surface."""
    scenario = _norm_scenario(scenario)
    _marked_terms(p, weights, C, D, scenario)  # both terms' checks, before any work
    geom = pair_geometry(p, *_lag_grids(p, r_grid, t_grid), erosion=erosion)
    marked = k_inhom(p, C, D, weights=weights, scenario=scenario, geometry=geom)
    ground = k_inhom(p, None, None, weights=weights, scenario=scenario, geometry=geom)
    return DeltaSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid,
        values=marked.values - ground.values, C=C, D=D,
        statistic="K_CD - K_ground",
        meta={"scenario": marked.scenario, "erosion": erosion,
              "weights_source": weights.source},
    )


def diag_independent_components(p, C, D, r_grid=None, t_grid=None, weights=None,
                                scenario="S2", erosion="per-cell"):
    """K^CD minus the Poisson benchmark 2 omega_d r^d t: centred at zero
    when the C- and D-component processes are independent."""
    surf = k_inhom(p, C, D, r_grid, t_grid, weights, scenario=scenario, erosion=erosion)
    return DeltaSurface(
        r_grid=surf.r_grid, t_grid=surf.t_grid,
        values=surf.diff_poisson(), C=C, D=D,
        statistic="K_CD - poisson",
        meta={"scenario": surf.scenario, "erosion": erosion,
              "weights_source": weights.source},
    )


def decomposition_residual(p, C, r_grid=None, t_grid=None, weights=None,
                           scenario="S2", erosion="per-cell"):
    """Residual of the independent-components decomposition of K^{C,M}:

        K^{CM} - [nu(M\\C)/nu(M)] * 2 omega_d r^d t - [nu(C)/nu(M)] * K^{CC}

    which is centred at zero when the C and M\\C components are
    independent."""
    scenario = _norm_scenario(scenario)
    _marked_terms(p, weights, C, None, scenario)  # both terms' checks, before any work
    geom = pair_geometry(p, *_lag_grids(p, r_grid, t_grid), erosion=erosion)
    k_cm = k_inhom(p, C, None, weights=weights, scenario=scenario, geometry=geom)
    k_cc = k_inhom(p, C, C, weights=weights, scenario=scenario, geometry=geom)
    nu_c = p.nu(C)
    nu_m = p.nu_total()
    values = (k_cm.values - (nu_m - nu_c) / nu_m * k_cm.poisson_surface()
              - nu_c / nu_m * k_cc.values)
    return DeltaSurface(
        r_grid=geom.r_grid, t_grid=geom.t_grid, values=values, C=C, D=None,
        statistic="K_CM decomposition residual",
        meta={"scenario": k_cm.scenario, "erosion": erosion,
              "weights_source": weights.source},
    )


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
    if n_perm < 1:
        raise ValueError("need at least one permutation")
    _check_band(rank, alpha)
    scenario = _norm_scenario(scenario)
    if not p._distinct_locations:
        raise ValueError("random labelling needs distinct point locations: a mark "
                         "permutation can give coincident points the same mark")
    _mark_sets(p, C, D)  # the mark sets' checks, before any work
    if C == D:
        warnings.warn("C == D makes Delta identically zero; the test is degenerate")
    geom = pair_geometry(p, *_lag_grids(p, r_grid, t_grid), erosion=erosion)
    if weights_builder is None:
        weights_builder = _default_builder(p)
    w_obs = weights_builder(p)
    observed = delta_surface(p, C, D, weights=w_obs, scenario=scenario, geometry=geom)

    def run(i, child):
        q = permute_marks(p, seed=child)
        w = weights_builder(q) if rebuild_weights else w_obs
        return _delta_values(geom, scenario, _marked_terms(q, w, C, D, scenario))

    stack = np.stack(_replicates(run, n_perm, seed, threads))
    lower, upper, rank_label = _band(stack, rank, alpha)
    exceeds = (observed.values < lower) | (observed.values > upper)
    return EnvelopeSet(
        observed=observed, lower=lower, upper=upper, rank=rank_label,
        n_sim=n_perm, generator="mark-permutation", exceeds=exceeds,
        meta={
            "seed": str(seed),
            "scenario": scenario,
            "weights_mode": "rebuilt" if rebuild_weights else "fixed",
            "exceedance_fraction": float(np.mean(exceeds)),
            "disclaimer": DISCLAIMER,
        },
    )
