"""Exact regression values for every K estimator and contrast surface.

Each case is a small surface on the seeded 20-point interval-marked and
24-point labelled patterns (the ``small_marked`` and ``small_labelled``
fixtures), under every scenario and both erosions. Values are compared as
``repr`` strings, so any change in the arithmetic shows up. Regenerate the
golden file only for a deliberate change of results::

    PYTHONPATH=src python -m tests.test_k_family
"""

import json
import math
from pathlib import Path

import numpy as np

from mstpp.inference import (
    decomposition_residual,
    delta_surface,
    diag_independent_components,
    diag_independent_marks,
    random_labelling_test,
)
from mstpp.pattern import LabelSet, MarkInterval, project_ground
from mstpp.second_order import (
    ConeSet,
    CylinderSet,
    k_cross_multitype,
    k_directional,
    k_ground,
    k_inhom,
    k_measure_hat,
    k_smoothed,
    k_stationary,
    poisson_reference,
    weights_from_function,
)

from .conftest import uniform_pattern

GOLDEN = Path(__file__).parent / "golden" / "k_family.json"
R_GRID = np.array([0.08, 0.15, 0.22])
T_GRID = np.array([0.05, 0.12, 0.2, 0.25])
SCENARIOS = ("S1", "S2", "S3", "S4")
EROSIONS = ("per-cell", "fixed")


def weights(p, retention=1.0):
    return weights_from_function(
        p,
        marked_fn=lambda x, t, m: retention * (15.0 + 10.0 * x[:, 0] + 5.0 * t),
        ground_fn=lambda x, t: retention * (20.0 + 10.0 * x[:, 1]),
    )


def _reprs(values):
    return np.vectorize(lambda v: repr(float(v)), otypes=[object])(values).tolist()


def k_family_values():
    """name -> repr strings of every case (see the module docstring)."""
    patterns = {
        "marked": (uniform_pattern(20, seed=101),
                   MarkInterval(0.0, 0.5), MarkInterval(0.5, 1.0, closed_lo=False)),
        "labelled": (uniform_pattern(24, seed=202, marks="labels"),
                     LabelSet([1]), LabelSet([2])),
    }
    grids = dict(r_grid=R_GRID, t_grid=T_GRID)
    out = {"poisson_reference": _reprs(poisson_reference(R_GRID, T_GRID, 2).values)}
    for name, (p, C, D) in patterns.items():
        w = weights(p)
        for E in (CylinderSet(0.15, 0.2), ConeSet(-0.3, 1.1, 0.2, 0.1)):
            out[f"{name}/k_measure_hat/{E}"] = repr(k_measure_hat(p, C, D, E, w))
        for erosion in EROSIONS:
            key = f"{name}/{erosion}"
            kw = dict(grids, erosion=erosion)
            for sc in SCENARIOS:
                skw = dict(kw, scenario=sc)
                out[f"{key}/{sc}/k_inhom"] = _reprs(k_inhom(p, C, D, weights=w, **skw).values)
                out[f"{key}/{sc}/k_inhom_full"] = _reprs(
                    k_inhom(p, None, None, weights=w, **skw).values)
                out[f"{key}/{sc}/k_inhom_sym"] = _reprs(
                    k_inhom(p, C, D, weights=w, symmetrize=True, **skw).values)
                out[f"{key}/{sc}/k_directional"] = _reprs(
                    k_directional(p, C, D, -1.0, 1.2, weights=w, **skw).values)
                out[f"{key}/{sc}/delta_surface"] = _reprs(
                    delta_surface(p, C, D, weights=w, **skw).values)
                out[f"{key}/{sc}/diag_independent_marks"] = _reprs(
                    diag_independent_marks(p, C, D, weights=w, **skw).values)
                out[f"{key}/{sc}/diag_independent_components"] = _reprs(
                    diag_independent_components(p, C, D, weights=w, **skw).values)
                out[f"{key}/{sc}/decomposition_residual"] = _reprs(
                    decomposition_residual(p, C, weights=w, **skw).values)
                smooth = k_smoothed(p, C, D, weights_builder=weights, retention=0.7,
                                    n=3, seed=11, **skw)
                out[f"{key}/{sc}/k_smoothed"] = _reprs(smooth.values)
                out[f"{key}/{sc}/k_smoothed_spread"] = _reprs(smooth.meta["spread"])
                env = random_labelling_test(p, C, D, weights_builder=weights, n_perm=4,
                                            seed=12, **skw)
                for part in ("lower", "upper"):
                    out[f"{key}/{sc}/random_labelling_{part}"] = _reprs(getattr(env, part))
                out[f"{key}/{sc}/random_labelling_observed"] = _reprs(env.observed.values)
            for sc in ("S1", "S3"):
                out[f"{key}/{sc}/k_ground"] = _reprs(
                    k_ground(p, weights=w, scenario=sc, **kw).values)
            out[f"{key}/k_stationary"] = _reprs(k_stationary(p, C, D, **kw).values)
            out[f"{key}/k_stationary_full"] = _reprs(k_stationary(p, **kw).values)
            out[f"{key}/k_stationary_ground"] = _reprs(
                k_stationary(project_ground(p), **kw).values)
            if name == "labelled":
                for i, j in ((1, 2), (2, 1), (1, 1)):
                    out[f"{key}/k_cross_multitype_{i}{j}"] = _reprs(
                        k_cross_multitype(p, i, j, weights=w, **kw).values)
    return out


def test_k_family_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = k_family_values()
    assert sorted(got) == sorted(golden)
    bad = [name for name in golden if got[name] != golden[name]]
    assert not bad, f"{len(bad)} of {len(golden)} cases changed, e.g. {bad[:5]}"


def test_k_family_cases_are_informative():
    # a golden file of zeros would pin nothing
    golden = json.loads(GOLDEN.read_text())
    nonzero = [name for name, v in golden.items()
               if any(float(x) != 0.0 for x in np.ravel(v))]
    assert len(nonzero) >= 0.9 * len(golden)
    assert all(math.isfinite(float(x)) for v in golden.values() for x in np.ravel(v))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(k_family_values(), indent=1, sort_keys=True) + "\n")
