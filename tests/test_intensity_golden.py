"""Exact regression values for every Voronoi intensity estimator and its
mass audit.

Each case builds the ground, full marked and separable (S1, S2, S3 and S3
with the Euclidean time-mark metric) estimates of a small pattern at a
small quadrature whose chunk does not divide the node count. The patterns
cover interval marks, weighted labels, normalized and empirical mark
references, lattices (many equidistant nodes, so the lowest-index
tie-break decides), coincident ground locations, refined quadratures, and
1-D and 3-D space. Recorded per estimate: the values at the pattern's own
points, ``at`` on fixed query points, the cell measures, the quadrature
used, and the mass audit at the build resolution (and, for ground and
marked, at an override resolution); plus the error texts of estimates
that cannot be built. Values are compared as ``repr`` strings, so any
change in the arithmetic shows up. Regenerate the golden file only for a
deliberate change of results::

    PYTHONPATH=src python -m tests.test_intensity_golden
"""

import json
import math
from pathlib import Path

import numpy as np

from mstpp.geometry import Window
from mstpp.intensity import (
    Quadrature,
    QuadratureError,
    VoronoiEstimate,
    estimate_mass,
    voronoi_ground,
    voronoi_marked,
    voronoi_separable,
)
from mstpp.pattern import ContinuousMarks, LabelMarks, pattern_from_arrays

from .conftest import UNIT, uniform_pattern

GOLDEN = Path(__file__).parent / "golden" / "intensity.json"
QUAD = Quadrature(n_space=10, n_time=9, n_mark=4, n_space_only=24,
                  n_time_tm=14, n_mark_tm=11, chunk=37)
AUDIT = Quadrature(n_space=7, n_time=8, n_mark=3, n_space_only=13,
                   n_time_tm=9, n_mark_tm=7, chunk=29)
ESTIMATORS = {
    "ground": lambda p, q: voronoi_ground(p, q),
    "marked": lambda p, q: voronoi_marked(p, q),
    "S1": lambda p, q: voronoi_separable(p, "S1", quadrature=q),
    "S2": lambda p, q: voronoi_separable(p, "S2", quadrature=q),
    "S3": lambda p, q: voronoi_separable(p, "S3", quadrature=q),
    "S3-euclidean": lambda p, q: voronoi_separable(p, "S3", euclidean_tm=True, quadrature=q),
}


def _reprs(values):
    return [repr(float(v)) for v in np.ravel(values)]


def _lattice(marks, mark_space):
    """Eight points on the corners of a cube inside the unit window."""
    c = np.array([0.25, 0.75])
    gx, gy, gt = (a.ravel() for a in np.meshgrid(c, c, c, indexing="ij"))
    return pattern_from_arrays(np.column_stack([gx, gy]), gt, marks, UNIT, mark_space)


def _duplicates():
    """Coincident ground locations with distinct labels: the ground
    estimate groups them, the marked estimate keeps them apart."""
    base = uniform_pattern(9, seed=306, marks="labels", mark_space=LabelMarks(k=3))
    x = np.vstack([base.x, base.x[:3], base.x[:1]])
    t = np.concatenate([base.t, base.t[:3], base.t[:1]])
    m = np.concatenate([base.marks, base.marks[:3] % 3 + 1, (base.marks[:1] + 1) % 3 + 1])
    return pattern_from_arrays(x, t, m, UNIT, LabelMarks(k=3))


def patterns():
    """name -> (pattern, quadrature or None for the defaults)."""
    line = Window(spatial=((0.0, 2.0),), temporal=(0.0, 1.0))
    cube = Window(spatial=((0.0, 1.0), (-1.0, 1.0), (0.0, 0.5)), temporal=(1.0, 2.0))
    # refined-space: the middle cell of three close points holds no node of
    # the 6-node spatial axes but one of the refined 12-node axes;
    # refined-time: the last point sits between two others at its location
    # and loses every tie to them, so its cell needs a time node within
    # 0.05 of t = 0.5, which only the refined axis has
    close = pattern_from_arrays(
        np.array([[0.33, 0.5], [0.375, 0.5], [0.42, 0.5], [0.8, 0.2]]),
        np.array([0.5, 0.5, 0.5, 0.3]), np.array([0.33, 0.375, 0.42, 0.9]),
        UNIT, ContinuousMarks(0.0, 1.0))
    stacked = pattern_from_arrays(
        np.array([[0.375, 0.375], [0.375, 0.375], [0.8, 0.2], [0.375, 0.375]]),
        np.array([0.4, 0.6, 0.3, 0.5]), np.array([0.55, 0.55, 0.9, 0.55]),
        UNIT, ContinuousMarks(0.0, 1.0))
    coarse = Quadrature(n_space=6, n_time=6, n_mark=3, n_space_only=6,
                        n_time_tm=6, n_mark_tm=6, chunk=40)
    return {
        "interval": (uniform_pattern(14, seed=301), QUAD),
        "interval-default": (uniform_pattern(5, seed=307), None),
        "labels-weighted": (uniform_pattern(
            16, seed=302, marks="labels", mark_space=LabelMarks(k=3, weights=(0.5, 1.0, 2.5))),
            QUAD),
        "normalized": (uniform_pattern(
            12, seed=303, mark_space=ContinuousMarks(0.0, 2.0, "normalized")), QUAD),
        "empirical": (uniform_pattern(
            12, seed=304, mark_space=ContinuousMarks(-1.0, 1.0, "empirical")), QUAD),
        "lattice-labels": (_lattice(np.tile([1.0, 2.0], 4), LabelMarks(k=2)),
                           Quadrature(n_space=8, n_time=8, n_space_only=8,
                                      n_time_tm=8, n_mark_tm=8, chunk=50)),
        "lattice-interval": (_lattice(np.tile([0.25, 0.75], 4), ContinuousMarks(0.0, 1.0)),
                             Quadrature(n_space=8, n_time=8, n_mark=4, n_space_only=8,
                                        n_time_tm=8, n_mark_tm=8, chunk=50)),
        "duplicates": (_duplicates(), Quadrature(n_space=10, n_time=9, n_time_tm=64,
                                                 n_space_only=24, chunk=37)),
        "refined-space": (close, coarse),
        "refined-time": (stacked, coarse),
        "dim1": (uniform_pattern(10, seed=304, window=line), QUAD),
        "dim3": (uniform_pattern(8, seed=305, window=cube, marks="labels"),
                 Quadrature(n_space=6, n_time=5, n_space_only=10, n_time_tm=9,
                            n_mark_tm=5, chunk=97)),
    }


def _queries(p, seed):
    """The pattern's own points followed by six points drawn in its domain
    (marks inside the mark space; None for an unmarked pattern)."""
    rng = np.random.default_rng(seed)
    lo, hi = p.window.spatial_bounds()
    x = np.vstack([p.x, lo + rng.random((6, p.dim)) * (hi - lo)])
    t0, t1 = p.window.temporal
    t = np.concatenate([p.t, t0 + rng.random(6) * (t1 - t0)])
    ms = p.mark_space
    if ms is None:
        return x, t, None
    if ms.is_labelled:
        m = rng.integers(1, ms.k + 1, size=6).astype(float)
    else:
        m = ms.lo + rng.random(6) * (ms.hi - ms.lo)
    return x, t, np.concatenate([p.marks, m])


def _cells(est):
    if isinstance(est, VoronoiEstimate):
        return {"cells": _reprs(est.measures), "quadrature": repr(est.quadrature),
                "refined": est.refined}
    out = {}
    for name, factor in sorted(est.factors.items()):
        out[f"{name}/cells"] = _reprs(factor.measures)
        if hasattr(factor, "quadrature"):
            out[f"{name}/quadrature"] = repr(factor.quadrature)
    return out


def _error(build):
    try:
        build()
    except (ValueError, TypeError, QuadratureError) as e:
        return f"{type(e).__name__}: {e}"
    return "no error"


def intensity_values():
    """name -> recorded values of every case (see the module docstring)."""
    out = {}
    for name, (p, quad) in patterns().items():
        x, t, m = _queries(p, seed=len(name))
        for est_name, build in ESTIMATORS.items():
            key = f"{name}/{est_name}"
            est = build(p, quad)
            case = {"own": _reprs(est.weights_for_own_points())}
            case["at"] = _reprs(est.at(x, t) if est_name == "ground" else est.at(x, t, m))
            case.update(_cells(est))
            case["mass"] = repr(float(estimate_mass(est)))
            if est_name in ("ground", "marked"):
                case["mass_override"] = repr(float(estimate_mass(est, AUDIT)))
            case["floor_hits"] = est.floor_hits
            out[key] = case
    unmarked = uniform_pattern(11, seed=308, marks=None)
    est = voronoi_ground(unmarked, QUAD)
    out["unmarked/ground"] = {
        "own": _reprs(est.weights_for_own_points()),
        "at": _reprs(est.at(*_queries(unmarked, seed=3)[:2])),
        **_cells(est),
        "mass": repr(float(estimate_mass(est))),
        "mass_override": repr(float(estimate_mass(est, AUDIT))),
    }

    tiny = Quadrature(n_space=4, n_time=4, n_mark=2, n_space_only=4,
                      n_time_tm=4, n_mark_tm=4, chunk=16)
    crowded = pattern_from_arrays(
        np.array([[0.5 - 1e-9, 0.5], [0.5, 0.5], [0.5 + 1e-9, 0.5]]),
        np.full(3, 0.5), np.full(3, 0.5), UNIT, ContinuousMarks(0.0, 1.0))
    empty = pattern_from_arrays(np.zeros((0, 2)), np.zeros(0), window=UNIT)
    errors = {
        "crowded/" + k: (lambda b=b: b(crowded, tiny)) for k, b in ESTIMATORS.items()
    }
    errors.update({
        # 14 time nodes cannot separate coincident times with distinct labels
        "duplicates-coarse/S3": lambda: voronoi_separable(_duplicates(), "S3", quadrature=QUAD),
        "empty/ground": lambda: voronoi_ground(empty),
        "empty/marked": lambda: voronoi_marked(empty),
        "empty/S1": lambda: voronoi_separable(empty, "S1"),
        "unmarked/marked": lambda: voronoi_marked(unmarked),
        "unmarked/S2": lambda: voronoi_separable(unmarked, "S2"),
        "bad-setup": lambda: voronoi_separable(uniform_pattern(3, seed=1), "S4"),
        "marked-at-without-marks": lambda: voronoi_marked(uniform_pattern(3, seed=1), tiny).at(
            np.array([[0.5, 0.5]]), np.array([0.5])),
        "audit-unknown": lambda: estimate_mass(object()),
    })
    out["errors"] = {k: _error(b) for k, b in sorted(errors.items())}
    return out


def test_intensity_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(intensity_values()))
    assert sorted(got) == sorted(golden)
    bad = [f"{name}/{part}" for name in golden for part in golden[name]
           if got[name].get(part) != golden[name][part]]
    assert sorted(got["errors"]) == sorted(golden["errors"])
    assert not bad, f"{len(bad)} parts changed, e.g. {bad[:5]}"


def test_intensity_cases_are_informative():
    golden = json.loads(GOLDEN.read_text())
    cases = {k: v for k, v in golden.items() if k != "errors"}
    # every estimator on every pattern, finite and positive
    for case in cases.values():
        assert all(math.isfinite(float(v)) and float(v) > 0 for v in case["own"] + case["at"])
    # every estimator refines once somewhere, and fails after refining
    refined = "Quadrature(n_space=12"
    assert golden["refined-time/ground"]["refined"]
    assert golden["refined-time/marked"]["refined"]
    assert golden["refined-space/S1"]["spatial/quadrature"].startswith(refined)
    assert golden["refined-space/S3-euclidean"]["timemark/quadrature"].startswith(refined)
    errors = golden["errors"]
    assert all(errors[f"crowded/{k}"].startswith("QuadratureError") for k in ESTIMATORS)
    assert errors["duplicates-coarse/S3"].startswith("QuadratureError: empty time-mark")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(intensity_values(), indent=1, sort_keys=True) + "\n")
