"""The traced benchmark pass (perfbench/spans.py) wraps library functions
at the module attributes their callers look up. A refactor that drops or
renames one of them breaks the traced pass, so it must fail here too."""

import importlib.util
from pathlib import Path

import numpy as np

import mstpp.cli as cli
from mstpp.intensity import Quadrature
from mstpp.pattern import LabelSet

from .conftest import uniform_pattern

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
GRID = np.array([0.1, 0.2])


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_restores_every_name():
    tracer = load_tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patched}
    assert {("mstpp.inference", "pair_geometry"), ("mstpp.inference", "_default_builder"),
            ("mstpp.inference", "permute_marks"), ("mstpp.second_order", "pair_geometry"),
            ("mstpp.cli", "k_stationary"), ("mstpp.cli", "random_labelling_test")} <= names
    # the estimators at every name their callers look up, and the `at` that
    # each estimate class defines itself (one inherited from a base class
    # cannot be wrapped per class)
    assert {("mstpp.cli", "voronoi_ground"), ("mstpp.intensity", "voronoi_ground"),
            ("mstpp.inference", "voronoi_ground"), ("mstpp.cli", "voronoi_marked"),
            ("mstpp.cli", "voronoi_separable"), ("mstpp.cli", "estimate_mass"),
            ("VoronoiEstimate", "at"), ("SeparableIntensity", "at")} <= names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def test_traced_k_family_calls_account_for_their_time():
    p = uniform_pattern(30, seed=5, marks="labels")
    tracer = load_tracer()
    tracer.install()
    try:
        surf = tracer.call("cli.k", lambda: cli.k_stationary(p, r_grid=GRID, t_grid=GRID),
                           (), {})
        tracer.call("cli.test", lambda: cli.random_labelling_test(
            p, LabelSet([1]), LabelSet([2]), GRID, GRID, n_perm=3, seed=1), (), {})
    finally:
        tracer.uninstall()
    metrics, errors = tracer.layer_metrics()
    assert errors == []
    assert surf.values.shape == (2, 2)
    # one geometry per command, each counted once
    assert [s[0] for s in tracer.spans].count("second_order.geometry") == 2
    assert metrics["inference.perms"] == 3.0
    assert metrics["pattern.permute_s"] > 0.0


def test_traced_intensity_builds_count_generators_and_node_evaluations():
    p = uniform_pattern(30, seed=6, marks="labels")  # distinct x and t, labels {1, 2}
    q = Quadrature(n_space=8, n_time=6, n_space_only=16, n_time_tm=128, chunk=100)
    x, t, m = p.x[:4], p.t[:4], p.marks[:4]
    tracer = load_tracer()
    tracer.install()
    try:
        def intensity():
            for est in (cli.voronoi_marked(p, q), cli.voronoi_separable(p, "S3", quadrature=q),
                        cli.voronoi_separable(p, "S2", quadrature=q),
                        cli.voronoi_separable(p, "S1", quadrature=q)):
                est.at(x, t, m)
                cli.estimate_mass(est)

        tracer.call("cli.intensity", intensity, (), {})
    finally:
        tracer.uninstall()
    metrics, errors = tracer.layer_metrics()
    assert errors == []
    spans = [s[0] for s in tracer.spans]
    # S2's `at` evaluates its ground factor through that estimate's own `at`
    assert spans.count("intensity.eval") == 5 and spans.count("intensity.audit") == 4
    # S2 builds its ground factor in an `intensity.ground` span of its own
    assert spans.count("intensity.separable") == 3 and spans.count("intensity.ground") == 1
    assert (metrics["intensity.builds"], metrics["intensity.failed"],
            metrics["intensity.refined"]) == (5.0, 0.0, 0.0)
    # 30 generators in each of the marked, spatial (S3 and S1), time-mark and
    # ground tessellations; their nodes: 8^2 x 6 space-time x 2 labels, 16^2
    # spatial, 128 times x 2 labels, 8^2 x 6 space-time. S2's ground factor
    # is counted once, by its own span; the exact 1-D and label cells of S1
    # and S2 add none.
    assert metrics["intensity.generators"] == 150.0
    assert metrics["intensity.node_gen_evals"] == 30 * (
        8**2 * 6 * 2 + 16**2 + 128 * 2 + 8**2 * 6 + 16**2)
