"""Spans around the library calls the four ``mstpp`` commands make.

The library has no tracing of its own, so a traced pass swaps selected
module attributes for wrappers that record a span (name, parent, start,
end, exception) and then calls the original. Each wrapper sits at the
name its caller looks up at call time, e.g. ``mstpp.cli.voronoi_ground``
for the ``ground`` estimator but ``mstpp.intensity.voronoi_ground`` for
the ground factor that ``voronoi_separable`` builds for S2. The originals
are restored when the pass ends. Command spans (``cli.<command>``) are
opened by the benchmark around its own ``mstpp.cli.main`` call.

A span's self time is its duration minus the durations of its direct
children; every span name maps to exactly one per-layer metric, so the
self times of one command's spans add up to the command's traced time.
"""

import time
from collections import defaultdict

import numpy as np

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "simulate.grf_factor_s": ("s", "wall_s, peak_rss_mb on estimate (dense 4096^2 factor per simulate call)"),
    "simulate.grf_cells": ("count", "wall_s, peak_rss_mb on estimate"),
    "simulate.preset_s": ("s", "wall_s on estimate; negligible on labelling"),
    "simulate.points": ("count", "input size; pinned by the benchmark, should not move"),
    "intensity.ground_s": ("s", "wall_s on estimate; about a third of wall_s on labelling"),
    "intensity.marked_s": ("s", "wall_s on estimate"),
    "intensity.separable_s": ("s", "wall_s on estimate"),
    "intensity.audit_s": ("s", "wall_s and mass_err_max on estimate"),
    "intensity.eval_s": ("s", "wall_s on estimate"),
    "intensity.builds": ("count", "fail_frac on estimate"),
    "intensity.failed": ("count", "fail_frac on estimate"),
    "intensity.refined": ("count", "wall_s and mass_err_max on estimate"),
    "intensity.generators": ("count", "wall_s on estimate and labelling"),
    "intensity.floor_hits": ("count", "mass_err_max on estimate"),
    "intensity.node_gen_evals": ("count", "wall_s on estimate and labelling (computed: nodes x generators x mark nodes)"),
    "second_order.geometry_s": ("s", "wall_s, peak_rss_mb on k-large; negligible on labelling"),
    "second_order.pairs": ("count", "wall_s, peak_rss_mb on k-large"),
    "second_order.pair_mb": ("MB", "peak_rss_mb on k-large (computed bytes of PairGeometry arrays)"),
    "second_order.surface_s": ("s", "wall_s on k-large"),
    "inference.test_s": ("s", "wall_s on labelling; zero elsewhere"),
    "inference.perms": ("count", "wall_s on labelling; zero elsewhere"),
    "inference.perm_ms": ("ms", "wall_s on labelling; zero elsewhere"),
    "inference.weights_builds": ("count", "wall_s on labelling; zero elsewhere"),
    "pattern.load_s": ("s", "small share of wall_s; largest on k-large"),
    "pattern.save_s": ("s", "small share of wall_s on estimate and labelling"),
    "pattern.permute_s": ("s", "small share of wall_s on labelling"),
    "cli.simulate_s": ("s", "wall_s on estimate and labelling"),
    "cli.intensity_s": ("s", "wall_s on estimate"),
    "cli.k_s": ("s", "wall_s on k-large"),
    "cli.test_s": ("s", "wall_s on labelling"),
    "cli.self_s": ("s", "small share of wall_s on all workloads (config parsing, CSV formatting, writes)"),
    "fail_frac": ("ratio", "failed / attempted operations of the traced run; nonzero on estimate"),
    "mass_err_max": ("ratio", "largest relative_mass_error in audit.txt; estimate only, 0 elsewhere"),
    "trace.overhead_s": ("s", "traced minus untraced wall_s; should stay near 0"),
}

# span name -> the self-time metric it is summed into
SELF_TIME_METRIC = {
    "simulate.grf_factor": "simulate.grf_factor_s",
    "simulate.preset": "simulate.preset_s",
    "intensity.ground": "intensity.ground_s",
    "intensity.marked": "intensity.marked_s",
    "intensity.separable": "intensity.separable_s",
    "intensity.audit": "intensity.audit_s",
    "intensity.eval": "intensity.eval_s",
    "second_order.geometry": "second_order.geometry_s",
    "second_order.surface": "second_order.surface_s",
    "inference.test": "inference.test_s",
    "pattern.load": "pattern.load_s",
    "pattern.save": "pattern.save_s",
    "pattern.permute": "pattern.permute_s",
    "cli.simulate": "cli.self_s",
    "cli.intensity": "cli.self_s",
    "cli.k": "cli.self_s",
    "cli.test": "cli.self_s",
}
BUILD_SPANS = ("intensity.ground", "intensity.marked", "intensity.separable")
# per-layer metrics the worker computes from the whole run, not from spans
RUN_METRICS = ("fail_frac", "mass_err_max", "trace.overhead_s")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end, exception name or None]
        self.counts = defaultdict(float)
        self.estimates = []
        self._stack = []
        self._patched = []

    def call(self, name, fn, args, kwargs, on_result=None):
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span[4] = type(e).__name__
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)

        return traced

    def _patch(self, owner, attr, wrapped):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        """Swap the traced attributes in; ``uninstall`` restores them."""
        import mstpp.cli as cli
        import mstpp.inference as inference
        import mstpp.intensity as intensity
        import mstpp.second_order as second_order
        from mstpp.simulate import GRFSampler

        def functions(module, names, span, on_result=None):
            for attr in names:
                self._patch(module, attr, self.wrap(span, getattr(module, attr), on_result))

        functions(cli, ["simulate_preset"], "simulate.preset", self._on_pattern)
        build = GRFSampler.__dict__["build"].__func__
        self._patch(GRFSampler, "build", classmethod(
            lambda cls, *a, **k: self.call("simulate.grf_factor", build, (cls,) + a, k,
                                           self._on_sampler)))
        functions(cli, ["voronoi_ground"], "intensity.ground", self._on_estimate)
        functions(intensity, ["voronoi_ground"], "intensity.ground", self._on_estimate)
        functions(inference, ["voronoi_ground"], "intensity.ground", self._on_estimate)
        functions(cli, ["voronoi_marked"], "intensity.marked", self._on_estimate)
        separable = cli.voronoi_separable
        self._patch(cli, "voronoi_separable", lambda *a, **k: self.call(
            "intensity.separable", separable, a, k,
            lambda est: self._on_estimate(est, k.get("quadrature"))))
        functions(cli, ["estimate_mass"], "intensity.audit")
        for cls in (intensity.VoronoiEstimate, intensity.SeparableIntensity):
            self._patch(cls, "at", self.wrap("intensity.eval", cls.__dict__["at"]))
        functions(second_order, ["pair_geometry"], "second_order.geometry", self._on_geometry)
        functions(inference, ["pair_geometry"], "second_order.geometry", self._on_geometry)
        functions(cli, ["k_stationary", "k_inhom", "k_smoothed"], "second_order.surface")
        test = cli.random_labelling_test

        def traced_test(*args, **kwargs):
            if kwargs.get("weights_builder") is not None:
                kwargs["weights_builder"] = self._counted_builder(kwargs["weights_builder"])
            return self.call("inference.test", test, args, kwargs, self._on_envelope)

        self._patch(cli, "random_labelling_test", traced_test)
        default_builder = inference._default_builder
        self._patch(inference, "_default_builder",
                    lambda p: self._counted_builder(default_builder(p)))
        functions(cli, ["load_catalog"], "pattern.load")
        functions(cli, ["save_catalog"], "pattern.save")
        functions(inference, ["permute_marks"], "pattern.permute")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- counters, updated outside the span they describe ----

    def _counted_builder(self, builder):
        def build(q):
            self.counts["inference.weights_builds"] += 1
            return builder(q)

        return build

    def _on_pattern(self, p):
        self.counts["simulate.points"] += p.n

    def _on_sampler(self, sampler):
        self.counts["simulate.grf_cells"] += int(np.prod(sampler.shape))

    def _on_geometry(self, geom):
        self.counts["second_order.pairs"] += geom.I.size
        self.counts["second_order.pair_mb"] += sum(
            v.nbytes for v in vars(geom).values() if isinstance(v, np.ndarray)) / 1e6

    def _on_envelope(self, env):
        self.counts["inference.perms"] += env.n_sim

    def _on_estimate(self, est, quadrature=None):
        from mstpp.intensity import Quadrature, VoronoiEstimate

        self.estimates.append(est)
        p = est.pattern
        d = p.window.dim
        if isinstance(est, VoronoiEstimate):
            q = est.quadrature
            gens = est.gens_x.shape[0]
            nodes = q.n_space ** d * q.n_time
            if est.kind == "marked":
                nodes *= _mark_nodes(p, q.n_mark)
            self.counts["intensity.refined"] += bool(est.refined)
            self.counts["intensity.generators"] += gens
            self.counts["intensity.node_gen_evals"] += nodes * gens
            return
        # separable: count the quadrature-built factors; S2's ground factor
        # is counted by its own span
        base = quadrature if quadrature is not None else Quadrature()
        refined = False
        for factor in est.factors.values():
            if not hasattr(factor, "quad"):
                continue
            q = factor.quad
            refined |= q != base
            if hasattr(factor, "gens"):
                gens, nodes = factor.gens.shape[0], q.n_space_only ** d
            else:
                gens, nodes = factor.gens_t.size, q.n_time_tm * _mark_nodes(p, q.n_mark_tm)
            self.counts["intensity.generators"] += gens
            self.counts["intensity.node_gen_evals"] += nodes * gens
        self.counts["intensity.refined"] += refined

    # ---- summary ----

    def self_times(self):
        durations = [s[3] - s[2] for s in self.spans]
        own = list(durations)
        for s, dur in zip(self.spans, durations):
            if s[1] is not None:
                own[s[1]] -= dur
        return durations, own

    def layer_metrics(self):
        """Per-layer metrics of the pass, plus a list of accounting errors
        (empty when each command's time is covered by its spans' self times)."""
        durations, own = self.self_times()
        m = {name: 0.0 for name in LAYER_METRICS if name not in RUN_METRICS}
        for span, self_s in zip(self.spans, own):
            m[SELF_TIME_METRIC[span[0]]] += self_s
        for span, dur in zip(self.spans, durations):
            if span[0].startswith("cli."):
                m[span[0] + "_s"] += dur
        builds = [s for s in self.spans if s[0] in BUILD_SPANS]
        m["intensity.builds"] = float(len(builds))
        m["intensity.failed"] = float(sum(s[4] == "QuadratureError" for s in builds))
        m["intensity.floor_hits"] = float(sum(e.floor_hits for e in self.estimates))
        for name, value in self.counts.items():
            m[name] = float(value)
        perms = m["inference.perms"]
        m["inference.perm_ms"] = 1000.0 * m["inference.test_s"] / perms if perms else 0.0

        errors = []
        covered = defaultdict(float)
        for i, span in enumerate(self.spans):
            root = i
            while self.spans[root][1] is not None:
                root = self.spans[root][1]
            if not self.spans[root][0].startswith("cli."):
                errors.append(f"span {span[0]} runs outside a command")
            if own[i] < -1e-9:
                errors.append(f"span {span[0]} is shorter than its children")
            covered[root] += own[i]
        for root, total in covered.items():
            if abs(total - durations[root]) > 1e-9 * max(1.0, durations[root]):
                errors.append(f"{self.spans[root][0]}: self times cover {total!r} s "
                              f"of {durations[root]!r} s")
        return m, errors


def _mark_nodes(p, n_mark):
    ms = p.mark_space
    if ms.is_labelled:
        return ms.k
    if ms.reference == "empirical":
        return np.unique(p.marks).size
    return n_mark
