"""Spans and counters recorded around thclust's public functions.

The traced run replaces each function in ``SPANS`` by a wrapper, in every
``thclust`` module that binds it (``cli`` imports ``min_feasible_flow``
itself, so wrapping only ``labeling`` would miss the CLI's calls). Methods
are wrapped once on their class. Per-element accessors such as
``MetricSpace.distance`` are deliberately left alone: one ``cluster``
command calls it hundreds of thousands of times, and a span there would
measure the tracer rather than the library.

A span's self time is its duration minus the time its child spans cover.
Counters are computed from each call's arguments and result after the
span's clock has stopped, so they add nothing to the layer times.
"""

from __future__ import annotations

import pathlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute path inside the module)
SPANS = (
    ("metric.MetricSpace", "thclust.metric", "MetricSpace.__init__"),
    ("metric.restrict", "thclust.metric", "MetricSpace.restrict"),
    ("metric.hausdorff_distance", "thclust.metric", "hausdorff_distance"),
    ("metric.linf_distance", "thclust.metric", "linf_distance"),
    ("ultrametric.minimum_spanning_edges", "thclust.ultrametric", "minimum_spanning_edges"),
    ("ultrametric.fkw_fit", "thclust.ultrametric", "fkw_fit"),
    ("ultrametric.subdominant_ultrametric", "thclust.ultrametric", "subdominant_ultrametric"),
    ("ultrametric.validate_ultrametric", "thclust.ultrametric", "validate_ultrametric"),
    ("ultrametric.to_dendrogram", "thclust.ultrametric", "to_dendrogram"),
    ("ultrametric.Dendrogram.to_ultrametric", "thclust.ultrametric", "Dendrogram.to_ultrametric"),
    ("ultrametric.cut_at_height", "thclust.ultrametric", "cut_at_height"),
    ("temporal.solve_local", "thclust.temporal", "solve_local"),
    ("temporal.build_hausdorff_correspondence", "thclust.temporal", "build_hausdorff_correspondence"),
    ("temporal.distortion", "thclust.temporal", "distortion"),
    ("temporal.evaluate_general", "thclust.temporal", "evaluate_general"),
    ("labeling.solve_labeled", "thclust.labeling", "solve_labeled"),
    ("labeling.build_flow_instance", "thclust.labeling", "build_flow_instance"),
    ("labeling.min_feasible_flow", "thclust.labeling", "min_feasible_flow"),
    ("labeling.decompose_paths", "thclust.labeling", "decompose_paths"),
    ("labeling.paths_to_labelings", "thclust.labeling", "paths_to_labelings"),
    ("labeling.check_contiguity", "thclust.labeling", "check_contiguity"),
    ("hardness.reduce_from_graph", "thclust.hardness", "reduce_from_graph"),
    ("hardness.witness_from_coloring", "thclust.hardness", "witness_from_coloring"),
    ("hardness.verify_witness", "thclust.hardness", "verify_witness"),
    ("hardness.coloring_from_witness", "thclust.hardness", "coloring_from_witness"),
    ("flocking.run_detailed", "thclust.flocking", "run_detailed"),
    ("flocking.step", "thclust.flocking", "step"),
    ("cli.simulate", "thclust.cli", "cmd_simulate"),
    ("cli.cluster", "thclust.cli", "cmd_cluster"),
    ("cli.fit", "thclust.cli", "cmd_fit"),
    ("cli.cut", "thclust.cli", "cmd_cut"),
    ("cli.reduce", "thclust.cli", "cmd_reduce"),
    ("cli.witness", "thclust.cli", "cmd_witness"),
    ("cli.verify", "thclust.cli", "cmd_verify"),
)

# Root spans opened by the benchmark itself; their self time is its glue.
GLUE = ("bench.setup", "bench.pass")

COUNTERS = (
    "metric.validated_points",
    "ultrametric.merges",
    "ultrametric.distinct_heights",
    "ultrametric.dendrogram_cells",
    "temporal.corr_pairs",
    "temporal.distortion_cells",
    "temporal.distortion_bytes",
    "temporal.pairs_per_point",
    "labeling.flow_nodes",
    "labeling.flow_edges",
    "labeling.labels_per_point",
    "hardness.vertices",
    "hardness.edges",
    "flocking.points",
    "cli.bytes_written",
    "cli.bytes_read",
)


def _count_metric_space(c, args, kwargs, result):
    # Only an explicit matrix with validate=True pays the O(n^3) checks.
    dist = kwargs.get("dist", args[2] if len(args) > 2 else None)
    validate = kwargs.get("validate", args[5] if len(args) > 5 else True)
    if validate and dist is not None:
        c["metric.validated_points"] += len(args[0].points)


def _count_dendrogram(c, args, kwargs, result):
    n = len(result.leaves)
    heights = len({h for h, _, _ in result.merges})
    c["ultrametric.merges"] += len(result.merges)
    c["ultrametric.distinct_heights"] += heights
    c["ultrametric.dendrogram_cells"] += heights * n * n


def _count_correspondence(c, args, kwargs, result):
    c["temporal.corr_pairs"] += len(result.pairs)
    c["_first_side_points"] += len(args[0])


def _count_distortion(c, args, kwargs, result):
    k = len(args[2].pairs)
    c["temporal.distortion_cells"] += k * k
    c["temporal.distortion_bytes"] += 2 * 8 * k * k  # two float64 KxK gathers


def _count_flow_instance(c, args, kwargs, result):
    c["labeling.flow_nodes"] += result.size + 2
    c["labeling.flow_edges"] += len(result.edges)


def _count_min_flow(c, args, kwargs, result):
    c["_flow_value"] += result.value
    c["_flow_points"] += result.network.size


def _count_reduction(c, args, kwargs, result):
    c["hardness.vertices"] += len(args[0].vertices)
    c["hardness.edges"] += len(args[0].edges)


def _count_flock(c, args, kwargs, result):
    c["flocking.points"] += result[0].size


COUNT_HOOKS = {
    "metric.MetricSpace": _count_metric_space,
    "ultrametric.to_dendrogram": _count_dendrogram,
    "temporal.build_hausdorff_correspondence": _count_correspondence,
    "temporal.distortion": _count_distortion,
    "labeling.build_flow_instance": _count_flow_instance,
    "labeling.min_feasible_flow": _count_min_flow,
    "hardness.reduce_from_graph": _count_reduction,
    "flocking.run_detailed": _count_flock,
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span statistics: calls, total and self seconds per name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time per open span
        self._cli_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                if self._children:
                    self._children[-1] += elapsed
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside one of the benchmark's own spans."""
        return self.span(name, fn)(*args)

    def install(self) -> None:
        """Wrap every function in SPANS wherever a thclust module binds it,
        and count the bytes the CLI reads and writes."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "thclust" or n.startswith("thclust."))]
        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapped = self.span(name, original, COUNT_HOOKS.get(name))
            if name.startswith("cli."):
                wrapped = self._cli_scope(wrapped)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        self._patch(pathlib.Path, "read_text", self._io(pathlib.Path.read_text, "cli.bytes_read"))
        self._patch(pathlib.Path, "write_text", self._io(pathlib.Path.write_text, "cli.bytes_written"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _cli_scope(self, fn):
        def wrapper(*args, **kwargs):
            self._cli_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._cli_depth -= 1
        return wrapper

    def _io(self, method, counter: str):
        tracer = self

        def wrapper(path, *args, **kwargs):
            result = method(path, *args, **kwargs)
            if tracer._cli_depth:
                text = result if counter == "cli.bytes_read" else args[0]
                tracer.counts[counter] += len(text.encode())
            return result
        return wrapper

    def metrics(self, units: int) -> dict[str, float]:
        """Per-unit figures for every span and counter, zero where unused."""
        out: dict[str, float] = {}
        for name in [s[0] for s in SPANS] + list(GLUE):
            out[f"{name}.calls"] = self.calls[name] / units
            out[f"{name}.total_s"] = self.total[name] / units
            out[f"{name}.self_s"] = self.self_time[name] / units
        c = self.counts
        for name in COUNTERS:
            out[name] = c[name] / units
        out["temporal.pairs_per_point"] = (
            c["temporal.corr_pairs"] / c["_first_side_points"] if c["_first_side_points"] else 0.0
        )
        out["labeling.labels_per_point"] = (
            c["_flow_value"] / c["_flow_points"] if c["_flow_points"] else 0.0
        )
        return out
