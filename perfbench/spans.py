"""Span recorder for the traced benchmark run, installed from outside the
package so that ``src/`` stays untouched.

It wraps the kronval functions at the names ``kronval.cli`` and
``kronval.harness`` bind, plus the few calls the per-layer metrics need
that happen inside a module (``generate.rmat_pairs``,
``patterns.enumerate_pair_unions`` and ``patterns.base_value``), the
``SampledGraph`` properties and methods, and ``SeedSpec.generator``.
Each span is named ``<layer>.<call>``, where the layer is the kronval module.
Spans and counts stay in memory; :meth:`Tracer.summary` turns them into the
per-layer metrics and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time

LAYERS = ("streams", "generate", "model", "edgelist", "measure", "patterns", "predict", "harness", "cli")


_STATM = os.open("/proc/self/statm", os.O_RDONLY)
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    """The process's current resident set size in MB (second field of statm)."""
    return int(os.pread(_STATM, 64, 0).split()[1]) * _PAGE_MB


class Tracer:
    """Spans ``[op, name, parent, start, end, rss_start, rss_end]`` and counts.

    A span's parent is the span open when it started; ``op`` is the index of
    the benchmark op it belongs to.  Times are ``time.perf_counter`` seconds,
    RSS is the process's current resident set in MB, so a span's RSS growth
    is the memory its call left resident (an array it built and kept, say),
    not a temporary peak inside it.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self._stack = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, parent, time.perf_counter(), 0.0, _rss_mb(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[4] = time.perf_counter()
        span[6] = _rss_mb()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def self_times(self) -> list:
        """Per span: (duration minus child durations, RSS growth minus children's)."""
        child_time = [0.0] * len(self.spans)
        child_rss = [0.0] * len(self.spans)
        for op, name, parent, start, end, rss0, rss1 in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_rss[parent] += rss1 - rss0
        return [
            (end - start - child_time[i], rss1 - rss0 - child_rss[i])
            for i, (op, name, parent, start, end, rss0, rss1) in enumerate(self.spans)
        ]

    def layer_self_per_op(self) -> dict:
        """op index -> {layer: self seconds}; the layers of one op sum to its root span."""
        per_op = collections.defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for span, (self_s, _) in zip(self.spans, self.self_times()):
            per_op[span[0]][span[1].split(".", 1)[0]] += self_s
        return dict(per_op)

    def summary(self) -> dict:
        """The per-layer metrics as ``{name: (value, unit)}``.

        ``<layer>.<call>_s`` is the total duration of that call's spans,
        children included; ``<layer>.self_s`` is the layer's self time, and
        the self times of all layers add up to the traced op time.  A layer
        that did not run reports 0.  ``<layer>.rss_growth_mb`` is the resident
        memory the layer's spans left behind, children's growth excluded.
        ``edgelist.bytes`` counts bytes written plus bytes read.
        """
        total = collections.Counter()
        calls = collections.Counter()
        layer_self = collections.Counter()
        layer_rss = collections.Counter()
        for span, (self_s, self_rss) in zip(self.spans, self.self_times()):
            name = span[1]
            layer = name.split(".", 1)[0]
            total[name] += span[4] - span[3]
            calls[name] += 1
            layer_self[layer] += self_s
            layer_rss[layer] += self_rss
        counts = self.counts
        generated_s = total["generate.stratified"] + total["generate.rmat"] + total["generate.naive"]
        edges_out = counts["generate.edges_out"]
        predict = [n for n in calls if n.startswith("predict.")]
        m = {
            "streams.generator_calls": (calls["streams.generator"], "count"),
            "streams.busy_s": (total["streams.generator"], "s"),
            "generate.stratified_s": (total["generate.stratified"], "s"),
            "generate.stratified_calls": (calls["generate.stratified"], "count"),
            "generate.edges_out": (edges_out, "count"),
            "generate.us_per_edge": (1e6 * generated_s / edges_out if edges_out else 0.0, "us/edge"),
            "generate.rmat_pairs_s": (total["generate.rmat_pairs"], "s"),
            "generate.rmat_s": (total["generate.rmat"], "s"),
            "generate.rmat_distinct_frac": (
                counts["generate.rmat_edges_out"] / counts["generate.rmat_pairs_drawn"]
                if counts["generate.rmat_pairs_drawn"] else 0.0,
                "ratio",
            ),
            "generate.rss_growth_mb": (layer_rss["generate"], "MB"),
            "model.edge_array_s": (total["model.edge_array"], "s"),
            "model.degrees_s": (total["model.degrees"], "s"),
            "model.neighbor_sets_s": (total["model.neighbor_sets"], "s"),
            "model.from_pairs_s": (total["model.from_pairs"], "s"),
            "model.rss_growth_mb": (layer_rss["model"], "MB"),
            "edgelist.write_s": (total["edgelist.write"], "s"),
            "edgelist.read_s": (total["edgelist.read"], "s"),
            "edgelist.bytes": (counts["edgelist.bytes"], "B"),
            "measure.count_copies_s": (total["measure.count_copies"], "s"),
            "measure.count_copies_calls": (calls["measure.count_copies"], "count"),
            "measure.concentration_s": (total["measure.concentration"], "s"),
            "measure.edge_hist_s": (total["measure.edge_hist"], "s"),
            "patterns.unions_s": (total["patterns.unions"], "s"),
            "patterns.unions_found": (counts["patterns.unions_found"], "count"),
            "patterns.base_value_s": (total["patterns.base_value"], "s"),
            "patterns.base_value_calls": (calls["patterns.base_value"], "count"),
            "predict.busy_s": (sum(total[n] for n in predict), "s"),
            "predict.calls": (sum(calls[n] for n in predict), "count"),
            "harness.run_s": (total["harness.run"], "s"),
            "harness.emit_s": (total["harness.emit"] + total["harness.report_json"], "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return m

    def dump(self, path: str) -> None:
        """Write spans (with self time), counts and per-op layer self times.
        Start and end are seconds since the first span opened."""
        origin = self.spans[0][3] if self.spans else 0.0
        spans = [
            [op, name, parent, round(start - origin, 9), round(end - origin, 9), round(self_s, 9), round(rss, 3)]
            for (op, name, parent, start, end, _, _), (self_s, rss) in zip(self.spans, self.self_times())
        ]
        doc = {
            "span_fields": ["op", "name", "parent", "start_s", "end_s", "self_s", "self_rss_growth_mb"],
            "spans": spans,
            "counts": dict(self.counts),
            "layer_self_s_per_op": {str(op): layers for op, layers in self.layer_self_per_op().items()},
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _graph_out(tracer: Tracer, args, kwargs, graph) -> None:
    tracer.count("generate.edges_out", len(graph.edges) + len(graph.loops))


def _rmat_out(tracer: Tracer, args, kwargs, graph) -> None:
    _graph_out(tracer, args, kwargs, graph)
    rmat = args[0] if args else kwargs["rmat"]
    tracer.count("generate.rmat_edges_out", len(graph.edges) + len(graph.loops))
    tracer.count("generate.rmat_pairs_drawn", rmat.m)


def _file_bytes(position: int, keyword: str):
    def after(tracer: Tracer, args, kwargs, result) -> None:
        path = args[position] if len(args) > position else kwargs[keyword]
        tracer.count("edgelist.bytes", os.path.getsize(path))

    return after


def _unions_out(tracer: Tracer, args, kwargs, unions) -> None:
    tracer.count("patterns.unions_found", len(unions))


# (module, function, span name, count hook) for functions reached through a
# module global: the names kronval.cli and kronval.harness bind, plus the
# in-module calls the per-layer metrics name.
_FUNCTIONS = [
    ("kronval.cli", "generate_stratified", "generate.stratified", _graph_out),
    ("kronval.cli", "generate_naive", "generate.naive", _graph_out),
    ("kronval.cli", "generate_rmat", "generate.rmat", _rmat_out),
    ("kronval.harness", "generate_stratified", "generate.stratified", _graph_out),
    ("kronval.harness", "generate_naive", "generate.naive", _graph_out),
    ("kronval.harness", "generate_rmat", "generate.rmat", _rmat_out),
    ("kronval.generate", "rmat_pairs", "generate.rmat_pairs", None),
    ("kronval.cli", "write_edgelist", "edgelist.write", _file_bytes(1, "path")),
    ("kronval.harness", "write_edgelist", "edgelist.write", _file_bytes(1, "path")),
    ("kronval.cli", "read_edgelist", "edgelist.read", _file_bytes(0, "path")),
    ("kronval.cli", "count_labeled_copies", "measure.count_copies", None),
    ("kronval.harness", "count_labeled_copies", "measure.count_copies", None),
    ("kronval.cli", "edge_distance_histogram", "measure.edge_hist", None),
    ("kronval.harness", "edge_distance_histogram", "measure.edge_hist", None),
    ("kronval.harness", "concentration_report", "measure.concentration", None),
    ("kronval.cli", "parse_pattern", "patterns.parse", None),
    ("kronval.harness", "parse_pattern", "patterns.parse", None),
    ("kronval.cli", "second_moment_certificate", "patterns.certificate", None),
    ("kronval.patterns", "enumerate_pair_unions", "patterns.unions", _unions_out),
    ("kronval.patterns", "base_value", "patterns.base_value", None),
    ("kronval.harness", "base_value", "patterns.base_value", None),
    ("kronval.harness", "expected_copies_asymptotic", "patterns.copies_asymptotic", None),
    ("kronval.harness", "expected_copies_exact", "patterns.copies_exact", None),
    ("kronval.cli", "degree_moments", "predict.degree_moments", None),
    ("kronval.cli", "expected_degree_count", "predict.expected_degree_count", None),
    ("kronval.cli", "classify_regime", "predict.classify_regime", None),
    ("kronval.cli", "hamming_profile_prediction", "predict.hamming_profile", None),
    ("kronval.cli", "hamming_window", "predict.hamming_window", None),
    ("kronval.cli", "critical_fraction", "predict.critical_fraction", None),
    ("kronval.harness", "expected_degree_count", "predict.expected_degree_count", None),
    ("kronval.harness", "classify_regime", "predict.classify_regime", None),
    ("kronval.harness", "hamming_profile_prediction", "predict.hamming_profile", None),
    ("kronval.harness", "hamming_window", "predict.hamming_window", None),
    ("kronval.cli", "run_experiment", "harness.run", None),
    ("kronval.cli", "emit_report", "harness.emit", None),
    ("kronval.cli", "report_json", "harness.report_json", None),
]

# (module, class, attribute, span name) for methods and cached properties,
# wrapped on the class so that every call site is seen.
_METHODS = [
    ("kronval.model", "SampledGraph", "edge_array", "model.edge_array"),
    ("kronval.model", "SampledGraph", "neighbor_sets", "model.neighbor_sets"),
    ("kronval.model", "SampledGraph", "degrees", "model.degrees"),
    ("kronval.model", "SampledGraph", "from_pairs", "model.from_pairs"),
    ("kronval.streams", "SeedSpec", "generator", "streams.generator"),
]


def _wrap(tracer: Tracer, fn, name: str, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


class _TracedCachedProperty:
    """Non-data descriptor around a ``functools.cached_property``: a span on
    the computing access; later reads hit the instance dict and skip it."""

    def __init__(self, tracer: Tracer, prop, name: str):
        self.tracer = tracer
        self.prop = prop
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.prop
        index = self.tracer.open(self.name)
        try:
            return self.prop.__get__(obj, owner)
        finally:
            self.tracer.close(index)


class Instrumentation:
    """Installs the wrappers for one tracer and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def install(self) -> None:
        tracer = self.tracer
        for module_name, attr, name, after in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, after))
        for module_name, class_name, attr, name in _METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, functools.cached_property):
                replacement = _TracedCachedProperty(tracer, original, name)
            elif isinstance(original, classmethod):
                replacement = classmethod(_wrap(tracer, original.__func__, name, None))
            else:
                replacement = _wrap(tracer, original, name, None)
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
