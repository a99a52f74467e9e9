"""Spans around public calls into corp, installed from the benchmark only.

``Tracer.installed()`` swaps each traced function for a wrapper in every corp
module that holds a reference to it (so ``from .search import score_all``
aliases are covered), wraps the ``__post_init__`` validation of the pipeline
types, and routes decoders returned by ``get_decoder`` through a span. Leaving
the context restores the originals, so untraced ops run corp unchanged.

A span is ``[op, id, parent, name, start_ns, end_ns, args]``. ``args`` holds
the call's positional arguments (a path, the instance being validated, the
maps being evaluated) until the op's metrics are taken, to count bytes. The
layer of a span is the part of its name before the first dot; the op's root
span belongs to the ``bench`` layer.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

FUNCTIONS = (
    ("corp.cli", "main", "cli.main"),
    ("corp.pipeline", "run_pipeline", "pipeline.run"),
    ("corp.pipeline", "compute_proxy", "pipeline.proxy"),
    ("corp.pipeline", "resize_map_group", "pipeline.resize"),
    ("corp.search", "score_all", "search.score"),
    ("corp.search", "search_corepresentation", "search.select"),
    ("corp.search", "correlation_transform", "search.transform"),
    ("corp.search", "purity_proportion", "search.purity"),
    ("corp.tensor", "masked_gap", "tensor.masked_gap"),
    ("corp.tensor", "topk_desc", "tensor.topk"),
    ("corp.tensor", "bilinear_resize", "tensor.bilinear_resize"),
    ("corp.metrics", "evaluate", "metrics.evaluate"),
    ("corp.metrics", "write_metrics_csv", "metrics.write_csv"),
    ("corp.storage", "read_tensor", "storage.read"),
    ("corp.storage", "read_map_pgm", "storage.read"),
    ("corp.storage", "write_tensor", "storage.write"),
    ("corp.storage", "write_map_pgm", "storage.write"),
)
TYPES = (
    ("FeatureGroup", "types.feature_group"),
    ("MapGroup", "types.map_group"),
    ("CorrelationMapStack", "types.correlation_stack"),
    ("Proxy", "types.proxy"),
    ("CoRepresentation", "types.corep"),
)
ROOT = "bench.op"
LAYERS = ("types", "tensor", "pipeline", "search", "decoder", "metrics", "storage", "cli")

# Inclusive time per op of these span names, reported as <name>_ms.
INCLUSIVE = (
    "types.feature_group", "tensor.masked_gap", "tensor.topk", "tensor.bilinear_resize",
    "pipeline.proxy", "pipeline.resize", "search.select", "search.transform",
    "search.purity", "decoder.decode", "metrics.evaluate", "storage.read", "storage.write",
)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "types.feature_group_ms": "ms",
    "types.feature_bytes": "bytes",
    "types.self_ms": "ms",
    "tensor.masked_gap_ms": "ms",
    "tensor.topk_ms": "ms",
    "tensor.bilinear_resize_ms": "ms",
    "tensor.self_ms": "ms",
    "pipeline.proxy_ms": "ms",
    "pipeline.resize_ms": "ms",
    "pipeline.self_ms": "ms",
    "pipeline.iterations": "count",
    "search.select_ms": "ms",
    "search.transform_ms": "ms",
    "search.purity_ms": "ms",
    "search.score_passes_per_iter": "count",
    "search.score_bytes_per_op": "bytes",
    "search.self_ms": "ms",
    "decoder.decode_ms": "ms",
    "decoder.self_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "metrics.threshold_bytes_per_image": "bytes",
    "metrics.self_ms": "ms",
    "storage.read_ms": "ms",
    "storage.write_ms": "ms",
    "storage.bytes_read": "bytes",
    "storage.bytes_written": "bytes",
    "cli.load_ms": "ms",
    "cli.self_ms": "ms",
    "bench.unattributed_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.failed_ratio": "ratio",
}

# Boolean 256 x HW threshold matrices that corp.metrics.evaluate builds per
# image, by ground-truth class: the F curve builds pred > tau, its & with fg
# and with ~fg (none for all-background GT); the E measure builds the same
# three for mixed GT and only pred > tau for single-class GT.
THRESHOLD_MATRICES = {"mixed": 6, "background": 1, "foreground": 4}


class Tracer:
    """Collects spans in memory; one op is open at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[list] = []
        self._next = 0
        self._patches = None

    def open(self, name: str, args=()) -> list:
        parent = self._stack[-1][1] if self._stack else None
        span = [self.op, self._next, parent, name, time.perf_counter_ns(), 0, args]
        self._next += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def _build_patches(self) -> list[tuple]:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "corp" or k.startswith("corp.")]
        patches = []
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(original, span_name)
            patches += [(m, a, v, wrapped) for m in modules for a, v in vars(m).items() if v is original]
        types = sys.modules["corp.types"]
        for cls_name, span_name in TYPES:
            cls = getattr(types, cls_name)
            patches.append((cls, "__post_init__", cls.__post_init__,
                            self.wrap(cls.__post_init__, span_name)))
        get_decoder = sys.modules["corp.decoder"].get_decoder
        decoders = {}

        def traced_get_decoder(name):
            fn = get_decoder(name)
            if fn not in decoders:
                decoders[fn] = self.wrap(fn, "decoder.decode")
            return decoders[fn]
        patches += [(m, a, v, traced_get_decoder)
                    for m in modules for a, v in vars(m).items() if v is get_decoder]
        return patches

    @contextlib.contextmanager
    def installed(self):
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)


def uncovered(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi) not covered by the union of ``intervals``."""
    covered = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part its child spans cover (ns)."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[2], []).append((s[4], s[5]))
    return {s[1]: uncovered(s[4], s[5], children.get(s[1], ())) for s in spans}


def cli_split(spans) -> tuple[int, int]:
    """cli self time before the first pipeline or metrics call, and after it."""
    load = rest = 0
    for s in spans:
        if s[3] != "cli.main":
            continue
        kids = [(c[4], c[5]) for c in spans if c[2] == s[1]]
        work = [c[4] for c in spans if c[2] == s[1] and layer_of(c[3]) in ("pipeline", "metrics")]
        cut = min(work, default=s[5])
        head = uncovered(s[4], cut, kids)
        load += head
        rest += uncovered(s[4], s[5], kids) - head
    return load, rest


def _threshold_bytes(pred, gt) -> float:
    g = np.asarray(gt.maps) >= 0.5
    hw = g.shape[1] * g.shape[2]
    total = 0
    for img in g:
        kind = "background" if not img.any() else "foreground" if img.all() else "mixed"
        total += THRESHOLD_MATRICES[kind] * 256 * hw
    return total / g.shape[0]


def op_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (root span included)."""
    ms = 1e-6
    selfs = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    by_name: dict[str, int] = {}
    by_layer: dict[str, int] = {}
    counts: dict[str, int] = {}
    names = {s[1]: s[3] for s in spans}
    for s in spans:
        counts[s[3]] = counts.get(s[3], 0) + 1
        by_layer[layer_of(s[3])] = by_layer.get(layer_of(s[3]), 0) + selfs[s[1]]
        if s[2] is None or names.get(s[2]) != s[3]:
            by_name[s[3]] = by_name.get(s[3], 0) + (s[5] - s[4])
    for name in INCLUSIVE:
        out[f"{name}_ms"] = by_name.get(name, 0) * ms
    for layer in LAYERS:
        if layer not in ("storage", "cli"):
            out[f"{layer}.self_ms"] = by_layer.get(layer, 0) * ms
    load, rest = cli_split(spans)
    out["cli.load_ms"], out["cli.self_ms"] = load * ms, rest * ms
    out["bench.unattributed_ms"] = by_layer.get("bench", 0) * ms

    iters = counts.get("pipeline.proxy", 0)
    passes = counts.get("search.score", 0) + counts.get("search.transform", 0)
    out["pipeline.iterations"] = float(iters)
    out["search.score_passes_per_iter"] = passes / iters if iters else 0.0
    for s in spans:
        subject = s[6][0] if s[6] else None
        if s[3] == "types.feature_group":
            cached = vars(subject).get("embeddings64")
            out["types.feature_bytes"] += subject.embeddings.nbytes + (
                cached.nbytes if cached is not None else 0)
            out["search.score_bytes_per_op"] = float(passes * subject.embeddings.size * 8)
        elif s[3] == "storage.read":
            out["storage.bytes_read"] += os.path.getsize(subject)
        elif s[3] == "storage.write":
            out["storage.bytes_written"] += os.path.getsize(subject)
    evals = [s for s in spans if s[3] == "metrics.evaluate"]
    if evals:
        out["metrics.threshold_bytes_per_image"] = float(
            np.mean([_threshold_bytes(*s[6][:2]) for s in evals]))
    return out


def account(spans) -> tuple[int, int]:
    """(root duration, sum of every span's self time); equal when spans nest."""
    root = next(s for s in spans if s[2] is None)
    return root[5] - root[4], sum(self_times(spans).values())
