"""The benchmark's metric catalogue.

Names, units, directions and bounds are read from ``BENCHMARK.json`` at
the repository root.  What that file has no room for lives here: each
metric's description and, for a per-layer metric, the end-to-end
metrics it should move (``python3 perfbench/run.py --describe`` prints
them).  A metric of the manifest without a description here fails the
import.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

from common import ROOT


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    description: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    description: str
    #: ``<workload>/<end-to-end metric>`` pairs this metric should move.
    moves: Tuple[str, ...]


END_TO_END_DESCRIPTIONS: Dict[str, str] = {
    "throughput_per_s": "completed requests per second over the measured window",
    "latency_p50_ms": "median per-request latency",
    "latency_p90_ms":
        "90th-percentile per-request latency (>= 100 requests per run)",
    "peak_rss_mb":
        "peak resident memory of the workload process or of its largest "
        "pool worker",
    "setup_s":
        "median of the run's set-ups (five; three for live_catalog): engine "
        "load, cache pre-warm and session init, one warm-up request",
}

_UPLOAD = ("upload/latency_p50_ms", "upload/throughput_per_s")
_CORE = ("upload/throughput_per_s", "upload/latency_p90_ms")
_ML = ("upload/latency_p50_ms", "live_catalog/latency_p90_ms")
_CACHE = ("live_catalog/throughput_per_s", "live_catalog/latency_p90_ms")
_PARALLEL = ("upload/latency_p90_ms", "upload/throughput_per_s")
_APPEND = ("live_catalog/throughput_per_s", "live_catalog/latency_p90_ms")

#: ``per-layer metric -> (description, end-to-end metrics it should move)``.
PER_LAYER_NOTES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "dataset.ingest_ms": (
        "time in from_source per upload", _UPLOAD),
    "dataset.infer_ms": (
        "time in build_column (type inference + coercion) per upload",
        _UPLOAD),
    "dataset.ingest_rows_per_s": (
        "rows ingested per second spent in from_source", _UPLOAD),
    "dataset.append_rows_ms": (
        "time in Table.append_rows per call", _APPEND),
    "dataset.fingerprint_ms": (
        "time in Table.fingerprint per request",
        ("live_catalog/latency_p50_ms", "live_catalog/throughput_per_s")),
    "language.kernel_calls": (
        "columnar kernel invocations per request (KERNEL_STATS delta; "
        "in-process kernels only)",
        ("live_catalog/latency_p90_ms", "upload/latency_p50_ms")),
    "language.kernel_ms": (
        "columnar kernel time per request (KERNEL_STATS delta; "
        "in-process kernels only)",
        ("live_catalog/latency_p90_ms", "upload/latency_p50_ms")),
    "language.merge_delta_ms": (
        "time in merge_delta per append", _APPEND),
    "core.enumerate_ms": (
        "enumerate phase per computed selection", _CORE),
    "core.recognize_ms": (
        "recognize phase per computed selection", _CORE),
    "core.rank_ms": (
        "rank phase per computed selection", _CORE),
    "core.candidates": (
        "candidates enumerated per computed selection", _CORE),
    "core.valid_ratio": (
        "valid / candidates over computed selections", _CORE),
    "ml.recognizer_ms": (
        "time in VisualizationRecognizer.filter_valid per request "
        "(in-process calls)", _ML),
    "ml.ranker_ms": (
        "time in HybridRanker.rank per request (in-process calls)", _ML),
    "cache.results_hit_ratio": (
        "results-level hits / lookups over the run", _CACHE),
    "cache.features_hit_ratio": (
        "features-level hits / lookups over the run", _CACHE),
    "cache.transforms_hit_ratio": (
        "transforms-level hits / lookups over the run", _CACHE),
    "cache.results_evictions": (
        "results-level evictions per 100 requests", _CACHE),
    "cache.features_evictions": (
        "features-level evictions per 100 requests", _CACHE),
    "cache.transforms_evictions": (
        "transforms-level evictions per 100 requests", _CACHE),
    "cache.requests_hit": (
        "reads served from the results level, among the first 100 "
        "requests (appends are none of hit, partial or cold)", _CACHE),
    "cache.requests_partial": (
        "reads that missed the results level but hit a lower one, among "
        "the first 100 requests", _CACHE),
    "cache.requests_cold": (
        "reads with no cache hit at any level, among the first 100 "
        "requests", _CACHE),
    "cache.hit_us": (
        "p50 latency of exact-hit requests",
        ("live_catalog/latency_p50_ms",)),
    "cache.partial_ms": (
        "p50 latency of partial-hit requests",
        ("live_catalog/latency_p90_ms",)),
    "cache.transforms_entries": (
        "transforms-level entries at the end of the run",
        ("live_catalog/peak_rss_mb",)),
    "render.ms": (
        "to_vega_lite_json time per request",
        ("live_catalog/latency_p50_ms", "upload/latency_p50_ms")),
    "incremental.merge_ms": (
        "AppendReport merge timing per append", _APPEND),
    "incremental.transforms_merged": (
        "transforms merged per append", _APPEND),
    "incremental.transforms_rebuilt": (
        "transforms rebuilt per append", _APPEND),
    "incremental.transforms_invalidated": (
        "transforms invalidated per append", _APPEND),
    "incremental.raw_m_reuse_ratio": (
        "raw matching-quality values reused / (reused + computed)",
        _APPEND),
    "parallel.first_result_ms": (
        "batch start to first streamed result, per batch", _PARALLEL),
    "parallel.wait_ms": (
        "time the client blocks on the result stream, per table",
        _PARALLEL),
    "parallel.worker_busy_s": (
        "sum of batch_task_seconds per batch", _PARALLEL),
    "parallel.utilization": (
        "worker busy time / (batch makespan x n_jobs)", _PARALLEL),
    "shared_scan.dedup_ms": (
        "time in batch_shared_transforms per batch",
        ("upload/latency_p50_ms",)),
    "shared_scan.reuse_ratio": (
        "(table, transform) pairs served from another table's scan / "
        "all pairs the batch's enumeration requests (BatchDedupStats)",
        ("upload/latency_p50_ms",)),
    "persistence.load_ms": (
        "DeepEye.load time per set-up (median)",
        tuple(f"{w}/setup_s" for w in
              ("upload", "live_catalog"))),
    "host.ref_ms": (
        "fixed reference loop timed before and after the run (host "
        "drift, not a program metric)", ()),
    "obs.trace_overhead": (
        "traced / untraced throughput of the same workload and seed", ()),
}

#: Layers whose self time (span time minus child-span time) is reported
#: as ``<layer>.self_ms`` per request.
SELF_TIME_LAYERS = (
    "dataset", "language", "core", "ml", "render", "incremental",
    "parallel", "shared_scan",
)

PER_LAYER_NOTES.update(
    (f"{layer}.self_ms", (f"self time of the {layer} layer's spans per request", ()))
    for layer in SELF_TIME_LAYERS
)

_MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: List[EndToEnd] = [
    EndToEnd(**m, description=END_TO_END_DESCRIPTIONS[m["name"]])
    for m in _MANIFEST["end_to_end"]
]
PER_LAYER: List[PerLayer] = [
    PerLayer(**m, description=PER_LAYER_NOTES[m["name"]][0],
             moves=PER_LAYER_NOTES[m["name"]][1])
    for m in _MANIFEST["per_layer"]
]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
