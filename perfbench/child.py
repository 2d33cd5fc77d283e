"""One workload in one fresh interpreter: generate inputs, set up, run
the closed loop for the given seconds, check the answers, and print one
JSON line with the end-to-end metrics (and, traced, the per-layer ones).

Started by ``run.py``; ``python3 perfbench/child.py --help`` lists the
arguments.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BUILD,
    MIN_REQUESTS,
    cache_counters,
    counter_delta,
    digest,
    host_ref_ms,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    require_source,
)

#: Requests whose cache class (hit / partial / cold) is counted.
CLASSIFIED_REQUESTS = 100
#: A timed metric must exceed the clock's resolution this many times.
RESOLUTION_MARGIN = 1000


def classify(delta: Dict[str, Dict[str, int]]) -> str:
    if delta["results"]["hits"]:
        return "hit"
    if delta["transforms"]["hits"] or delta["features"]["hits"]:
        return "partial"
    return "cold"


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    engine_dir: Path,
    size: str = "full",
) -> dict:
    """Run one workload; returns the result record ``run.py`` reads."""
    from repro.obs.kernels import KERNEL_STATS
    from tracing import SpanRecorder
    from workloads import SIZES, WORKLOADS

    ref_before = host_ref_ms()
    workload = WORKLOADS[name](engine_dir, seed, SIZES[size])
    recorder = None
    try:
        setup_seconds: List[float] = []
        for _ in range(workload.setup_reps):
            workload.teardown()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_seconds.append(time.perf_counter() - start)
        workload.reset_counters()
        gc.collect()

        if trace:
            from repro.obs import MetricsRegistry

            recorder = workload.rec = SpanRecorder()
            workload.engine.metrics = MetricsRegistry()
            recorder.install()
        cache = workload.cache
        cache_before = cache_counters(cache) if cache is not None else None
        kernels_before = KERNEL_STATS.snapshot()
        untimed_kernels = {"calls": 0.0, "seconds": 0.0}
        paused = 0.0

        def untimed(action):
            """Run ``action`` outside the measurement: its time, spans
            and kernel calls are not counted."""
            nonlocal paused
            if recorder is not None:
                recorder.suspended = True
            before = KERNEL_STATS.snapshot()
            pause_start = time.perf_counter()
            try:
                return action()
            finally:
                paused += time.perf_counter() - pause_start
                for k in KERNEL_STATS.delta_since(before).values():
                    untimed_kernels["calls"] += k["calls"]
                    untimed_kernels["seconds"] += k["seconds"]
                if recorder is not None:
                    recorder.suspended = False

        latencies: List[float] = []
        answers: List[Optional[tuple]] = []
        classes: List[str] = []
        failed = 0
        checkpoint_failures = 0
        step = 0
        start = time.perf_counter()
        untimed(lambda: workload.prepare(0))
        while True:
            elapsed = time.perf_counter() - start - paused
            if elapsed >= seconds and len(answers) >= MIN_REQUESTS:
                break
            if recorder is not None:
                recorder.request = len(answers)
            classify_this = (
                recorder is not None and workload.in_process_cache
                and len(classes) < CLASSIFIED_REQUESTS
            )
            before = cache_counters(cache) if classify_this else None
            try:
                latency, answer = workload.step(step)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                latency, answer = None, None
            if classify_this:
                classes.append(
                    "append" if workload.is_append(step)
                    else classify(counter_delta(before, cache_counters(cache)))
                )
            answers.append(answer)
            if latency is None:
                failed += 1
            else:
                latencies.append(latency)
            checkpoint_failures += untimed(lambda: workload.checkpoint(step, answer))
            untimed(lambda: workload.prepare(step + 1))
            step += 1
        elapsed = time.perf_counter() - start - paused
        if recorder is not None:
            recorder.uninstall()
        kernels = KERNEL_STATS.delta_since(kernels_before)
        kernel_calls = sum(k["calls"] for k in kernels.values()) - untimed_kernels["calls"]
        kernel_s = sum(k["seconds"] for k in kernels.values()) - untimed_kernels["seconds"]
        cache_delta = (
            counter_delta(cache_before, cache_counters(cache))
            if cache is not None else None
        )
        transforms_entries = cache.level_sizes()["transforms"] if cache is not None else 0
        # Read before the check, whose reference engine is not the
        # program's memory.
        rss_mb = peak_rss_mb()
        wrong = workload.check(answers) + checkpoint_failures
    finally:
        if recorder is not None:
            recorder.uninstall()
        workload.cleanup()
    ref_after = host_ref_ms()

    attempted = len(answers)
    failed += wrong
    metrics = {
        "throughput_per_s": ratio(len(latencies), elapsed),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": rss_mb,
        "setup_s": median(setup_seconds),
    }
    resolution = time.get_clock_info("perf_counter").resolution
    seconds_of = {
        "latency_p50_ms": metrics["latency_p50_ms"] / 1e3,
        "latency_p90_ms": metrics["latency_p90_ms"] / 1e3,
        "setup_s": metrics["setup_s"],
        "throughput_per_s": elapsed / max(1, len(latencies)),
    }
    record = {
        "near_timer_resolution": sorted(
            name for name, value in seconds_of.items()
            if value < RESOLUTION_MARGIN * resolution
        ),
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": digest(answers),
        "digest_prefix": digest(answers[:MIN_REQUESTS]),
        "elapsed_s": elapsed,
        "host_ref_ms": [ref_before, ref_after],
        "setup_seconds": setup_seconds,
    }
    if recorder is not None:
        record["layers"] = layer_metrics(
            workload, recorder, latencies, attempted, kernel_calls, kernel_s,
            cache_delta,
            transforms_entries, classes, [ref_before, ref_after],
        )
        trace_path = BUILD / "traces" / f"{name}-seed{seed}.json"
        recorder.write(trace_path, {"workload": name, "seed": seed})
        record["trace_path"] = str(trace_path)
    return record


def layer_metrics(
    workload, recorder, latencies, requests, kernel_calls, kernel_s,
    cache_delta, transforms_entries, classes, host_ref,
) -> Dict[str, float]:
    """The per-layer metrics of a traced run (every catalogued name;
    0.0 where a layer does not take part in the workload)."""
    from metrics import PER_LAYER_NAMES, SELF_TIME_LAYERS

    out: Dict[str, float] = dict.fromkeys(PER_LAYER_NAMES, 0.0)

    def ms_per(name: str, per: float) -> float:
        return 1e3 * ratio(recorder.totals(name)[1], per)

    ingests, ingest_s = recorder.totals("dataset.from_source")
    out["dataset.ingest_ms"] = 1e3 * ratio(ingest_s, ingests)
    out["dataset.infer_ms"] = ms_per("dataset.build_column", ingests)
    out["dataset.ingest_rows_per_s"] = ratio(
        getattr(workload, "rows_ingested", 0), ingest_s
    )
    appends, append_s = recorder.totals("dataset.append_rows")
    out["dataset.append_rows_ms"] = 1e3 * ratio(append_s, appends)
    out["dataset.fingerprint_ms"] = ms_per("dataset.fingerprint", requests)

    out["language.kernel_calls"] = ratio(kernel_calls, requests)
    out["language.kernel_ms"] = 1e3 * ratio(kernel_s, requests)
    out["language.merge_delta_ms"] = ms_per(
        "language.merge_delta", len(getattr(workload, "appends", ())) or requests
    )

    selected = workload.selected
    if selected:
        n = len(selected)
        out["core.enumerate_ms"] = 1e3 * sum(s[0] for s in selected) / n
        out["core.recognize_ms"] = 1e3 * sum(s[1] for s in selected) / n
        out["core.rank_ms"] = 1e3 * sum(s[2] for s in selected) / n
        out["core.candidates"] = sum(s[3] for s in selected) / n
        out["core.valid_ratio"] = ratio(
            sum(s[4] for s in selected), sum(s[3] for s in selected)
        )
    out["ml.recognizer_ms"] = ms_per("ml.filter_valid", requests)
    out["ml.ranker_ms"] = ms_per("ml.hybrid_rank", requests)

    if cache_delta is not None:
        for level, counts in cache_delta.items():
            out[f"cache.{level}_hit_ratio"] = ratio(
                counts["hits"], counts["hits"] + counts["misses"]
            )
            out[f"cache.{level}_evictions"] = 100.0 * ratio(
                counts["evictions"], requests
            )
    out["cache.transforms_entries"] = float(transforms_entries)
    for kind in ("hit", "partial", "cold"):
        out[f"cache.requests_{kind}"] = float(classes.count(kind))
    classified = latencies[: len(classes)]
    out["cache.hit_us"] = 1e6 * percentile(
        [t for t, c in zip(classified, classes) if c == "hit"], 50
    )
    out["cache.partial_ms"] = 1e3 * percentile(
        [t for t, c in zip(classified, classes) if c == "partial"], 50
    )
    out["render.ms"] = ms_per("render.vega", requests)

    appended = getattr(workload, "appends", None)
    if appended:
        n = len(appended)
        out["incremental.merge_ms"] = 1e3 * sum(a[0] for a in appended) / n
        out["incremental.transforms_merged"] = sum(a[1] for a in appended) / n
        out["incremental.transforms_rebuilt"] = sum(a[2] for a in appended) / n
        out["incremental.transforms_invalidated"] = sum(a[3] for a in appended) / n
        out["incremental.raw_m_reuse_ratio"] = ratio(
            sum(a[4] for a in appended), sum(a[4] + a[5] for a in appended)
        )

    batches = getattr(workload, "batch_stats", None)
    if batches:
        n = len(batches)
        busy = _batch_busy_seconds(workload.engine.metrics)
        out["parallel.first_result_ms"] = 1e3 * sum(b[0] for b in batches) / n
        out["parallel.wait_ms"] = ms_per("parallel.wait", requests)
        out["parallel.worker_busy_s"] = busy / n
        out["parallel.utilization"] = ratio(
            busy, sum(b[1] for b in batches) * workload.size.upload_jobs
        )
        dedup_calls, dedup_s = recorder.totals("shared_scan.batch_shared_transforms")
        out["shared_scan.dedup_ms"] = 1e3 * ratio(dedup_s, dedup_calls)
        dedups = recorder.returns["shared_scan.batch_shared_transforms"]
        out["shared_scan.reuse_ratio"] = ratio(
            sum(d.reused for d in dedups), sum(d.transforms_total for d in dedups)
        )

    out["persistence.load_ms"] = 1e3 * median(workload.load_seconds)
    out["host.ref_ms"] = median(host_ref)
    for layer, seconds in recorder.self_seconds().items():
        if layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * ratio(seconds, requests)
    return out


def _batch_busy_seconds(registry) -> float:
    """Sum of ``batch_task_seconds`` over every worker label."""
    family = registry.to_json().get("batch_task_seconds", {"series": []})
    return float(sum(s.get("sum", 0.0) for s in family["series"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--engine-dir", type=Path, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    require_source()
    record = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.engine_dir, args.size,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
