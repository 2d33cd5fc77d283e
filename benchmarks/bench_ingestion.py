"""Ingestion benchmark: column parsing, pushdown speedup, streaming memory.

Three measurements back the ingestion layer:

* **upload-shaped type inference** — small CSVs (40-120 rows x 4
  columns, cut from the corpus generators, with each table's temporal
  column kept) are built twice from the same NA-normalised rows: by the
  column parser behind ``build_column`` and by the scalar per-cell
  ``strptime`` cascade it replaced (``tests/scalar_oracle.py``).
  Every table's fingerprint is asserted identical before any timing;
  the run **fails (exit 1)** when the parser's rows/s is below
  :data:`MIN_INFER_SPEEDUP` times the cascade's.

* **pushdown vs pull-then-bin** — a seeded sqlite table is charted two
  ways: ``SqlitePushdown.serve`` (GROUP BY runs inside the database,
  bucket arrays come back) vs the historical pull path (fetch every
  row, build the in-memory table, run the transform kernels).  Outputs
  are asserted equal before any timing is trusted; the run **fails
  (exit 1)** when the speedup falls below ``--min-speedup`` (default 3).
* **streaming build memory** — a synthetic million-row source is built
  in streaming mode at two sizes; ``tracemalloc`` peaks must stay under
  ``--max-stream-mb`` and near-constant as rows double (the sketch and
  reservoir are bounded, so doubling the stream must not double the
  peak), and the source is asserted to have been read exactly once.

Results land in ``BENCH_ingestion.json`` (override ``--out``).

Run standalone (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_ingestion.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

from repro.corpus.generators import TESTING_SPECS, TRAINING_SPECS, make_table
from repro.dataset.inference import ColumnType, build_column
from repro.dataset.io import write_csv
from repro.dataset.sources import (
    DEFAULT_CHUNK_ROWS,
    CsvSource,
    SqlitePushdown,
    SqliteSource,
    TableSource,
    from_source,
)
from repro.dataset.table import Table
from repro.language.ast import (
    AggregateOp,
    BinGranularity,
    BinByGranularity,
    BinIntoBuckets,
    GroupBy,
)
from repro.language.binning import (
    bin_numeric,
    bin_temporal,
    group_categorical,
)

# The scalar cascade lives with the tests, which use it as the oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests import scalar_oracle  # noqa: E402

#: The column parser must build upload-shaped CSVs at least this many
#: times faster (rows/s) than the scalar cascade.
MIN_INFER_SPEEDUP = 5.0

REGIONS = ["north", "south", "east", "west", "centre"]

SIGNATURES = [
    (GroupBy("region"), AggregateOp.CNT, None),
    (GroupBy("region"), AggregateOp.SUM, "sales"),
    (GroupBy("region"), AggregateOp.AVG, "sales"),
    (BinIntoBuckets("sales", 10), AggregateOp.CNT, None),
    (BinIntoBuckets("sales", 10), AggregateOp.SUM, "units"),
    (BinByGranularity("day", BinGranularity.MONTH), AggregateOp.CNT, None),
    (BinByGranularity("day", BinGranularity.MONTH), AggregateOp.SUM, "sales"),
]


def _make_sqlite(path: Path, rows: int, seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    conn = sqlite3.connect(str(path))
    conn.execute(
        "CREATE TABLE sales (region TEXT, day TEXT, sales REAL, units REAL)"
    )
    batch = 50_000
    for start in range(0, rows, batch):
        n = min(batch, rows - start)
        regions = rng.integers(0, len(REGIONS), n)
        days = rng.integers(0, 365, n)
        sales = np.round(rng.uniform(0, 500, n), 2)
        units = rng.integers(0, 40, n)
        conn.executemany(
            "INSERT INTO sales VALUES (?, ?, ?, ?)",
            [
                (
                    REGIONS[regions[i]],
                    f"2021-{days[i] // 31 + 1:02d}-{days[i] % 28 + 1:02d}",
                    float(sales[i]),
                    float(units[i]),
                )
                for i in range(n)
            ],
        )
    conn.commit()
    conn.close()


def _pull_then_bin(path: Path):
    """The historical path: fetch all rows, build the table, run kernels."""
    table = from_source(
        SqliteSource(path, table="sales"), materialize=True, pushdown=False
    )
    charts = {}
    for transform, op, y in SIGNATURES:
        column = table.column(transform.column)
        if isinstance(transform, GroupBy):
            small = group_categorical(column)
        elif isinstance(transform, BinByGranularity):
            small = bin_temporal(column, transform.granularity)
        else:
            small = bin_numeric(column, transform.n)
        counts = np.bincount(small.assignment, minlength=small.num_buckets)
        if op is AggregateOp.CNT:
            y_values = counts.astype(np.float64)
        else:
            weights = table.column(y).values.astype(np.float64)
            sums = np.bincount(
                small.assignment, weights=weights, minlength=small.num_buckets
            )
            y_values = (
                sums
                if op is AggregateOp.SUM
                else np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            )
        charts[(transform, op, y)] = (
            small.labels,
            tuple(np.asarray(y_values).tolist()),
        )
    return charts


def _pushdown(path: Path):
    """The new path: GROUP BY runs inside sqlite; rows never enter Python.

    The provider is built directly from the known column types — the
    whole point of pushdown is that serving never requires pulling or
    inferring the relation, so the pull path's materialisation cost is
    exactly what it saves.
    """
    provider = SqlitePushdown(
        path,
        '"sales"',
        {
            "region": ColumnType.CATEGORICAL,
            "day": ColumnType.TEMPORAL,
            "sales": ColumnType.NUMERICAL,
            "units": ColumnType.NUMERICAL,
        },
        has_rowid_relation=True,
    )
    charts = {}
    for transform, op, y in SIGNATURES:
        parts = provider.serve(transform, op, y)
        assert parts is not None, provider.stats()
        charts[(transform, op, y)] = (parts["labels"], parts["y_values"])
    return charts


def _upload_csvs(directory: Path, count: int, seed: int = 5) -> List[Path]:
    """Write ``count`` upload-shaped CSVs: 40-120 sampled rows and 4
    columns of one corpus table, its first temporal column included."""
    rng = np.random.default_rng(seed)
    specs = list(TESTING_SPECS) + [s for s in TRAINING_SPECS if "#" not in s.name]
    bases = [make_table(s.name, scale=240 / s.rows, seed=seed) for s in specs]
    paths = []
    for i in range(count):
        base = bases[i % len(bases)]
        rows = rng.choice(
            base.num_rows, size=min(int(rng.integers(40, 121)), base.num_rows),
            replace=False,
        )
        temporal = [c.name for c in base.columns if c.ctype is ColumnType.TEMPORAL]
        others = [n for n in base.column_names if n not in temporal[:1]]
        picked = set(temporal[:1]) | set(
            rng.choice(others, size=min(4 - len(temporal[:1]), len(others)),
                       replace=False).tolist()
        )
        names = [n for n in base.column_names if n in picked]
        path = directory / f"upload_{i:03d}.csv"
        write_csv(base.select_rows(np.sort(rows)).project(names), path)
        paths.append(path)
    return paths


def _build_columns(builder, header, rows) -> list:
    return [
        builder(name, [row[j] for row in rows]) for j, name in enumerate(header)
    ]


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _upload_inference(count: int, repeats: int) -> dict:
    """Column parser vs scalar cascade on upload-shaped CSVs."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = _upload_csvs(Path(tmp), count)
        loaded = []
        for path in paths:
            header: List[str] = []
            rows: List[tuple] = []
            for header, chunk in CsvSource(path).iter_chunks():
                rows.extend(chunk)
            loaded.append((path, header, rows))
        temporal_columns = 0
        for path, header, rows in loaded:
            parsed = Table(path.stem, _build_columns(build_column, header, rows))
            cascade = Table(
                path.stem, _build_columns(scalar_oracle.build_column, header, rows)
            )
            ingested = from_source(CsvSource(path), materialize=True)
            assert parsed.fingerprint() == cascade.fingerprint(), path.name
            assert ingested.fingerprint() == cascade.fingerprint(), path.name
            temporal_columns += sum(
                c.ctype is ColumnType.TEMPORAL for c in parsed.columns
            )

    def run(builder):
        for _, header, rows in loaded:
            _build_columns(builder, header, rows)

    total_rows = sum(len(rows) for _, _, rows in loaded)
    parser_s = _best_seconds(lambda: run(build_column), repeats)
    cascade_s = _best_seconds(lambda: run(scalar_oracle.build_column), repeats)
    return {
        "tables": count,
        "rows": total_rows,
        "temporal_columns": temporal_columns,
        "fingerprints_identical": True,
        "parser_rows_per_s": round(total_rows / parser_s),
        "cascade_rows_per_s": round(total_rows / cascade_s),
        "parser_ms_per_table": round(1e3 * parser_s / count, 3),
        "cascade_ms_per_table": round(1e3 * cascade_s / count, 3),
        "speedup": round(cascade_s / parser_s, 2),
    }


def _time(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


class SyntheticSource(TableSource):
    """A generated relation that counts how many times it was read."""

    kind = "synthetic"

    def __init__(self, rows: int, seed: int = 11) -> None:
        self.rows = rows
        self.seed = seed
        self.passes = 0

    @property
    def default_name(self) -> str:
        return f"synthetic-{self.rows}"

    def describe(self) -> str:
        """Row count and seed of the generated relation."""
        return f"{self.rows} generated rows (seed={self.seed})"

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[List[str], List[tuple]]]:
        """Generate chunk-sized row batches; one full sweep per call."""
        self.passes += 1
        rng = np.random.default_rng(self.seed)
        header = ["region", "value", "year"]
        remaining = self.rows
        while remaining > 0:
            n = min(chunk_rows, remaining)
            remaining -= n
            regions = rng.integers(0, len(REGIONS), n)
            values = rng.uniform(-1000, 1000, n)
            years = rng.integers(1995, 2024, n)
            yield header, [
                (
                    REGIONS[regions[i]],
                    f"{values[i]:.4f}",
                    str(years[i]),
                )
                for i in range(n)
            ]


def _streaming_peak_mb(rows: int, chunk_rows: int, sample_rows: int):
    source = SyntheticSource(rows)
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = time.perf_counter()
    table = from_source(
        source,
        materialize=False,
        chunk_rows=chunk_rows,
        sample_rows=sample_rows,
    )
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert source.passes == 1, "streaming build must read the source once"
    assert table.stream_profile.rows == rows
    return peak / 1e6, seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="BENCH_ingestion.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail when pushdown is not this much faster than pull-then-bin",
    )
    parser.add_argument(
        "--max-stream-mb",
        type=float,
        default=250.0,
        help="fail when the streaming build's tracemalloc peak exceeds this",
    )
    args = parser.parse_args()

    sql_rows = 150_000 if args.quick else 600_000
    stream_sizes = (250_000, 500_000) if args.quick else (500_000, 1_000_000)
    chunk_rows = DEFAULT_CHUNK_ROWS
    sample_rows = 10_000

    report = {
        "benchmark": "out_of_core_ingestion",
        "cpus": os.cpu_count(),
        "quick": bool(args.quick),
        "min_speedup": args.min_speedup,
        "min_infer_speedup": MIN_INFER_SPEEDUP,
        "max_stream_mb": args.max_stream_mb,
    }

    repeats = 3 if args.quick else 5
    report["upload_inference"] = _upload_inference(
        40 if args.quick else 120, repeats
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sales.db"
        _make_sqlite(path, sql_rows)

        # Warm the page cache so both paths read a hot file.
        Path(path).read_bytes()
        pull_charts, pull_seconds = _time(_pull_then_bin, path)
        push_charts, push_seconds = _time(_pushdown, path)

        # Identical labels; aggregates within float-summation noise.
        assert set(pull_charts) == set(push_charts)
        for key, (labels, y_values) in pull_charts.items():
            assert push_charts[key][0] == labels, key
            np.testing.assert_allclose(
                np.asarray(push_charts[key][1]),
                np.asarray(y_values),
                rtol=1e-9,
            )

        speedup = pull_seconds / push_seconds if push_seconds > 0 else float("inf")
        report["pushdown"] = {
            "rows": sql_rows,
            "signatures": len(SIGNATURES),
            "pull_then_bin_seconds": round(pull_seconds, 4),
            "pushdown_seconds": round(push_seconds, 4),
            "speedup": round(speedup, 2),
        }

    streaming = []
    for rows in stream_sizes:
        peak_mb, seconds = _streaming_peak_mb(rows, chunk_rows, sample_rows)
        streaming.append(
            {
                "rows": rows,
                "chunk_rows": chunk_rows,
                "sample_rows": sample_rows,
                "peak_traced_mb": round(peak_mb, 2),
                "seconds": round(seconds, 3),
                "one_pass": True,
            }
        )
    growth = streaming[-1]["peak_traced_mb"] / max(
        streaming[0]["peak_traced_mb"], 0.01
    )
    report["streaming"] = {
        "builds": streaming,
        "peak_growth_at_2x_rows": round(growth, 3),
    }

    failures = []
    infer_speedup = report["upload_inference"]["speedup"]
    if infer_speedup < MIN_INFER_SPEEDUP:
        failures.append(
            f"column parser speedup {infer_speedup:.2f}x < required "
            f"{MIN_INFER_SPEEDUP:.2f}x over the scalar cascade"
        )
    if speedup < args.min_speedup:
        failures.append(
            f"pushdown speedup {speedup:.2f}x < required "
            f"{args.min_speedup:.2f}x"
        )
    worst_mb = max(b["peak_traced_mb"] for b in streaming)
    if worst_mb > args.max_stream_mb:
        failures.append(
            f"streaming peak {worst_mb:.1f}MB > budget "
            f"{args.max_stream_mb:.1f}MB"
        )
    if growth > 1.5:
        failures.append(
            f"streaming peak grew {growth:.2f}x when rows doubled "
            f"(expected bounded memory)"
        )
    report["failures"] = failures

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")

    upload = report["upload_inference"]
    print(
        f"upload inference: {upload['speedup']}x over the scalar cascade "
        f"({upload['parser_rows_per_s']} vs {upload['cascade_rows_per_s']} "
        f"rows/s, {upload['tables']} tables, fingerprints identical)"
    )
    print(
        f"pushdown: {report['pushdown']['speedup']}x over pull-then-bin "
        f"({report['pushdown']['pushdown_seconds']}s vs "
        f"{report['pushdown']['pull_then_bin_seconds']}s, "
        f"{sql_rows} rows, {len(SIGNATURES)} signatures)"
    )
    for build in streaming:
        print(
            f"streaming: {build['rows']} rows in {build['seconds']}s, "
            f"peak {build['peak_traced_mb']}MB (one pass)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
