"""Streaming sketches: one-pass, bounded-memory table statistics.

A table too big to materialise can still drive the selection pipeline:
everything DeepEye needs from the *whole* column — its inferred type,
``|X|``, ``d(X)``, ``r(X)``, ``min``/``max`` (features 1–5 of Section
III) — is computable in a single streaming pass with constant memory,
and the row-level detail the transform kernels need comes from a
seeded reservoir sample.  This module provides the sketch primitives
and the :class:`TableSketch` that composes them per column:

* :class:`StreamingMoments` — exact count/min/max plus mean/variance
  via Welford/Chan chunk combination;
* :class:`DistinctCounter` — exact (hash-set) distinct counting that
  degrades to a KMV (k minimum values) estimator once a spill
  threshold is crossed, so ``d(X)`` is exact for materialisable
  columns and within ~``1/sqrt(k)`` relative error beyond;
* :class:`StreamingHistogram` — a Ben-Haim/Tom-Tov style mergeable
  histogram for streaming quantiles;
* :class:`ReservoirSample` — algorithm-R row reservoir with one RNG
  draw per row past capacity, so the sample is a pure function of
  ``(seed, row order)`` and never of chunk boundaries.

Because the final column type is only known at end of stream, each
:class:`ColumnSketch` tracks all three coercion interpretations
(numeric / temporal / categorical) simultaneously: every chunk goes
through the column's :class:`~repro.dataset.inference.ColumnParser`, the
same parser :func:`~repro.dataset.inference.build_column` uses, and the
chunk tallies add up to the :class:`~repro.dataset.inference.TypeTally`
that :func:`~repro.dataset.inference.decide_type` reads, so the streamed
type equals what ``infer_type`` returns on the full sequence.  The
finished :class:`StreamProfile` then exposes the statistics of the
winning interpretation, which the enumeration layer substitutes for
:meth:`repro.core.features.ColumnFeatures.of` on sample-backed tables.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .column import ColumnType
from .inference import ColumnParser, TypeTally, build_column, decide_type
from .table import Table

__all__ = [
    "StreamingMoments",
    "DistinctCounter",
    "StreamingHistogram",
    "ReservoirSample",
    "ColumnSketch",
    "SketchColumnStats",
    "StreamProfile",
    "TableSketch",
]

#: Exact-set distinct counting spills to the KMV estimator past this.
DEFAULT_DISTINCT_SPILL = 65536

#: KMV size: relative error ~ 1/sqrt(k) ~ 2.2%.
DEFAULT_KMV_K = 2048

#: Default reservoir capacity (rows kept for the sample table).
DEFAULT_SAMPLE_ROWS = 100_000

#: Default seed: the paper's year, like ``_DEFAULT_YEAR``.
DEFAULT_SEED = 2015

# ----------------------------------------------------------------------
# Moments
# ----------------------------------------------------------------------
class StreamingMoments:
    """Count / min / max / mean / variance over a stream of float chunks.

    Count, min and max are exact; mean and M2 combine chunk statistics
    with Chan's parallel update, numerically stable for the chunk sizes
    ingestion uses.
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = np.inf
        self.maximum = -np.inf

    def add_chunk(self, values: np.ndarray) -> None:
        """Fold one chunk of float values into the running moments."""
        values = np.asarray(values, dtype=np.float64)
        n = len(values)
        if n == 0:
            return
        c_mean = float(values.mean())
        c_m2 = float(((values - c_mean) ** 2).sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))
        if self.count == 0:
            self.count, self.mean, self.m2 = n, c_mean, c_m2
            return
        total = self.count + n
        delta = c_mean - self.mean
        self.mean += delta * n / total
        self.m2 += c_m2 + delta * delta * self.count * n / total
        self.count = total

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def min(self) -> Optional[float]:
        return None if self.count == 0 else float(self.minimum)

    @property
    def max(self) -> Optional[float]:
        return None if self.count == 0 else float(self.maximum)


# ----------------------------------------------------------------------
# Distinct counting (exact set -> KMV)
# ----------------------------------------------------------------------
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)
_U64_SPAN = float(2**64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 inputs."""
    z = x + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_M1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_M2
    return z ^ (z >> np.uint64(31))


def _hash_floats(values: np.ndarray) -> np.ndarray:
    """64-bit hashes of float64 values via their (canonicalised) bits.

    ``+ 0.0`` folds ``-0.0`` into ``0.0`` so the two equal floats hash
    identically; coerced columns never contain NaN.
    """
    canonical = np.ascontiguousarray(
        np.asarray(values, dtype=np.float64) + 0.0
    )
    return _splitmix64(canonical.view(np.uint64))


def _hash_string(token: str) -> int:
    """64-bit hash of a string token (process-independent, unlike
    ``hash()`` under ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class DistinctCounter:
    """``d(X)`` over a stream: exact while small, KMV beyond.

    Values are reduced to 64-bit hashes; while the hash set stays under
    ``spill_limit`` the count is exact (up to the negligible 64-bit
    collision probability).  Past the limit the counter keeps only the
    ``k`` minimum hashes and estimates ``(k - 1) / (kth_min / 2^64)``.
    """

    __slots__ = ("spill_limit", "k", "_exact", "_kmv")

    def __init__(
        self,
        spill_limit: int = DEFAULT_DISTINCT_SPILL,
        k: int = DEFAULT_KMV_K,
    ) -> None:
        self.spill_limit = int(spill_limit)
        self.k = int(k)
        self._exact: Optional[set] = set()
        self._kmv: Optional[np.ndarray] = None

    @property
    def exact(self) -> bool:
        return self._exact is not None

    def _spill(self) -> None:
        hashes = np.fromiter(
            self._exact, dtype=np.uint64, count=len(self._exact)
        )
        hashes.sort()
        self._kmv = hashes[: self.k]
        self._exact = None

    def _add_hashes(self, hashes: np.ndarray) -> None:
        if self._exact is not None:
            self._exact.update(hashes.tolist())
            if len(self._exact) > self.spill_limit:
                self._spill()
            return
        merged = np.union1d(self._kmv, hashes)
        self._kmv = merged[: self.k]

    def add_floats(self, values: np.ndarray) -> None:
        """Count the distinct values of one float chunk."""
        if len(values):
            self._add_hashes(np.unique(_hash_floats(values)))

    def add_strings(self, tokens: Iterable[str]) -> None:
        """Count the distinct tokens of one string chunk."""
        distinct = set(tokens)
        if distinct:
            self._add_hashes(
                np.asarray(
                    [_hash_string(t) for t in distinct], dtype=np.uint64
                )
            )

    def estimate(self) -> int:
        """The distinct count: exact pre-spill, KMV estimate after."""
        if self._exact is not None:
            return len(self._exact)
        kmv = self._kmv
        if len(kmv) < self.k:
            return len(kmv)
        kth = float(kmv[-1]) + 1.0
        return int(round((self.k - 1) / (kth / _U64_SPAN)))


# ----------------------------------------------------------------------
# Streaming quantiles (Ben-Haim/Tom-Tov mergeable histogram)
# ----------------------------------------------------------------------
class StreamingHistogram:
    """A bounded set of (centroid, count) bins supporting quantiles.

    New chunks are deduplicated, merged into the sorted centroid list,
    and the closest adjacent pair is collapsed until the bin budget
    holds — the Ben-Haim & Tom-Tov streaming-decision-tree histogram.
    """

    __slots__ = ("max_bins", "_centers", "_counts")

    def __init__(self, max_bins: int = 128) -> None:
        self.max_bins = int(max_bins)
        self._centers: np.ndarray = np.empty(0, dtype=np.float64)
        self._counts: np.ndarray = np.empty(0, dtype=np.float64)

    def add_chunk(self, values: np.ndarray) -> None:
        """Merge one chunk of float values into the bounded bin set."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            return
        new_centers, new_counts = np.unique(values, return_counts=True)
        centers = np.concatenate([self._centers, new_centers])
        counts = np.concatenate(
            [self._counts, new_counts.astype(np.float64)]
        )
        order = np.argsort(centers, kind="stable")
        centers, counts = centers[order], counts[order]
        # Collapse exact duplicates, then the closest pairs.
        keep_mask = np.ones(len(centers), dtype=bool)
        dup = np.flatnonzero(np.diff(centers) == 0.0)
        for i in dup:
            counts[i + 1] += counts[i]
            keep_mask[i] = False
        centers, counts = centers[keep_mask], counts[keep_mask]
        while len(centers) > self.max_bins:
            gaps = np.diff(centers)
            i = int(np.argmin(gaps))
            total = counts[i] + counts[i + 1]
            merged = (
                centers[i] * counts[i] + centers[i + 1] * counts[i + 1]
            ) / total
            centers = np.concatenate(
                [centers[:i], [merged], centers[i + 2:]]
            )
            counts = np.concatenate([counts[:i], [total], counts[i + 2:]])
        self._centers, self._counts = centers, counts

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile (0 <= q <= 1); None when empty."""
        if len(self._centers) == 0:
            return None
        cumulative = np.cumsum(self._counts)
        target = q * cumulative[-1]
        idx = int(np.searchsorted(cumulative, target))
        idx = min(idx, len(self._centers) - 1)
        return float(self._centers[idx])

    def quantiles(self, qs: Sequence[float]) -> Tuple[float, ...]:
        """Approximate quantiles for each q in ``qs``."""
        return tuple(self.quantile(q) for q in qs)


# ----------------------------------------------------------------------
# Reservoir sampling
# ----------------------------------------------------------------------
class ReservoirSample:
    """Algorithm-R reservoir: uniform sample of a stream of rows.

    One ``randrange`` draw per row past capacity, so the sample depends
    only on ``(seed, arrival order)`` — never on how the stream was
    chunked.  While the stream fits in ``capacity`` the sample *is* the
    stream, in order, which is what makes small-table streaming builds
    byte-identical to materialised ones.
    """

    __slots__ = ("capacity", "rows", "_rng", "_seen")

    def __init__(self, capacity: int, seed: int = DEFAULT_SEED) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.rows: List[tuple] = []
        self._rng = random.Random(seed)
        self._seen = 0

    def offer(self, row: tuple) -> None:
        """Offer one row to the reservoir (kept or dropped uniformly)."""
        i = self._seen
        self._seen += 1
        if len(self.rows) < self.capacity:
            self.rows.append(row)
            return
        j = self._rng.randrange(i + 1)
        if j < self.capacity:
            self.rows[j] = row

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def saturated(self) -> bool:
        """True once rows have been dropped (sample != full stream)."""
        return self._seen > self.capacity


# ----------------------------------------------------------------------
# Per-column sketch (all three interpretations at once)
# ----------------------------------------------------------------------
class ColumnSketch:
    """One column's streaming state across the three type interpretations.

    The final type is unknown until end of stream, so every chunk is
    coerced three ways — numeric floats, temporal epoch-seconds,
    categorical tokens — by the column parser ``build_column`` uses, and the
    matching moments/distinct/quantile sketches advance in lockstep.
    """

    def __init__(
        self,
        name: str,
        spill_limit: int = DEFAULT_DISTINCT_SPILL,
        kmv_k: int = DEFAULT_KMV_K,
    ) -> None:
        self.name = name
        self.rows = 0
        self.votes = TypeTally()
        self.num_moments = StreamingMoments()
        self.num_distinct = DistinctCounter(spill_limit, kmv_k)
        self.num_histogram = StreamingHistogram()
        self.tem_moments = StreamingMoments()
        self.tem_distinct = DistinctCounter(spill_limit, kmv_k)
        self.cat_distinct = DistinctCounter(spill_limit, kmv_k)
        self.parser = ColumnParser()

    def add_chunk(self, values: Sequence) -> None:
        """Feed one chunk of raw cells through all three coercions."""
        if len(values) == 0:
            return
        self.rows += len(values)
        parsed = self.parser.parse(values)
        self.votes += parsed.tally()
        nums = parsed.coerced(ColumnType.NUMERICAL)
        tems = parsed.coerced(ColumnType.TEMPORAL)
        cats = parsed.coerced(ColumnType.CATEGORICAL)
        self.num_moments.add_chunk(nums)
        self.num_distinct.add_floats(nums)
        self.num_histogram.add_chunk(nums)
        self.tem_moments.add_chunk(tems)
        self.tem_distinct.add_floats(tems)
        self.cat_distinct.add_strings(cats)

    def finish(self, ctype: Optional[ColumnType] = None) -> "SketchColumnStats":
        """The final per-column statistics under ``ctype`` (defaults to
        the streamed type vote)."""
        decided = ColumnType(ctype) if ctype is not None else decide_type(self.votes)
        if decided is ColumnType.NUMERICAL:
            moments, distinct = self.num_moments, self.num_distinct
        elif decided is ColumnType.TEMPORAL:
            moments, distinct = self.tem_moments, self.tem_distinct
        else:
            moments, distinct = None, self.cat_distinct
        num_distinct = distinct.estimate()
        return SketchColumnStats(
            name=self.name,
            ctype=decided,
            num_tuples=self.rows,
            num_distinct=num_distinct,
            distinct_exact=distinct.exact,
            min_value=moments.min if moments is not None else None,
            max_value=moments.max if moments is not None else None,
            mean=moments.mean if moments is not None and moments.count else None,
            std=moments.std if moments is not None and moments.count else None,
            quantiles=(
                self.num_histogram.quantiles((0.25, 0.5, 0.75))
                if decided is ColumnType.NUMERICAL and self.rows
                else ()
            ),
        )


@dataclass(frozen=True)
class SketchColumnStats:
    """Whole-stream statistics of one column under its final type.

    ``unique_ratio``/``min_value``/``max_value`` follow the exact
    conventions of :class:`repro.core.features.ColumnFeatures` (None
    min/max for categorical or empty columns) so the enumeration layer
    can substitute these for materialised-column features directly.
    """

    name: str
    ctype: ColumnType
    num_tuples: int
    num_distinct: int
    distinct_exact: bool
    min_value: Optional[float]
    max_value: Optional[float]
    mean: Optional[float]
    std: Optional[float]
    quantiles: Tuple[Optional[float], ...]

    @property
    def unique_ratio(self) -> float:
        if self.num_tuples == 0:
            return 0.0
        return self.num_distinct / self.num_tuples


@dataclass(frozen=True)
class StreamProfile:
    """The finished one-pass profile of a streamed table."""

    rows: int
    columns: Tuple[SketchColumnStats, ...]
    sample_rows: int
    sample_exact: bool
    seed: int

    def stats_for(self, name: str) -> Optional[SketchColumnStats]:
        """The stats of the named column, or None when absent."""
        for stats in self.columns:
            if stats.name == name:
                return stats
        return None

    def digest(self) -> str:
        """Content hash of the profile — part of the cache scope of the
        sample table, so two streams with coincidentally identical
        samples but different full-data statistics never share cache
        entries."""
        hasher = hashlib.sha256()
        hasher.update(f"rows={self.rows};seed={self.seed};".encode())
        for s in self.columns:
            hasher.update(
                (
                    f"{s.name}|{s.ctype.value}|{s.num_tuples}|"
                    f"{s.num_distinct}|{s.min_value!r}|{s.max_value!r}|"
                    f"{s.mean!r}|{s.std!r}\x1e"
                ).encode("utf-8")
            )
        return hasher.hexdigest()

    def describe(self) -> str:
        """A human-readable multi-line summary of the profile."""
        lines = [
            f"stream profile: {self.rows} rows "
            f"({self.sample_rows} sampled"
            f"{', exact' if self.sample_exact else ''})"
        ]
        for s in self.columns:
            approx = "" if s.distinct_exact else "~"
            span = (
                f" range [{s.min_value:g}, {s.max_value:g}]"
                if s.min_value is not None
                else ""
            )
            lines.append(
                f"  {s.name} [{s.ctype.value}] {approx}{s.num_distinct} "
                f"distinct / {s.num_tuples} rows{span}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The whole-table sketch
# ----------------------------------------------------------------------
class TableSketch:
    """Per-column sketches plus one row reservoir, fed chunk by chunk.

    ``add_rows`` consumes row tuples (already token-normalised by the
    source layer); ``finish`` freezes the profile; ``sample_table``
    builds the sample-backed :class:`~repro.dataset.table.Table` with
    every column pinned to its full-stream inferred type — the pinning
    is what makes a 1%-sample table type-stable no matter which rows
    survived the reservoir.
    """

    def __init__(
        self,
        header: Sequence[str],
        sample_capacity: int = DEFAULT_SAMPLE_ROWS,
        seed: int = DEFAULT_SEED,
        spill_limit: int = DEFAULT_DISTINCT_SPILL,
        kmv_k: int = DEFAULT_KMV_K,
    ) -> None:
        self.header = list(header)
        self.seed = int(seed)
        self.columns = [
            ColumnSketch(name, spill_limit, kmv_k) for name in self.header
        ]
        self.reservoir = ReservoirSample(sample_capacity, seed)
        self.rows_seen = 0

    def add_rows(self, rows: Sequence[tuple]) -> None:
        """Feed one chunk of rows to every column sketch + reservoir."""
        if not rows:
            return
        self.rows_seen += len(rows)
        offer = self.reservoir.offer
        for row in rows:
            offer(row)
        width = len(self.header)
        for j in range(width):
            self.columns[j].add_chunk([row[j] for row in rows])

    def decided_types(
        self, overrides: Optional[Dict[str, ColumnType]] = None
    ) -> Dict[str, ColumnType]:
        """Final per-column types: stream vote unless overridden."""
        overrides = overrides or {}
        return {
            sketch.name: ColumnType(
                overrides.get(sketch.name, decide_type(sketch.votes))
            )
            for sketch in self.columns
        }

    def finish(
        self, types: Optional[Dict[str, ColumnType]] = None
    ) -> StreamProfile:
        """Freeze the stream into a :class:`StreamProfile`."""
        decided = self.decided_types(types)
        return StreamProfile(
            rows=self.rows_seen,
            columns=tuple(
                sketch.finish(decided[sketch.name]) for sketch in self.columns
            ),
            sample_rows=len(self.reservoir.rows),
            sample_exact=not self.reservoir.saturated,
            seed=self.seed,
        )

    def sample_table(
        self,
        name: str,
        types: Optional[Dict[str, ColumnType]] = None,
    ) -> Table:
        """Build the reservoir-sample :class:`Table` with pinned types."""
        decided = self.decided_types(types)
        rows = self.reservoir.rows
        columns = [
            build_column(
                col_name,
                [row[j] for row in rows],
                decided[col_name],
            )
            for j, col_name in enumerate(self.header)
        ]
        return Table(name=name, columns=columns)
