"""The two serving workloads, each a closed loop driven by one client.

Every workload builds its inputs from the seed and never while a
request is timed: the fixed ones (base tables, catalog, event table) in
its constructor, each step's own just before the step.  Neither the
memory inputs hold nor the length of a run depends on throughput.  A
workload offers these phases to the loop in :mod:`child`:

* ``setup()`` — what a serving process pays before its first measured
  request (engine load through :mod:`repro.persistence`, session init or
  cache pre-warm, one warm-up request);
* ``prepare(i)`` — make step ``i``'s input (untimed);
* ``step(i)`` — one closed-loop request, returning ``(latency_s,
  answer)``;
* ``checkpoint(i, answer)`` — an untimed check after step ``i``,
  returning the number of wrong answers it found;
* ``check(answers)`` — the correctness check after the loop, returning
  the number of wrong answers.

Inputs are stratified (see :class:`Deck`): any prefix of a run serves
about the same mix of datasets, column types and row counts, so the
runs of different seeds cost about the same.  Column counts are fixed
per workload, because the candidate count grows with the square of the
columns and a range of counts would split latency into cost modes.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import BUILD

Answer = Tuple[str, ...]
Outcome = Tuple[Optional[float], Optional[Answer]]

K_DEFAULT = 10


@dataclasses.dataclass(frozen=True)
class Size:
    """Input sizes; ``TINY`` keeps the self-tests fast."""

    #: Rows of each per-seed base table that request tables sample.
    base_rows: int = 240
    upload_rows: Tuple[int, int] = (40, 120)
    upload_cols: int = 4
    upload_jobs: int = 2
    #: 48 tables x 10 k values = 480 distinct keys against the results
    #: level's 256 entries; with this exponent about a quarter of the
    #: reads miss it, so p50 falls among hits.
    catalog_tables: int = 48
    catalog_rows: Tuple[int, int] = (60, 100)
    catalog_cols: int = 4
    zipf_ks: Tuple[int, ...] = tuple(range(3, 13))
    zipf_exponent: float = 0.9
    #: Every this many requests of ``live_catalog``, one is an append.
    append_every: int = 20
    append_base_rows: int = 50_000
    append_batch_rows: int = 256
    #: Appends after which the session is verified against scratch.
    append_checkpoints: Tuple[int, ...] = (0, 49)
    #: Every this many appends, the served answer is compared with a
    #: from-scratch selection of the session's table.
    append_sample_every: int = 50
    #: Appends per partition.  The event log then rolls over to a fresh
    #: session on the base table (untimed, like a checkpoint), so the
    #: table, and the memory its cached transforms hold, stay bounded
    #: whatever the throughput.  Each partition is verified at its end.
    append_partition: int = 100
    check_samples: int = 8


FULL = Size()
TINY = Size(
    base_rows=60, upload_rows=(24, 40), upload_cols=3, catalog_tables=6,
    catalog_rows=(24, 40), catalog_cols=3, zipf_ks=(3, 5), append_every=2,
    append_base_rows=2_000, append_batch_rows=32, append_checkpoints=(0, 5),
    append_sample_every=10, append_partition=40, check_samples=3,
)
SIZES = {"full": FULL, "tiny": TINY}


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _base_specs():
    from repro.corpus.generators import TESTING_SPECS, TRAINING_SPECS

    # The ten testing datasets plus the twelve training domains (the
    # training size variants repeat those domains).
    return list(TESTING_SPECS) + [s for s in TRAINING_SPECS if "#" not in s.name]


class Deck:
    """Deals request tables: each is a random row sample and a column
    subset of one per-seed base table per corpus dataset.

    Datasets and row counts are dealt in shuffled blocks that cover
    every dataset once, with row counts stratified over their range;
    each dataset's columns are dealt round-robin from a shuffled order.
    So every run, whatever its seed or length, serves about the same
    mix of column types and sizes, and only the values differ.
    """

    def __init__(self, rng: np.random.Generator, seed: int, size: "Size",
                 rows: Tuple[int, int], cols: int) -> None:
        from repro.corpus.generators import make_table

        self.rng = rng
        self.bases = [
            make_table(spec.name, scale=size.base_rows / spec.rows, seed=seed)
            for spec in _base_specs()
        ]
        self.rows = rows
        self.cols = cols
        self._column_orders = [
            list(rng.permutation(base.num_columns)) for base in self.bases
        ]
        self._cursors = [0] * len(self.bases)
        self._queue: List[Tuple[int, int]] = []

    def _refill(self) -> None:
        n = len(self.bases)
        lo, hi = self.rows
        strata = (self.rng.permutation(n) + self.rng.random(n)) / n
        for j, index in enumerate(self.rng.permutation(n)):
            self._queue.append((int(index), int(lo + (hi - lo) * strata[j])))

    def _columns(self, index: int) -> List[str]:
        order = self._column_orders[index]
        count = min(self.cols, len(order))
        start = self._cursors[index]
        self._cursors[index] = (start + count) % len(order)
        picked = sorted(order[(start + j) % len(order)] for j in range(count))
        names = self.bases[index].column_names
        return [names[i] for i in picked]

    def table(self):
        """The next request table (rows and columns keep base order)."""
        if not self._queue:
            self._refill()
        index, rows = self._queue.pop(0)
        base = self.bases[index]
        keep = np.sort(
            self.rng.choice(base.num_rows, size=min(rows, base.num_rows), replace=False)
        )
        return base.select_rows(keep).project(self._columns(index))


def warmup_table():
    """The fixed warm-up input of every set-up (the same for all seeds,
    so set-up time does not depend on the seed's inputs)."""
    from repro.corpus.generators import make_table

    table = make_table("Monthly Sales", scale=80 / 480, seed=0)
    return table.project(table.column_names[:4])


def views(table) -> list:
    """The table without each one of its columns, in column order."""
    names = table.column_names
    if len(names) < 2:
        return []
    return [table.project(names[:i] + names[i + 1:]) for i in range(len(names))]


def answer_of(result) -> Answer:
    from repro.obs.drift import node_id

    return tuple(node_id(node) for node in result.nodes)


def load_engine(engine_dir: Path, rec):
    from repro import DeepEye

    with rec.span("persistence.load"):
        return DeepEye.load(engine_dir)


def uncached_engine(engine_dir: Path):
    """The reference: the same saved engine, serial and without cache."""
    from repro import DeepEye

    engine = DeepEye.load(engine_dir)
    engine.cache = None
    return engine


def sample_indices(n: int, samples: int) -> List[int]:
    """Evenly spaced request indices, always including the first."""
    if n <= 0:
        return []
    return sorted({int(i) for i in np.linspace(0, n - 1, min(samples, n))})


def timed(fn) -> Outcome:
    start = time.perf_counter()
    answer = fn()
    return time.perf_counter() - start, answer


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: Set-ups per run (``setup_s`` is their median).
    setup_reps = 5
    #: Whether the cache sits in this process, so each request's cache
    #: class (hit / partial / cold) can be read from its counters.
    in_process_cache = True

    def __init__(self, engine_dir: Path, seed: int, size: Size):
        self.engine_dir = engine_dir
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.engine = None
        from tracing import NullRecorder

        self.rec = NullRecorder()
        self.load_seconds: List[float] = []
        self.reset_counters()

    def _load(self):
        start = time.perf_counter()
        engine = load_engine(self.engine_dir, self.rec)
        self.load_seconds.append(time.perf_counter() - start)
        return engine

    def teardown(self) -> None:
        self.engine = None

    def cleanup(self) -> None:
        """Remove files the workload wrote (end of the run)."""

    def prepare(self, i: int) -> None:
        """Make the input of step ``i`` (untimed)."""
        raise NotImplementedError

    def is_append(self, i: int) -> bool:
        """Whether step ``i`` writes to a table rather than reads one."""
        return False

    def checkpoint(self, i: int, answer: Optional[Answer]) -> int:
        """An untimed check after step ``i``, which served ``answer``;
        returns the number of wrong answers found."""
        return 0

    @property
    def cache(self):
        return self.engine.cache if self.engine is not None else None

    def note(self, result) -> None:
        """Keep the phase timings and counts of a selection that was
        computed, not served from the results level (the core.*
        metrics); the result itself is dropped so that the benchmark
        does not hold memory the program would not."""
        if not result.result_cache_hit:
            self.selected.append(
                (
                    result.timings.get("enumerate", 0.0),
                    result.timings.get("recognize", 0.0),
                    result.timings.get("rank", 0.0),
                    result.candidates,
                    result.valid,
                )
            )

    def reset_counters(self) -> None:
        """Forget what set-up recorded; called before the measured loop."""
        self.selected: List[Tuple[float, float, float, int, int]] = []


class Upload(Workload):
    """Each request is a never-seen CSV upload: ingest it, then serve
    top-10 for the table and for each of its views (the table without
    one of its columns) in one ``top_k_batch`` (process pool, dedup on),
    and render every answer."""

    name = "upload"
    #: The batch runs in pool workers, whose cache counters this process
    #: cannot read.
    in_process_cache = False

    def __init__(self, engine_dir, seed, size):
        super().__init__(engine_dir, seed, size)
        from repro.dataset.io import write_csv

        self.dir = BUILD / f"inputs-upload-{seed}-{id(self):x}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.deck = Deck(self.rng, seed, size, size.upload_rows, size.upload_cols)
        self.paths: List[Path] = []
        self.warmup_path = self.dir / "warmup.csv"
        write_csv(warmup_table(), self.warmup_path)

    def prepare(self, i: int) -> None:
        from repro.dataset.io import write_csv

        path = self.dir / f"upload_{i:05d}.csv"
        write_csv(self.deck.table(), path)
        self.paths.append(path)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def reset_counters(self) -> None:
        super().reset_counters()
        self.rows_ingested = 0
        #: ``(first result, makespan)`` seconds of each batch.
        self.batch_stats: List[Tuple[float, float]] = []

    @staticmethod
    def batch_of(table) -> list:
        return [table] + views(table)

    def _serve(self, path: Path) -> Answer:
        from repro.render.vega import to_vega_lite_json

        table = self.engine.from_source(path)
        self.rows_ingested += table.num_rows
        answers = []
        start = time.perf_counter()
        first = None
        with self.rec.span("parallel.batch"):
            stream = self.engine.top_k_batch(
                self.batch_of(table), k=K_DEFAULT, dedup=True
            )
            while True:
                # The last wait covers the pool's shutdown, as a client
                # looping over the stream would see it.
                with self.rec.span("parallel.wait"):
                    result = next(stream, None)
                if result is None:
                    break
                if first is None:
                    first = time.perf_counter() - start
                self.note(result)
                with self.rec.span("render.vega"):
                    for node in result.nodes:
                        to_vega_lite_json(node)
                answers.append(answer_of(result))
        self.batch_stats.append((first, time.perf_counter() - start))
        return tuple(answers)

    def setup(self) -> None:
        self.engine = self._load()
        self.engine.config = dataclasses.replace(
            self.engine.config, n_jobs=self.size.upload_jobs, backend="process"
        )
        self._serve(self.warmup_path)

    def step(self, i: int) -> Outcome:
        return timed(lambda: self._serve(self.paths[i]))

    def check(self, answers: Sequence[Optional[Answer]]) -> int:
        reference = uncached_engine(self.engine_dir)
        wrong = 0
        for i in sample_indices(len(answers), self.size.check_samples):
            table = reference.from_source(self.paths[i])
            expected = tuple(
                answer_of(reference.top_k(t, k=K_DEFAULT))
                for t in self.batch_of(table)
            )
            wrong += answers[i] != expected
        return int(wrong)


_REGIONS = ["north", "south", "east", "west", "central", "islands"]
_CHANNELS = ["web", "store", "phone", "partner"]
_DAY0 = dt.date(2020, 1, 1).toordinal()


class LiveCatalog(Workload):
    """Zipf-popular (table, k) reads over a pre-warmed catalog; every
    ``append_every``-th request instead appends a fixed-size batch to a
    live event table held in an IncrementalSession.  Reads and appends
    share the engine's MultiLevelCache, as in a service."""

    name = "live_catalog"
    # Each set-up pre-warms the whole catalog.
    setup_reps = 3

    def __init__(self, engine_dir, seed, size):
        super().__init__(engine_dir, seed, size)
        deck = Deck(self.rng, seed, size, size.catalog_rows, size.catalog_cols)
        # Catalog position is popularity rank.  The deck deals each
        # dataset once per block, so the hottest ranks cover every
        # dataset once and the hot set costs the same for every seed.
        self.catalog = [deck.table() for _ in range(size.catalog_tables)]
        ranks = np.arange(1, size.catalog_tables + 1, dtype=np.float64)
        weights = ranks ** -size.zipf_exponent
        self.popularity = weights / weights.sum()
        self._dates: Dict[int, dt.date] = {}
        self.base = self._event_table(size.append_base_rows)
        self.warmup_batch = self._batch(-1)
        #: ``(catalog index, k)`` of each read, ``None`` for an append.
        self.requests: List[Optional[Tuple[int, int]]] = []
        self.batch: List[list] = []
        self.session = None

    # -- inputs --------------------------------------------------------
    def is_append(self, i: int) -> bool:
        return i % self.size.append_every == self.size.append_every - 1

    def prepare(self, i: int) -> None:
        if self.is_append(i):
            self.batch = self._batch(i // self.size.append_every)
            self.requests.append(None)
            return
        table_index = self.rng.choice(len(self.catalog), p=self.popularity)
        k = self.rng.choice(self.size.zipf_ks)
        self.requests.append((int(table_index), int(k)))

    def _batch(self, i: int) -> List[list]:
        """Append batch ``i`` (-1 is the warm-up batch)."""
        rows = self.size.append_batch_rows
        return self._event_rows(
            rows, day_offset=self.size.append_base_rows + (i + 1) * rows
        )

    def _columns(self, n: int, day_offset: int):
        rng = self.rng
        # Days advance with the stream (about 400 events a day), as in
        # an append-only event log.
        start = _DAY0 + day_offset // 400
        days = start + np.sort(rng.integers(0, max(1, n // 400) + 1, n))
        return (
            rng.integers(0, len(_REGIONS), n),
            rng.integers(0, len(_CHANNELS), n),
            np.round(rng.gamma(2.0, 60.0, n), 2),
            days,
        )

    def _date(self, ordinal: int) -> dt.date:
        # One object per day keeps the event table small, so it adds
        # little to the process's peak RSS.
        day = self._dates.get(ordinal)
        if day is None:
            day = self._dates[ordinal] = dt.date.fromordinal(ordinal)
        return day

    def _event_table(self, n: int):
        from repro.dataset import Column, ColumnType, Table

        region, channel, revenue, day = self._columns(n, 0)
        return Table(
            "events",
            [
                Column("region", ColumnType.CATEGORICAL, np.array(_REGIONS)[region]),
                Column("channel", ColumnType.CATEGORICAL, np.array(_CHANNELS)[channel]),
                Column("revenue", ColumnType.NUMERICAL, revenue),
                Column("day", ColumnType.TEMPORAL, [self._date(d) for d in day.tolist()]),
            ],
        )

    def _event_rows(self, n: int, day_offset: int) -> List[list]:
        region, channel, revenue, day = self._columns(n, day_offset)
        return [
            [_REGIONS[r], _CHANNELS[c], v, self._date(d)]
            for r, c, v, d in zip(
                region.tolist(), channel.tolist(), revenue.tolist(), day.tolist()
            )
        ]

    # -- serving -------------------------------------------------------
    def _start_partition(self) -> None:
        from repro.engine import IncrementalSession

        self.session = IncrementalSession(
            self.base, k=K_DEFAULT, cache=self.engine.cache
        )

    def _read(self, table_index: int, k: int) -> Answer:
        from repro.render.vega import to_vega_lite_json

        result = self.engine.top_k(self.catalog[table_index], k=k)
        self.note(result)
        with self.rec.span("render.vega"):
            for node in result.nodes:
                to_vega_lite_json(node)
        return answer_of(result)

    def _append(self) -> Answer:
        report = self.session.append(self.batch)
        self.note(report.result)
        self.appends.append(
            (
                report.timings.get("merge", 0.0),
                report.transforms_merged,
                report.transforms_rebuilt,
                report.transforms_invalidated,
                report.raw_m_reused,
                report.raw_m_computed,
            )
        )
        return tuple(self.session.topk_ids)

    def setup(self) -> None:
        self.engine = self._load()
        for table in self.catalog:
            self.engine.top_k(table, k=K_DEFAULT)
        self._start_partition()
        self.batch = self.warmup_batch
        self._append()
        self._read(0, K_DEFAULT)

    def teardown(self) -> None:
        self.session = None
        super().teardown()

    def reset_counters(self) -> None:
        super().reset_counters()
        self.appends: List[Tuple[float, int, int, int, int, int]] = []

    def step(self, i: int) -> Outcome:
        request = self.requests[i]
        if request is None:
            return timed(self._append)
        return timed(lambda: self._read(*request))

    # -- checks --------------------------------------------------------
    def _verified(self) -> bool:
        from repro.engine.incremental import IncrementalDriftError

        try:
            return self.session.verify()["kind"] == "identical"
        except IncrementalDriftError:
            return False

    def _scratch_answer(self) -> Answer:
        """A from-scratch, uncached selection of the session's table."""
        from repro.core.pipeline import select_top_k

        session = self.session
        return answer_of(
            select_top_k(
                session.table, k=session.k, enumeration=session.enumeration,
                config=session.config, graph_strategy=session.graph_strategy,
                cache=None,
            )
        )

    def checkpoint(self, i: int, answer: Optional[Answer]) -> int:
        if not self.is_append(i):
            return 0
        n = i // self.size.append_every
        wrong = 0
        if n % self.size.append_sample_every == 0:
            wrong += answer != self._scratch_answer()
        partition_end = (n + 1) % self.size.append_partition == 0
        if n in self.size.append_checkpoints or partition_end:
            wrong += not self._verified()
        if partition_end:
            self._start_partition()
        return int(wrong)

    def check(self, answers: Sequence[Optional[Answer]]) -> int:
        wrong = 0 if self._verified() else 1
        first: Dict[Tuple[int, int], Optional[Answer]] = {}
        for request, answer in zip(self.requests, answers):
            if request is None:
                continue
            if request not in first:
                first[request] = answer
            elif answer != first[request]:
                wrong += 1
        # The first answer of a sample of keys must match an uncached
        # selection, so a consistently wrong cache is caught too.
        reference = uncached_engine(self.engine_dir)
        keys = list(first)
        for j in sample_indices(len(keys), self.size.check_samples):
            table_index, k = keys[j]
            expected = answer_of(reference.top_k(self.catalog[table_index], k=k))
            wrong += first[keys[j]] != expected
        return int(wrong)


WORKLOADS = {cls.name: cls for cls in (Upload, LiveCatalog)}
