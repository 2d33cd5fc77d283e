"""Paths, source-tree import, and the small measurement helpers every
benchmark process shares.

The benchmark runs from the root of a checkout and serves the library
built from that checkout's ``src/`` tree — never an installed copy — so
:func:`require_source` refuses to run when the tree is missing.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (trained engine, CSV inputs, traces)
#: lives here, inside the checkout and outside version control.
BUILD = ROOT / ".bench_build" / "perfbench"

#: Every run holds at least this many requests, so p90 has at least ten
#: samples beyond it.
MIN_REQUESTS = 100


class SourceTreeMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and check that
    ``import repro`` resolves there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no src/repro package under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SourceTreeMissing(
            f"repro imported from {repro.__file__}, not from {SRC}"
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process or of the largest child it
    has waited for (the pool workers of a process-backend batch, which
    have exited by the time this is read); Linux reports KiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def host_ref_ms(reps: int = 5) -> float:
    """Median wall time of a fixed pure-Python + NumPy reference loop.

    Not a program metric: it does the same work on every run, so its
    drift between runs shows how much of a metric's spread is the host.
    """
    samples = []
    data = np.arange(200_000, dtype=np.float64)
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        total += float(np.sort(data[::-1]).sum())
        samples.append(time.perf_counter() - start)
    return 1e3 * median(samples)


def digest(answers: Iterable[object]) -> str:
    """SHA-256 over the ``repr`` of each answer, in request order."""
    h = hashlib.sha256()
    for answer in answers:
        h.update(repr(answer).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def cache_counters(cache) -> Dict[str, Dict[str, int]]:
    """Per-level ``{hits, misses, evictions}`` of a MultiLevelCache."""
    levels = cache.stats_by_level()
    return {
        level: dict(levels[level]) for level in ("results", "features", "transforms")
    }


def counter_delta(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    return {
        level: {
            key: after[level].get(key, 0) - before[level].get(key, 0)
            for key in ("hits", "misses", "evictions")
        }
        for level in after
    }
