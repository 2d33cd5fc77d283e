"""Spans recorded from the benchmark's own files.

The traced run wraps the public entry points of each library layer
(module functions and class methods, looked up by attribute at call
time) with a recorder that appends ``(name, start, end, parent, request
id)`` spans to an in-memory list.  Nothing under ``src/`` changes: the
wrappers are installed for the measured loop and removed afterwards.
A layer is the span name's prefix before the first dot; its self time
is span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    request: int


#: ``span name -> (module, attribute path)`` of every wrapped entry point.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "dataset.from_source": ("repro.dataset.sources", "from_source"),
    "dataset.build_column": ("repro.dataset.table", "build_column"),
    "dataset.append_rows": ("repro.dataset.table", "Table.append_rows"),
    "dataset.fingerprint": ("repro.dataset.table", "Table.fingerprint"),
    "core.top_k": ("repro.core.pipeline", "DeepEye.top_k"),
    "ml.filter_valid": (
        "repro.core.recognition", "VisualizationRecognizer.filter_valid"
    ),
    "ml.hybrid_rank": ("repro.core.hybrid", "HybridRanker.rank"),
    "incremental.append": (
        "repro.engine.incremental", "IncrementalSession.append"
    ),
    "language.merge_delta": ("repro.engine.incremental", "merge_delta"),
    "shared_scan.batch_shared_transforms": (
        "repro.engine.shared_scan", "batch_shared_transforms"
    ),
}


#: Entry points whose return value carries counters the traced run
#: reports: ``span name -> function picking them from the return value``.
KEPT_RETURNS = {
    # (entries, BatchDedupStats): keep the stats, not the entries.
    "shared_scan.batch_shared_transforms": lambda value: value[1],
}


class SpanRecorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``span name -> [kept part of each return value]``.
        self.returns: Dict[str, list] = {name: [] for name in KEPT_RETURNS}
        self.request = -1
        #: Set while the loop runs untimed work (input generation,
        #: checkpoints); nothing is recorded then.
        self.suspended = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.epoch = time.perf_counter()

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self.suspended:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=time.perf_counter())

    def _wrap(self, name: str, func):
        recorder = self
        keep = KEPT_RETURNS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                value = func(*args, **kwargs)
            if keep is not None and not recorder.suspended:
                recorder.returns[name].append(keep(value))
            return value

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for name, (module_name, path) in ENTRY_POINTS.items():
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def totals(self, name: str) -> Tuple[int, float]:
        """``(calls, seconds)`` over spans named ``name``."""
        durations = [s.end - s.start for s in self.spans if s.name == name]
        return len(durations), float(sum(durations))

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus its direct
        children's durations, summed by layer (calls are synchronous, so
        children nest inside their parent without overlap)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        layers: Dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            layer = span.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (span.end - span.start) - children
        return layers

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write the spans (times in ms from the recorder's creation)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {
                    "name": s.name,
                    "start_ms": 1e3 * (s.start - self.epoch),
                    "end_ms": 1e3 * (s.end - self.epoch),
                    "parent": s.parent,
                    "request": s.request,
                }
                for s in self.spans
            ],
            "self_ms": {k: 1e3 * v for k, v in self.self_seconds().items()},
        }
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload))


class NullRecorder:
    """The untraced run's stand-in: same interface, records nothing."""

    request = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield
