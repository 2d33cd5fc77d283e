"""Self-tests of the serving benchmark (tiny input sizes).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

from common import ROOT, require_source  # noqa: E402

require_source()

import child  # noqa: E402
import metrics  # noqa: E402
import model  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(run.WORKLOAD_NAMES)


@pytest.fixture(scope="module")
def engine_dir() -> Path:
    return model.ensure_engine()


def _run(name, engine_dir, trace=False, seconds=0.2):
    return child.run(
        name, seed=5, seconds=seconds, trace=trace, engine_dir=engine_dir,
        size="tiny",
    )


@functools.lru_cache(maxsize=None)
def _measure_traced(name, engine_dir):
    """An untraced and a traced run of one seed, as ``--trace 1`` makes."""
    return run.measure(name, 5, 0.2, True, engine_dir, "tiny")


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_metric(name, engine_dir):
    record = _measure_traced(name, engine_dir)
    assert record["correct"], record
    assert record["failed"] == 0
    untraced = record["untraced"]
    assert set(untraced["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(value > 0 for value in untraced["metrics"].values())
    assert set(record["metrics"]) == set(metrics.PER_LAYER_NAMES)
    assert untraced["attempted"] >= child.MIN_REQUESTS
    assert untraced["near_timer_resolution"] == []
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_live_catalog_fills_transforms_level(engine_dir):
    from repro.engine.cache import MultiLevelCache

    workload = workloads.LiveCatalog(engine_dir, 5, workloads.TINY)
    workload.setup()
    # At tiny size the appends' transforms fill the level within about
    # 200 requests.
    for i in range(300):
        workload.prepare(i)
        _, answer = workload.step(i)
        assert workload.checkpoint(i, answer) == 0
    capacity = MultiLevelCache().transforms.maxsize
    assert workload.cache.level_sizes()["transforms"] == capacity


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_answer_is_caught(name, engine_dir, monkeypatch):
    cls = workloads.WORKLOADS[name]
    original = cls.step

    def corrupted(self, i):
        latency, answer = original(self, i)
        return (latency, ("corrupted",)) if i == 0 else (latency, answer)

    monkeypatch.setattr(cls, "step", corrupted)
    record = _run(name, engine_dir)
    assert not record["correct"]
    assert record["failed"] >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_answers_agree(name, engine_dir):
    record = _measure_traced(name, engine_dir)
    # The digest of the first MIN_REQUESTS answers, which every run holds.
    assert record["traced"]["digest_prefix"] == record["untraced"]["digest_prefix"]


def test_training_is_byte_identical(tmp_path):
    model.train(tmp_path / "a")
    model.train(tmp_path / "b")
    assert model.file_digests(tmp_path / "a") == model.file_digests(tmp_path / "b")


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "upload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
