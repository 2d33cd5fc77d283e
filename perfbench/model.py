"""The served engine: the paper's hybrid configuration, trained once.

Decision-tree recognizer + LambdaMART + the expert partial order,
trained from the corpus generators with fixed seeds, so the saved JSON
files are byte-identical from run to run.  Training is the benchmark's
build step: it runs on first use in a checkout and is cached under
``.bench_build`` keyed by a hash of the ``src/`` tree, so every
workload process then only pays :meth:`DeepEye.load` (through
:mod:`repro.persistence`) inside its measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict

from common import BUILD, SRC

#: Training corpus: the twelve training domains at a small scale.
TRAIN_TABLES = 12
TRAIN_SCALE = 0.04
TRAIN_SEED = 0
MAX_NODES_PER_TABLE = 80


def source_key() -> str:
    """Hash of every ``.py`` file under ``src/`` (path + bytes)."""
    h = hashlib.sha256()
    h.update(
        json.dumps(
            [TRAIN_TABLES, TRAIN_SCALE, TRAIN_SEED, MAX_NODES_PER_TABLE]
        ).encode()
    )
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def train(directory: Path) -> None:
    """Train the hybrid engine deterministically and save it."""
    from repro import DeepEye
    from repro.corpus import (
        CorpusConfig,
        PerceptionOracle,
        build_corpus,
        build_training_examples,
        training_tables,
    )

    corpus = build_corpus(
        training_tables(scale=TRAIN_SCALE, seed=TRAIN_SEED)[:TRAIN_TABLES],
        PerceptionOracle(seed=TRAIN_SEED),
        CorpusConfig(seed=TRAIN_SEED, max_nodes_per_table=MAX_NODES_PER_TABLE),
    )
    engine = DeepEye(ranking="hybrid", recognizer_model="decision_tree")
    engine.train(build_training_examples(corpus))
    engine.save(directory)


def file_digests(directory: Path) -> Dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def ensure_engine() -> Path:
    """The trained engine directory for this source tree, training it
    first when absent (written to a temporary directory, then renamed
    into place, so a half-written engine is never loaded)."""
    target = BUILD / f"engine-{source_key()}"
    if (target / "engine.json").is_file():
        return target
    BUILD.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="engine-", dir=BUILD))
    try:
        train(staging)
        os.replace(staging, target)
    except OSError:
        # Another process finished first; its engine is identical.
        if not (target / "engine.json").is_file():
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target
