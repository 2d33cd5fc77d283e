"""Serving benchmark for the DeepEye reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload upload --seed 1 --seconds 50 --trace 0

Each workload is a closed loop driven by one client through the public
library API (see ``workloads.py``), run in a fresh interpreter.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` an untraced and a traced run of the same
seed are made, half the seconds each, and the object carries the
per-layer metrics, including ``obs.trace_overhead`` (traced / untraced
throughput).  Lines before it
print every ``<workload>/<metric>`` with its unit.  ``--workload all``
runs every workload in turn (report only), and ``--describe`` prints the
metric catalogue with the end-to-end metric each per-layer metric
should move.

The first run in a checkout trains the served engine (the build step,
cached under ``.bench_build/``).  Without a ``src/repro`` tree the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SourceTreeMissing, require_source  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402

WORKLOAD_NAMES = ("upload", "live_catalog")
#: Wall-clock budget of one measurement (both processes of a traced
#: one), counted after the engine is built.
MEASURE_BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(args: List[str], timeout: float) -> dict:
    """Run ``child.py`` in a fresh interpreter (own process group, so a
    timeout also stops its pool workers) and parse its last line."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"workload process exceeded {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed("workload process printed no result")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            engine_dir: Path, size: str = "full") -> dict:
    """One measurement in fresh interpreters; ``size="tiny"`` gives the
    self-tests' small inputs.  A traced measurement splits ``seconds``
    between its untraced and traced run."""
    deadline = time.monotonic() + MEASURE_BUDGET_S
    if trace:
        seconds /= 2
    common = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--engine-dir", str(engine_dir), "--size", size,
    ]
    base = spawn(common + ["--trace", "0"], deadline - time.monotonic())
    if not trace:
        return base
    traced = spawn(common + ["--trace", "1"], deadline - time.monotonic())
    layers = dict(traced["layers"])
    layers["obs.trace_overhead"] = (
        traced["metrics"]["throughput_per_s"] / base["metrics"]["throughput_per_s"]
    )
    same_answers = traced["digest_prefix"] == base["digest_prefix"]
    if not same_answers:
        print("traced and untraced answers differ", file=sys.stderr)
    return {
        "correct": base["correct"] and traced["correct"] and same_answers,
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"]
        + (0 if same_answers else 1),
        "metrics": layers,
        "untraced": base,
        "traced": traced,
    }


def report(workload: str, record: dict, trace: bool) -> None:
    """Human-readable lines: every metric with its unit, then context."""
    for name, value in record["metrics"].items():
        print(f"{workload}/{name} = {value:.6g} {UNITS[name]}")
    base = record["untraced"] if trace else record
    if base["near_timer_resolution"]:
        print(f"# warning: {', '.join(base['near_timer_resolution'])} near the "
              f"timer resolution", file=sys.stderr)
    ref = base["host_ref_ms"]
    print(
        f"# {workload}: attempted={record['attempted']} failed={record['failed']} "
        f"measured={base['elapsed_s']:.2f}s setups="
        + ",".join(f"{s:.3f}" for s in base["setup_seconds"])
        + f"s host.ref_ms before/after={ref[0]:.3f}/{ref[1]:.3f} "
        f"digest={base['digest'][:16]}"
    )
    if trace:
        print(f"# trace written to {record['traced']['trace_path']}")


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in record["metrics"].items()
            },
        }
    )


def describe() -> None:
    for m in END_TO_END:
        print(f"{m.name} [{m.unit}, {m.better} is better, bound {m.bound}]: "
              f"{m.description}")
    for m in PER_LAYER:
        moves = ", ".join(m.moves) if m.moves else "-"
        print(f"{m.name} [{m.unit}, {m.better}]: {m.description} -> {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the metric catalogue and exit")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so spawn() still stops the workload
    # process group on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        require_source()
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from model import ensure_engine

    engine_dir = ensure_engine()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, trace, engine_dir)
            report(name, record, trace)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
