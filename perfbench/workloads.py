"""Workloads, the outcome digest and the pinned reference cells.

A workload is one (mode, tasks, rates) configuration of ``harness.run_bench``.
``--seed`` picks the run's first trial seed from ``range(BASE_SEEDS)``. A run
goes through consecutive trial seeds, one pass of ``run_bench`` per seed with
every task of the workload, and no (task, seed) cell runs twice in a process:
a real batch runs each cell once, so a cache must earn its hits across
cells. ``pinned.json`` holds the expected (outcome, ticks, detail) of every
cell a run can reach, so each run checks its outputs without a second
program; the expected outcome digest of a pass is computed from those cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED_PATH = os.path.join(HERE, "pinned.json")

# A run starts at one of these trial seeds.
BASE_SEEDS = 16
# A run ends after this many passes even before its seconds are up, so that
# it never leaves the pinned table. A 50 s run on a 2-core x86 host makes
# about 45 passes of grid_full and 25 of grid_reactive_only today, which
# leaves room for a program 3x as fast.
MAX_PASSES = 160


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    tasks: tuple
    memory_period: int
    deliberative_period: int
    traced_seeds: int  # trial seeds per task in the traced grid of --trace 1

    def params(self) -> dict:
        doc = asdict(self)
        doc["tasks"] = list(self.tasks)
        return doc

    def pool(self) -> int:
        """Number of trial seeds, from 0, that any run can reach."""
        return BASE_SEEDS + self.traced_seeds + MAX_PASSES


WORKLOADS = {w.name: w for w in (
    # the paper's headline configuration at 1:100:1000; every layer runs
    Workload("grid_full", "full", (1, 2, 3, 4, 5, 6, 7, 8), 100, 1000, 4),
    # the ablation control: no planner, backend, memory or relay work, and
    # tasks 4, 5 and 8 run to timeout, so per-tick cost dominates
    Workload("grid_reactive_only", "reactive_only", (1, 2, 3, 4, 5, 6, 7, 8),
             100, 1000, 2),
)}


def base_seed(workload: Workload, seed: int) -> int:
    """The run's first trial seed for the command-line ``--seed``."""
    return random.Random(f"{workload.name}:{seed}").randrange(BASE_SEEDS)


def bench_config(harness, workload: Workload, first: int, columns: int):
    """The grid of ``columns`` trial seeds from ``first`` for every task."""
    return harness.BenchConfig(
        tasks=workload.tasks, mode=workload.mode,
        trials_per_eval=columns, evals=1, base_seed=first,
        memory_period=workload.memory_period,
        deliberative_period=workload.deliberative_period)


def cell_key(task_id: int, seed: int) -> str:
    return f"{task_id}:{seed}"


def cell_value(trial) -> list:
    return [trial.outcome.value, trial.ticks_elapsed, trial.detail]


def outcome_rows(mode: str, trials) -> list:
    return [[mode, t.task_id, t.seed, *cell_value(t)] for t in trials]


def outcome_digest(rows) -> str:
    """sha256 over the sorted (mode, task, seed, outcome, ticks, detail) rows."""
    text = json.dumps(sorted(rows), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_brainstem():
    """Import ``brainstem`` from this checkout's ``src`` and nowhere else."""
    package = os.path.join(ROOT, "src", "brainstem")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no brainstem sources at {package}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import brainstem
    if os.path.dirname(os.path.abspath(brainstem.__file__)) != package:
        raise SystemExit(f"perfbench: imported brainstem from "
                         f"{brainstem.__file__}, expected {package}")
    return brainstem


def load_pinned(workload: Workload) -> dict:
    """The workload's pinned cells; refuses a stale pin."""
    try:
        with open(PINNED_PATH, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"perfbench: cannot read {PINNED_PATH}: {exc}")
    entry = doc["workloads"].get(workload.name)
    if entry is None or entry["params"] != workload.params() \
            or entry["pool"] != workload.pool():
        raise SystemExit(f"perfbench: {PINNED_PATH} does not pin workload "
                         f"{workload.name} as defined; run perfbench/pin.py")
    return entry
