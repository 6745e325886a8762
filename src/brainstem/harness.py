"""Benchmark harness: seeded trial batches, aggregation, table emission.

A batch runs ``evals`` independent evaluation blocks of ``trials_per_eval``
seeded trials per task, mirroring the reference protocol of eight evaluation
columns per category. Aggregation is arithmetic mean plus sample standard
deviation (n-1); the shipped reference tables carry four printed averages
that disagree with their own raw arrays, and the raw arrays are treated as
ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .episode import (MODES, EpisodeConfig, Outcome, TrialResult,
                      require_positive_ints, run_trial)
from .errors import ConfigError, EmptyInput, IoError, SchemaViolation
from .protocol import is_finite_number
from .simenv import TASK_IDS

BACKENDS = ("scripted", "remote")


def aggregate(values: Sequence[float],
              expected_n: Optional[int] = None) -> tuple:
    """(mean, sample std) of eval percentages; std uses the n-1 convention."""
    values = list(values)
    if not values:
        raise EmptyInput("no values to aggregate")
    if expected_n is not None and len(values) != expected_n:
        raise ConfigError(f"expected {expected_n} values, got {len(values)}")
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


@dataclass
class BenchConfig:
    tasks: tuple = TASK_IDS
    mode: str = "full"
    trials_per_eval: int = 25
    evals: int = 8
    base_seed: int = 0
    backend: str = "scripted"
    memory_period: int = EpisodeConfig.memory_period
    deliberative_period: int = EpisodeConfig.deliberative_period
    seconds_per_tick: Optional[float] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.tasks, (tuple, list)):
            raise ConfigError("tasks must be a tuple or list of task ids, "
                              f"got {self.tasks!r}")
        bad = [t for t in self.tasks if type(t) is not int or t not in TASK_IDS]
        if bad:
            raise ConfigError(f"unknown task ids {bad}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ConfigError(f"task ids repeat in {list(self.tasks)}")
        require_positive_ints(self, ("trials_per_eval", "evals"))
        if type(self.base_seed) is not int:
            raise ConfigError(f"base_seed must be an int, got {self.base_seed!r}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, "
                              f"got {self.backend!r}")
        self.episode_config()  # raises ConfigError on a bad episode setting

    def digest(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]

    def episode_config(self) -> EpisodeConfig:
        return EpisodeConfig(mode=self.mode,
                             memory_period=self.memory_period,
                             deliberative_period=self.deliberative_period,
                             seconds_per_tick=self.seconds_per_tick)


@dataclass
class TaskRow:
    task_id: int
    category: str
    eval_percentages: list
    avg: float
    std: float
    outcomes: dict


_OUTCOMES = frozenset(o.value for o in Outcome)
_DOC_KEYS = frozenset({"config_digest", "mode", "seeds", "rows", "trials"})
_TRIAL_KEYS = frozenset({"task_id", "seed", "outcome", "ticks_elapsed",
                         "detail"})


def _row_ok(row: TaskRow) -> bool:
    return (type(row.task_id) is int and row.task_id in TASK_IDS
            and isinstance(row.category, str)
            and isinstance(row.eval_percentages, list)
            and all(map(is_finite_number,
                        [*row.eval_percentages, row.avg, row.std]))
            and isinstance(row.outcomes, dict)
            and all(k in _OUTCOMES and type(n) is int and n >= 0
                    for k, n in row.outcomes.items()))


def _trial_ok(trial: TrialResult) -> bool:
    return (all(type(n) is int for n in
                (trial.task_id, trial.seed, trial.ticks_elapsed))
            and trial.task_id in TASK_IDS and trial.ticks_elapsed >= 0
            and isinstance(trial.detail, str))


@dataclass
class EvalBatch:
    config_digest: str
    mode: str
    seeds: list
    rows: list = field(default_factory=list)   # TaskRow
    trials: list = field(default_factory=list)  # TrialResult

    def row_for(self, task_id: int) -> TaskRow:
        for row in self.rows:
            if row.task_id == task_id:
                return row
        raise KeyError(task_id)

    def to_doc(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "mode": self.mode,
            "seeds": self.seeds,
            "rows": [asdict(r) for r in self.rows],
            "trials": [{"task_id": t.task_id, "seed": t.seed,
                        "outcome": t.outcome.value,
                        "ticks_elapsed": t.ticks_elapsed,
                        "detail": t.detail} for t in self.trials],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EvalBatch":
        """Rebuild a batch from :meth:`to_doc` output.

        Raises SchemaViolation when ``doc`` is not such a document.
        """
        try:
            batch = cls(doc["config_digest"], doc["mode"], doc["seeds"])
            batch.rows = [TaskRow(**r) for r in doc["rows"]]
            batch.trials = [TrialResult(t["task_id"], t["seed"],
                                        Outcome(t["outcome"]),
                                        t["ticks_elapsed"], None,
                                        t.get("detail", ""))
                            for t in doc["trials"]]
        except KeyError as exc:
            raise SchemaViolation(f"batch: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaViolation(f"batch: {exc}") from None
        extra = set(doc) - _DOC_KEYS
        for trial in doc["trials"]:
            extra |= set(trial) - _TRIAL_KEYS
        if extra:
            raise SchemaViolation(f"batch: unknown fields {sorted(extra)}")
        if not isinstance(batch.seeds, list) or not batch.seeds or any(
                type(s) is not int for s in batch.seeds):
            raise SchemaViolation("batch: seeds must be a non-empty list "
                                  "of ints")
        if batch.mode not in MODES or not isinstance(batch.config_digest, str):
            raise SchemaViolation(f"batch: mode must be one of {MODES} and "
                                  "config_digest a string")
        if not all(map(_row_ok, batch.rows)) or not all(
                map(_trial_ok, batch.trials)):
            raise SchemaViolation(
                f"batch: rows need a task_id in {TASK_IDS}, a string "
                "category, finite eval_percentages, avg and std, and "
                "non-negative int counts keyed by outcome; trials need a "
                "task_id in that set, an int seed, a non-negative int "
                "ticks_elapsed and a string detail")
        cells = [(t.task_id, t.seed) for t in batch.trials]
        if len(set(cells)) != len(cells) or not {
                seed for _, seed in cells} <= set(batch.seeds):
            raise SchemaViolation("batch: trials repeat a (task_id, seed) "
                                  "or use a seed outside seeds")
        for row in batch.rows:
            counts = dict(Counter(t.outcome.value for t in batch.trials
                                  if t.task_id == row.task_id))
            if row.outcomes != counts:
                raise SchemaViolation(
                    f"batch: task {row.task_id} outcomes {row.outcomes} are "
                    f"not its trials' counts {counts}")
            if not row.eval_percentages or (row.avg, row.std) != aggregate(
                    row.eval_percentages):
                raise SchemaViolation(
                    f"batch: task {row.task_id} avg and std are not the "
                    "aggregate of its eval_percentages")
        return batch


def _make_backend(config: BenchConfig):
    if config.backend == "remote":
        from .backends import RemoteBackend
        return RemoteBackend.from_env(os.environ)
    from .backends import ScriptedBackend
    return ScriptedBackend()


def run_bench(config: BenchConfig) -> EvalBatch:
    """Execute the configured trial grid; deterministic given the seeds."""
    from .simenv import load_scenario

    if config.out_dir:
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {config.out_dir}: {exc}") from None
    backend = _make_backend(config)
    episode_config = config.episode_config()
    seeds = [config.base_seed + i
             for i in range(config.evals * config.trials_per_eval)]
    batch = EvalBatch(config.digest(), config.mode, seeds)
    for task_id in config.tasks:
        category = load_scenario(task_id, 0)[0].category
        percentages = []
        outcomes: dict = {}
        for block in range(config.evals):
            hits = 0
            for trial in range(config.trials_per_eval):
                seed = seeds[block * config.trials_per_eval + trial]
                result = run_trial(task_id, seed, episode_config, backend)
                batch.trials.append(result)
                outcomes[result.outcome.value] = \
                    outcomes.get(result.outcome.value, 0) + 1
                if result.outcome is Outcome.SUCCESS:
                    hits += 1
            percentages.append(100.0 * hits / config.trials_per_eval)
        avg, std = aggregate(percentages)
        batch.rows.append(TaskRow(task_id, category, percentages, avg, std,
                                  outcomes))
    if config.out_dir:
        path = os.path.join(config.out_dir, "batch.json")
        try:
            with open(path, "w", encoding="utf-8") as sink:
                json.dump(batch.to_doc(), sink, indent=2, sort_keys=True)
        except OSError as exc:
            raise IoError(f"cannot write batch to {path}: {exc}") from None
    return batch


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def load_reference_tables() -> dict:
    """The shipped raw eval arrays with their printed averages."""
    with resources.files("brainstem.fixtures").joinpath(
            "eval_tables.json").open("r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_aggregates() -> list:
    """One record per (model, category): computed vs printed average.

    ``consistent`` is False for the four cells whose printed average cannot
    be reproduced from the printed raw array; the recomputed mean is
    authoritative there.
    """
    doc = load_reference_tables()
    records = []
    for model, rows in doc["tables"].items():
        for category, cell in rows.items():
            avg, std = aggregate(cell["values"],
                                 expected_n=doc["evals_per_row"])
            records.append({
                "model": model,
                "category": category,
                "values": cell["values"],
                "computed_avg": avg,
                "computed_std": std,
                "printed_avg": cell["printed_avg"],
                "consistent": not cell.get("known_inconsistent", False),
            })
    return records


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(avg: float, std: float) -> str:
    def short(x):
        return f"{x:.10g}" if x != int(x) else str(int(x))
    return f"{short(round(avg, 2))}±{short(round(std, 2))}"


def emit_report(batch: EvalBatch, fmt: str = "md",
                path: Optional[str] = None) -> str:
    """Render (Category, Task, mean±std) rows as markdown, CSV, or JSON."""
    if fmt == "md":
        lines = ["| Category | Task | Success (mean±std) |",
                 "| --- | --- | --- |"]
        for row in batch.rows:
            lines.append(f"| {row.category} | task {row.task_id} | "
                         f"{_fmt(row.avg, row.std)} |")
        lines.append("")
        lines.append(f"mode: {batch.mode}; config: {batch.config_digest}; "
                     f"seeds: {batch.seeds[0]}..{batch.seeds[-1]} "
                     f"({len(batch.seeds)} per task)")
        lines.append("std convention: sample standard deviation (n-1) over "
                     "the evaluation columns")
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        lines = ["category,task,avg,std,evals"]
        for row in batch.rows:
            evals = ";".join(f"{p:g}" for p in row.eval_percentages)
            lines.append(f"{row.category},{row.task_id},{row.avg:g},"
                         f"{row.std:.6g},{evals}")
        lines.append(f"# mode={batch.mode} config={batch.config_digest} "
                     f"n_seeds={len(batch.seeds)}")
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(batch.to_doc(), indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as sink:
                sink.write(text)
        except OSError as exc:
            raise IoError(f"cannot write report to {path}: {exc}") from None
    return text
