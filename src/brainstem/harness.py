"""Benchmark harness: seeded trial batches, aggregation, table emission.

A batch runs ``evals`` independent evaluation blocks of ``trials_per_eval``
seeded trials per task, mirroring the reference protocol of eight evaluation
columns per category. Aggregation is arithmetic mean plus sample standard
deviation (n-1); the shipped reference tables carry four printed averages
that disagree with their own raw arrays, and the raw arrays are treated as
ground truth.

A saved batch holds only its config (every :class:`BenchConfig` field but
``out_dir``) and its trials, which must be exactly the config's grid, so the
batch can be re-run from its own output. Its mode, seeds, number of
evaluation blocks and digest are read from the config, and each task's row
is derived from its trials by :func:`task_row`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from typing import Optional, Sequence

from .episode import (EpisodeConfig, Outcome, TrialResult,
                      require_positive_ints, run_trial)
from .errors import ConfigError, EmptyInput, IoError, SchemaViolation
from .simenv import TASK_IDS, load_scenario

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
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.tasks, (tuple, list)) or not self.tasks:
            raise ConfigError("tasks must be a non-empty tuple or list of "
                              f"task ids, got {self.tasks!r}")
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
        """The grid's identity: every field but where its batch is written."""
        doc = json.dumps({**asdict(self), "out_dir": None}, sort_keys=True,
                         default=list)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]

    def seeds(self) -> range:
        """Each task's trial seeds, in the order they run."""
        return range(self.base_seed,
                     self.base_seed + self.evals * self.trials_per_eval)

    def episode_config(self) -> EpisodeConfig:
        return EpisodeConfig(mode=self.mode,
                             memory_period=self.memory_period,
                             deliberative_period=self.deliberative_period)


@dataclass
class TaskRow:
    task_id: int
    category: str
    eval_percentages: list
    avg: float
    std: float


def task_row(task_id: int, trials: Sequence[TrialResult],
             evals: int) -> TaskRow:
    """The row of one task's ``trials``: the success percentage of each of
    ``evals`` equal blocks of them in seed order, and the percentages'
    aggregate."""
    trials = sorted(trials, key=lambda t: t.seed)
    size = len(trials) // evals
    percentages = [100.0 * sum(t.outcome is Outcome.SUCCESS
                               for t in trials[i * size:(i + 1) * size]) / size
                   for i in range(evals)]
    avg, std = aggregate(percentages)
    return TaskRow(task_id, load_scenario(task_id, 0)[0].category,
                   percentages, avg, std)


_CONFIG_KEYS = tuple(f.name for f in fields(BenchConfig)
                     if f.name != "out_dir")
_TRIAL_KEYS = ("task_id", "seed", "outcome", "ticks_elapsed", "detail")


def _exact_keys(doc, keys: tuple, what: str):
    """``doc``, when it is an object with exactly ``keys``."""
    if not isinstance(doc, dict):
        raise SchemaViolation(f"batch: {what} must be an object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise SchemaViolation(f"batch: missing field {missing[0]!r}")
    extra = set(doc) - set(keys)
    if extra:
        raise SchemaViolation(f"batch: unknown fields {sorted(extra)}")
    return doc


def _trial_ok(trial: TrialResult) -> bool:
    return (all(type(n) is int for n in
                (trial.task_id, trial.seed, trial.ticks_elapsed))
            and trial.ticks_elapsed >= 0 and isinstance(trial.detail, str))


@dataclass
class EvalBatch:
    config: BenchConfig
    trials: list = field(default_factory=list)  # TrialResult

    @property
    def rows(self) -> list:
        """Each task's :func:`task_row`, in the config's task order."""
        return [task_row(task_id,
                         [t for t in self.trials if t.task_id == task_id],
                         self.config.evals)
                for task_id in self.config.tasks]

    def row_for(self, task_id: int) -> TaskRow:
        for row in self.rows:
            if row.task_id == task_id:
                return row
        raise KeyError(task_id)

    def to_doc(self) -> dict:
        config = {key: getattr(self.config, key) for key in _CONFIG_KEYS}
        return {
            "config": {**config, "tasks": list(self.config.tasks)},
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
        _exact_keys(doc, ("config", "trials"), "document")
        try:
            config = BenchConfig(**_exact_keys(doc["config"], _CONFIG_KEYS,
                                               "config"))
        except ConfigError as exc:
            raise SchemaViolation(f"batch: config: {exc}") from None
        try:
            trials = [TrialResult(t["task_id"], t["seed"],
                                  Outcome(t["outcome"]), t["ticks_elapsed"],
                                  None, t["detail"])
                      for t in (_exact_keys(t, _TRIAL_KEYS, "trial")
                                for t in doc["trials"])]
        except (TypeError, ValueError) as exc:
            raise SchemaViolation(f"batch: {exc}") from None
        if not all(map(_trial_ok, trials)):
            raise SchemaViolation(
                "batch: trials need an int task_id and seed, a non-negative "
                "int ticks_elapsed and a string detail")
        # The length test comes first: the config's grid may be far larger
        # than the document, and is only walked as far as its trials go.
        grid = ((task_id, seed) for task_id in config.tasks
                for seed in config.seeds())
        if len(trials) != (len(config.tasks) * config.evals
                           * config.trials_per_eval) or any(
                (t.task_id, t.seed) != cell for t, cell in zip(trials, grid)):
            raise SchemaViolation(
                "batch: trials must be the config's grid, one per (task_id, "
                "seed) in task-then-seed order, none missing or repeated")
        return cls(config, trials)


def _make_backend(config: BenchConfig):
    if config.backend == "remote":
        from .backends import RemoteBackend
        return RemoteBackend.from_env(os.environ)
    from .backends import ScriptedBackend
    return ScriptedBackend()


def run_bench(config: BenchConfig) -> EvalBatch:
    """Execute the configured trial grid; deterministic given the seeds."""
    if config.out_dir:
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create {config.out_dir}: {exc}") from None
    backend = _make_backend(config)
    episode_config = config.episode_config()
    batch = EvalBatch(config)
    for task_id in config.tasks:
        batch.trials.extend(run_trial(task_id, seed, episode_config, backend)
                            for seed in config.seeds())
    if config.out_dir:
        emit_report(batch, "json", os.path.join(config.out_dir, "batch.json"))
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
        seeds = batch.config.seeds()
        lines.append(f"mode: {batch.config.mode}; "
                     f"config: {batch.config.digest()}; "
                     f"seeds: {seeds[0]}..{seeds[-1]} ({len(seeds)} per task)")
        lines.append("std convention: sample standard deviation (n-1) over "
                     "the evaluation columns")
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        lines = ["category,task,avg,std,evals"]
        for row in batch.rows:
            evals = ";".join(f"{p:g}" for p in row.eval_percentages)
            lines.append(f"{row.category},{row.task_id},{row.avg:g},"
                         f"{row.std:.6g},{evals}")
        lines.append(f"# mode={batch.config.mode} "
                     f"config={batch.config.digest()} "
                     f"n_seeds={len(batch.config.seeds())}")
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
