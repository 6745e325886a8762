"""The outcome digest: the behavioural contract of the episode runtime.

Every (mode, task, seed) cell of the 3 modes x tasks 1-8 x seeds 0-7 grid
runs with the default ``EpisodeConfig``. The digest is sha256 over the
sorted [mode, task, seed, outcome, ticks_elapsed, detail] rows, serialised
as compact JSON, the same encoding ``perfbench/workloads.outcome_digest``
uses. The expected value may change only in a change that fixes behaviour,
and that change lists the cells that moved.
"""

import hashlib
import json

from brainstem.episode import EpisodeConfig, run_trial

GRID_MODES = ("full", "reactive_only", "no_inspector")
GRID_TASKS = range(1, 9)
GRID_SEEDS = range(8)

EXPECTED_DIGEST = \
    "50c63af0af885fc8bbbb1579e9da20fa2a5cc1f99b52436dc4926030440b3737"
EXPECTED_TICKS = 511897


def outcome_digest(rows) -> str:
    text = json.dumps(sorted(rows), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outcome_digest_of_seeded_grid():
    rows = []
    for mode in GRID_MODES:
        config = EpisodeConfig(mode=mode)
        for task_id in GRID_TASKS:
            for seed in GRID_SEEDS:
                trial = run_trial(task_id, seed, config)
                rows.append([mode, task_id, seed, trial.outcome.value,
                             trial.ticks_elapsed, trial.detail])
    assert len(rows) == 192
    assert sum(row[4] for row in rows) == EXPECTED_TICKS
    assert outcome_digest(rows) == EXPECTED_DIGEST
