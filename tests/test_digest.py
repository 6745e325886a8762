"""The outcome digest: the behavioural contract of the episode runtime.

Every (mode, task, seed) cell of the 2 modes x tasks 1-8 x seeds 0-7 grid
runs with the default ``EpisodeConfig``. The digest is sha256 over the
sorted [mode, task, seed, outcome, ticks_elapsed, detail] rows, serialised
as compact JSON, the same encoding ``perfbench/workloads.outcome_digest``
uses. The expected value may change only in a change that fixes behaviour,
and that change lists the cells that moved.
"""

import hashlib
import json

from brainstem.episode import MODES, EpisodeConfig, run_trial

GRID_TASKS = range(1, 9)
GRID_SEEDS = range(8)

EXPECTED_DIGEST = \
    "904490d2d9fe33e7e145ac3a6c387bb81b068fe41a5b6f582ecf41155ca7b33e"
EXPECTED_TICKS = 383682


def outcome_digest(rows) -> str:
    text = json.dumps(sorted(rows), separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_outcome_digest_of_seeded_grid():
    rows = []
    for mode in MODES:
        config = EpisodeConfig(mode=mode)
        for task_id in GRID_TASKS:
            for seed in GRID_SEEDS:
                trial = run_trial(task_id, seed, config)
                rows.append([mode, task_id, seed, trial.outcome.value,
                             trial.ticks_elapsed, trial.detail])
    assert len(rows) == 128
    assert sum(row[4] for row in rows) == EXPECTED_TICKS
    assert outcome_digest(rows) == EXPECTED_DIGEST

    # every ablation must change at least one cell against the full collective
    by_mode = {mode: {} for mode in MODES}
    for mode, task_id, seed, *cell in rows:
        by_mode[mode][task_id, seed] = cell
    for mode in MODES:
        if mode != "full":
            assert by_mode[mode] != by_mode["full"], mode
