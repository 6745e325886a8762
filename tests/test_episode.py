import json

import pytest

from brainstem.backends import ScriptedBackend
from brainstem.episode import (EpisodeConfig, EpisodeRuntime, Outcome, build_dbn,
                               run_trial)
from brainstem.errors import ConfigError, SchemaViolation
from brainstem.protocol import PayloadKind, decode_envelope, serialize_envelope
from brainstem.simenv import load_scenario


def test_full_mode_solves_physical_task():
    result = run_trial(1, seed=0)
    assert result.outcome is Outcome.SUCCESS
    assert result.ticks_elapsed > 0


def test_trials_deterministic_given_seed():
    a = run_trial(2, seed=3)
    b = run_trial(2, seed=3)
    assert (a.outcome, a.ticks_elapsed) == (b.outcome, b.ticks_elapsed)


def test_reactive_only_never_corrects_charger():
    for seed in (0, 1, 2):
        result = run_trial(4, seed, EpisodeConfig(mode="reactive_only"))
        assert result.outcome is Outcome.FAILURE


def test_full_mode_corrects_charger():
    for seed in (0, 1, 2):
        result = run_trial(4, seed)
        assert result.outcome is Outcome.SUCCESS


def test_deletion_aborts_within_one_deliberative_period():
    config = EpisodeConfig()
    result = run_trial(8, seed=0, config=config)
    assert result.outcome in (Outcome.HANDLED_ABORT, Outcome.SUCCESS)
    if result.outcome is Outcome.HANDLED_ABORT:
        assert result.ticks_elapsed <= 6000 + config.deliberative_period


def test_reactive_only_times_out_on_deletion():
    result = run_trial(8, seed=0, config=EpisodeConfig(mode="reactive_only"))
    assert result.outcome is Outcome.FAILURE


def test_ood_mission_runs_without_scripted_plan():
    scenario, world = load_scenario(5, 0)
    runtime = EpisodeRuntime(scenario, world)
    result = runtime.run()
    assert result.outcome in (Outcome.SUCCESS, Outcome.FAILURE)


@pytest.mark.parametrize("index, depends_on", [(1, ["ST9"]), (0, ["ST2"])],
                         ids=["dangling", "cyclic"])
def test_plan_with_broken_dependencies_rejected(index, depends_on):
    # a backend plan is outside input: its depends_on must name subtasks of
    # the plan and admit an execution order before the episode acts on it.
    # The scripted plan's ST2 depends on ST1, so ST1 -> ST2 closes a cycle.
    plan = json.loads(ScriptedBackend().complete("leader",
                                                 "find and fetch the apple"))
    plan["subtasks"][index]["depends_on"] = depends_on
    backend = ScriptedBackend({"leader": {"find and fetch the apple": plan}})
    with pytest.raises(SchemaViolation):
        run_trial(6, 0, backend=backend)


def test_occlusion_task_uses_viewpoint_path():
    result = run_trial(7, seed=1)
    assert result.outcome is Outcome.SUCCESS


def test_high_difficulty_mission_collaborates():
    scenario, world = load_scenario(6, 0)
    runtime = EpisodeRuntime(scenario, world)
    runtime.run()
    assert runtime.plan.difficulty == "high"
    assert runtime.collaborations >= 1


def test_unknown_mode_rejected():
    # a misspelt mode must not quietly run the full collective
    with pytest.raises(ConfigError):
        EpisodeConfig(mode="reactive-only")


def test_bus_audit_contains_decodable_envelopes():
    scenario, world = load_scenario(1, 0)
    runtime = EpisodeRuntime(scenario, world)
    runtime.run()
    published = [entry for entry in runtime.bus.audit_log()
                 if entry[0] == "publish"]
    assert published
    kinds = set()
    for _, _, envelope in published:
        decoded = decode_envelope(serialize_envelope(envelope))
        kinds.add(decoded.payload.kind)
    assert PayloadKind.SUBTASK_ASSIGN in kinds
    assert PayloadKind.ACTION_FEEDBACK in kinds


def test_build_dbn_rows_stochastic():
    import numpy as np
    scenario, _ = load_scenario(8, 0)
    params, index, states = build_dbn(scenario)
    assert "apple_missing" in index
    for action, matrix in params.transition.items():
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
    assert params.emission.shape == (len(states), len(states))


def test_trace_written_when_requested(tmp_path):
    path = tmp_path / "trace.tsv"
    config = EpisodeConfig(trace_path=str(path))
    # long enough for the deliberative loop to fire after its tick-0 round
    result = run_trial(4, seed=1, config=config)
    fires = {"memory": 0, "deliberative": 0}
    for line in path.read_text().splitlines():
        _, loop, event, _ = line.split("\t")
        if event == "fire":
            fires[loop] += 1
    assert result.ticks_elapsed >= config.deliberative_period
    assert fires == {
        "memory": result.ticks_elapsed // config.memory_period,
        "deliberative": result.ticks_elapsed // config.deliberative_period,
    }


def test_replan_verdict_never_met_with_silence():
    scenario, world = load_scenario(6, 0)
    runtime = EpisodeRuntime(scenario, world)
    runtime._deliberate(0)
    plans_before = runtime.replans
    runtime.replan_requested = True
    runtime._deliberative(1000)
    # a pending replan is answered with a fresh plan within one round
    assert runtime.replans == plans_before + 1
    assert runtime.plan is not None
    runtime.pending_abort = True
    runtime._deliberative(2000)
    assert runtime.done is Outcome.HANDLED_ABORT  # or an explicit abort
