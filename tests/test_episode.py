import json
import os
import pathlib
import subprocess
import sys

import pytest

from brainstem import episode
from brainstem.agents import (EMBED_DIM, HashEmbedder, InspectionVerdict,
                              inspect_alignment)
from brainstem.backends import LEADER_PLANS, ScriptedBackend
from brainstem.episode import (MODES, EpisodeConfig, EpisodeRuntime, Outcome,
                               run_trial)
from brainstem.errors import (BackendError, ConfigError, SchemaViolation,
                             UnknownTask)
from brainstem.pipeline import state_review
from brainstem.reactive import ReactiveController
from brainstem.protocol import (PayloadKind, decode_envelope,
                                serialize_envelope, tick_to_timestamp)
from brainstem.simenv import TASK_IDS, advance_clock, load_scenario
from support import (TOO_DEEP, UNKNOWN_COLLEAGUE, model_states,
                     reflection_asking)


def published_kinds(runtime) -> list:
    """The payload kind of each message the episode published, in order."""
    return [envelope.payload.kind
            for op, _, envelope in runtime.bus.audit_log() if op == "publish"]


def test_full_mode_solves_physical_task():
    result = run_trial(1, seed=0)
    assert result.outcome is Outcome.SUCCESS
    assert result.ticks_elapsed > 0


def test_trials_deterministic_given_seed():
    a = run_trial(2, seed=3)
    b = run_trial(2, seed=3)
    assert (a.outcome, a.ticks_elapsed) == (b.outcome, b.ticks_elapsed)


@pytest.mark.parametrize("task_id,seed", [(1, 0), (4, 5), (4, 6), (8, -2)])
def test_runtime_takes_the_trial_seed(task_id, seed):
    # the scenario carries no seed: the runtime's seed is the trial's, for
    # its draws and its result
    scenario, world = load_scenario(task_id, seed)
    result = EpisodeRuntime(scenario, world, seed).run()
    assert result == run_trial(task_id, seed)
    assert result.seed == seed


@pytest.mark.parametrize("task_id,seed,error", [
    (True, 0, UnknownTask), (1.0, 0, UnknownTask),
    (1, True, ConfigError), (1, 1.5, ConfigError),
], ids=["bool_task", "float_task", "bool_seed", "float_seed"])
def test_task_id_and_seed_must_be_ints(task_id, seed, error):
    # True == 1 and 1.0 == 1, so either would otherwise run task 1
    with pytest.raises(error, match="must be an int"):
        run_trial(task_id, seed)


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


@pytest.mark.parametrize("task_id", (4, 5, 8))
def test_reactive_only_skip_to_the_horizon_matches_ticking(task_id,
                                                           monkeypatch):
    # tasks 4, 5 and 8 reach a script action that can never succeed; with
    # can_change always True the trial retries it tick by tick to the horizon
    config = EpisodeConfig(mode="reactive_only")
    skipped = [run_trial(task_id, seed, config) for seed in range(8)]
    monkeypatch.setattr(episode, "can_change", lambda *args: True)
    ticked = [run_trial(task_id, seed, config) for seed in range(8)]
    assert skipped == ticked


def test_next_event_run_matches_ticking(tmp_path, monkeypatch):
    # waking only when something can happen must leave every trial, its
    # written trace and the controller's tick count as ticking does; one
    # step call covers ``ticks`` ticks
    counts = {"ticks": 0, "wakes": 0}
    step, reactive = ReactiveController.step, EpisodeRuntime._reactive

    def counted_step(controller, *inputs, ticks=1):
        counts["ticks"] += ticks
        return step(controller, *inputs, ticks=ticks)

    def counted_reactive(runtime, tick):
        counts["wakes"] += 1
        return reactive(runtime, tick)

    monkeypatch.setattr(ReactiveController, "step", counted_step)
    monkeypatch.setattr(EpisodeRuntime, "_reactive", counted_reactive)
    path = tmp_path / "trace.tsv"

    def grid():
        cells, wakes = [], 0
        for mode in MODES:
            config = EpisodeConfig(mode=mode, trace_path=str(path))
            for task_id in range(1, 9):
                for seed in range(8):
                    counts["ticks"] = counts["wakes"] = 0
                    result = run_trial(task_id, seed, config)
                    cells.append((result, path.read_bytes(), counts["ticks"]))
                    wakes += counts["wakes"]
        return cells, wakes

    next_event, wakes = grid()
    monkeypatch.setattr(EpisodeRuntime, "_next_wake",
                        lambda runtime, tick: tick + 1)
    ticked, tick_wakes = grid()
    assert next_event == ticked
    assert wakes * 20 < tick_wakes


def test_next_wake_is_the_earliest_thing_that_can_happen():
    scenario, world = load_scenario(8, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
    assert runtime._next_wake(10) == 11  # idle: the next action starts
    runtime.current_action, runtime.action_done_at = "explore room", 500
    assert runtime._next_wake(10) == 500
    runtime.current_action, runtime.pending_abort = None, True
    assert runtime._next_wake(10) == scenario.timeout_ticks


def test_reactive_only_dead_script_advances_the_clock_at_most_twice(
        monkeypatch):
    # task 4's script plugs port_1, which never takes the charger
    calls = []

    def counted(scenario, world, to_tick):
        calls.append(to_tick)
        return advance_clock(scenario, world, to_tick)

    monkeypatch.setattr(episode, "advance_clock", counted)
    result = run_trial(4, 0, EpisodeConfig(mode="reactive_only"))
    assert (result.outcome, result.ticks_elapsed, result.detail) == \
        (Outcome.FAILURE, 6000, "timeout")
    assert len(calls) <= 2


def test_ood_mission_runs_without_scripted_plan():
    scenario, world = load_scenario(5, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
    result = runtime.run()
    assert result.outcome in (Outcome.SUCCESS, Outcome.FAILURE)


def test_every_mission_but_the_ood_one_has_a_scripted_plan():
    # a mission missing from the table falls back to the generic plan
    # without error and moves no outcome cell, so only this catches it;
    # task 5 is the out-of-distribution mission that must fall back
    unscripted = [task_id for task_id in TASK_IDS
                  if load_scenario(task_id, 0)[0].mission not in LEADER_PLANS]
    assert unscripted == [5]


class ReplyingBackend(ScriptedBackend):
    """Replies ``reply`` to every call for ``role``."""

    def __init__(self, role, reply):
        super().__init__()
        self.role, self.reply = role, reply

    def complete(self, role, key):
        if role == self.role:
            return self.reply
        return super().complete(role, key)


@pytest.mark.parametrize("index, depends_on, problem", [
    (1, ["ST9"], "ST2 depends on 'ST9', which is not a subtask in this plan"),
    (0, ["ST2"], "dependency cycle through ['ST1', 'ST2']"),
], ids=["dangling", "cyclic"])
def test_plan_with_broken_dependencies_rejected(index, depends_on, problem):
    # a backend plan is outside input: its depends_on must name subtasks of
    # the plan and admit an execution order before the episode acts on it.
    # The scripted plan's ST2 depends on ST1, so ST1 -> ST2 closes a cycle.
    plan = json.loads(ScriptedBackend().complete("leader",
                                                 "find and fetch the apple"))
    plan["subtasks"][index]["depends_on"] = depends_on
    result = run_trial(6, 0, backend=ReplyingBackend("leader",
                                                     json.dumps(plan)))
    assert (result.outcome, result.ticks_elapsed, result.detail) == \
        (Outcome.HANDLED_ABORT, 0,
         f"malformed reply: subtasks.depends_on: {problem}")


class FailingBackend(ScriptedBackend):
    """Raises BackendError on the ``fail_on``-th call for ``role``."""

    def __init__(self, role, fail_on=1):
        super().__init__()
        self.role, self.fail_on, self.calls = role, fail_on, 0

    def complete(self, role, key):
        if role == self.role:
            self.calls += 1
            if self.calls == self.fail_on:
                raise BackendError(f"{role} unreachable")
        return super().complete(role, key)


@pytest.mark.parametrize("task_id, role", [(1, "leader"), (6, "worker")])
def test_backend_error_ends_trial_as_handled_abort(task_id, role):
    # task 6's plan is high difficulty, so its first plan asks the workers
    result = run_trial(task_id, 0, backend=FailingBackend(role))
    assert (result.outcome, result.ticks_elapsed, result.detail) == \
        (Outcome.HANDLED_ABORT, 0, f"backend: {role} unreachable")


def test_backend_error_on_replan_keeps_its_tick():
    # task 8's deletion requests a second plan at a deliberative boundary
    config = EpisodeConfig()
    result = run_trial(8, 0, config, FailingBackend("leader", fail_on=2))
    assert result.outcome is Outcome.HANDLED_ABORT
    assert result.detail == "backend: leader unreachable"
    assert result.ticks_elapsed > 0
    assert result.ticks_elapsed % config.deliberative_period == 0


# JSON values that are not objects, so no contract can accept them
NON_OBJECTS = {"int": "5", "null": "null", "true": "true", "string": '"text"',
               "list": "[1, 2]", "empty_list": "[]"}

# registered agents that are not workers
NON_WORKERS = ("Leader_1", "Inspector_1", "Planner_1")

# (task, role, document) of a reply each role gives at tick 0: task 6's
# scripted reflection asks a provider
FIRST_REPLIES = [(1, "leader", "plan"), (6, "worker", "decision"),
                 (6, "provider", "response")]


def task1_plan_for(agent_id):
    """Task 1's scripted plan with its one subtask assigned to ``agent_id``."""
    plan = json.loads(ScriptedBackend().complete(
        "leader", load_scenario(1, 0)[0].mission))
    plan["subtasks"][0]["assigned_worker"] = agent_id
    return json.dumps(plan)


@pytest.mark.parametrize("task_id, role, reply, detail", [
    (1, "leader", "{not json",
     "malformed reply: plan: malformed JSON ("),
    (6, "worker", UNKNOWN_COLLEAGUE,
     "malformed reply: 'Worker_9' is not an active registered worker"),
    *[(1, "leader", reply, "malformed reply: plan: expected a document")
      for reply in NON_OBJECTS.values()],
    *[(6, "worker", reply, "malformed reply: decision: expected a document")
      for reply in NON_OBJECTS.values()],
    *[(6, "provider", reply, "malformed reply: response: expected a document")
      for reply in NON_OBJECTS.values()],
    *[(1, "leader", task1_plan_for(agent_id),
       f"malformed reply: '{agent_id}' is not an active registered worker")
      for agent_id in NON_WORKERS],
    *[(6, "worker", reflection_asking(agent_id),
       f"malformed reply: '{agent_id}' is not an active registered worker")
      for agent_id in NON_WORKERS],
    *[(task_id, role, TOO_DEEP,
       f"malformed reply: {what}: malformed JSON (")
      for task_id, role, what in FIRST_REPLIES],
], ids=["not_json", "unknown_worker",
        *[f"leader_{name}" for name in NON_OBJECTS],
        *[f"worker_{name}" for name in NON_OBJECTS],
        *[f"provider_{name}" for name in NON_OBJECTS],
        *[f"plan_assigns_{agent_id}" for agent_id in NON_WORKERS],
        *[f"reflection_asks_{agent_id}" for agent_id in NON_WORKERS],
        *[f"{role}_too_deep" for _, role, _ in FIRST_REPLIES]])
def test_malformed_reply_ends_trial_as_handled_abort(task_id, role, reply,
                                                    detail):
    # task 6's plan is high difficulty, so its first plan asks the workers
    result = run_trial(task_id, 0, backend=ReplyingBackend(role, reply))
    assert (result.outcome, result.ticks_elapsed) == (Outcome.HANDLED_ABORT, 0)
    assert result.detail.startswith(detail)


@pytest.mark.parametrize("task_id, agent_id", [(1, "Worker_3"),
                                               (6, "Worker_1")],
                         ids=["plan", "reflection"])
def test_failed_worker_ends_trial_as_handled_abort(task_id, agent_id):
    # task 1's scripted plan assigns its one subtask to Worker_3; task 6's
    # scripted reflection asks Worker_1 for help
    scenario, world = load_scenario(task_id, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
    runtime.registry.mark_failed(agent_id)
    result = runtime.run()
    assert (result.outcome, result.ticks_elapsed, result.detail) == \
        (Outcome.HANDLED_ABORT, 0,
         f"malformed reply: '{agent_id}' is not an active registered worker")
    assert runtime.bus.audit_log() == []


def test_episode_own_schema_violation_still_raises(monkeypatch):
    # only replies are caught: a fault in the episode's own messages is a bug
    def make_envelope(*args):
        raise SchemaViolation("envelope")

    monkeypatch.setattr(episode, "make_envelope", make_envelope)
    with pytest.raises(SchemaViolation, match="envelope"):
        run_trial(1, 0)


def test_trials_load_no_numpy_random():
    # the unread controller gets zeros, so no trial embeds an action and
    # numpy's lazily loaded random module stays out of the process
    code = ("import sys\n"
            "from brainstem.episode import EpisodeConfig\n"
            "from brainstem.harness import run_trial\n"
            "run_trial(1, 0)\n"
            "run_trial(1, 0, EpisodeConfig(mode='reactive_only'))\n"
            "print('numpy.random' in sys.modules)\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_occlusion_task_uses_viewpoint_path():
    result = run_trial(7, seed=1)
    assert result.outcome is Outcome.SUCCESS


def test_high_difficulty_mission_collaborates():
    scenario, world = load_scenario(6, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
    runtime.run()
    assert runtime.plan["difficulty"] == "high"
    assert PayloadKind.AGENT_RESPONSE in published_kinds(runtime)


@pytest.mark.parametrize("setting, value", [
    ("mode", "reactive-only"),
    ("memory_period", 0),
    ("deliberative_period", 0),
    ("memory_period", 2.5),
    ("memory_period", True),
], ids=["mode", "memory_period", "deliberative_period", "float_period",
        "bool_period"])
def test_unknown_mode_rejected(setting, value):
    # a misspelt mode must not quietly run the full collective, and a bad
    # period is refused before a trial plans
    with pytest.raises(ConfigError):
        EpisodeConfig(**{setting: value})


def test_bus_audit_contains_decodable_envelopes():
    scenario, world = load_scenario(1, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
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


def test_bus_carries_one_message_per_event(monkeypatch):
    # task 8 plans twice (the deletion's drift requests a replan) and its
    # high-difficulty plan asks a provider for help each time
    resolve_action, finished = episode.resolve_action, []

    def resolve(*args):
        finished.append(resolve_action(*args))
        return finished[-1]

    monkeypatch.setattr(episode, "resolve_action", resolve)
    scenario, world = load_scenario(8, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
    runtime.run()
    audit = runtime.bus.audit_log()
    assert [op for op, _, _ in audit] == ["publish"] * len(audit)
    kinds = published_kinds(runtime)
    assert set(kinds) == {PayloadKind.SUBTASK_ASSIGN, PayloadKind.AGENT_RESPONSE,
                          PayloadKind.ACTION_FEEDBACK}
    assert kinds.count(PayloadKind.SUBTASK_ASSIGN) == 2
    assert kinds.count(PayloadKind.AGENT_RESPONSE) == 2
    feedback = [envelope for _, _, envelope in audit
                if envelope.payload.kind is PayloadKind.ACTION_FEEDBACK]
    assert [e.payload.body for e in feedback] == finished
    # each message is stamped at the tick its event happened
    assert [e.header.timestamp for e in feedback] == \
        [tick_to_timestamp(body["tick"]) for body in finished]
    assert len(audit) == 2 + 2 + len(finished)


def test_no_bus_message_waits_for_a_reader():
    # no agent pulls the bus in an episode, so none subscribes and nothing
    # queues; every publish still reaches the audit log
    scenario, world = load_scenario(8, 0)
    runtime = EpisodeRuntime(scenario, world, 0)
    publish, published = runtime.bus.publish, []

    def record(envelope):
        published.append(envelope.log_id)
        publish(envelope)

    runtime.bus.publish = record
    runtime.run()
    agents = runtime.registry.active_agents()
    assert len(agents) == 8 and published
    assert {a.agent_id: runtime.bus.pending_count(a.agent_id)
            for a in agents} == {a.agent_id: 0 for a in agents}
    assert [log_id for _, log_id, _ in runtime.bus.audit_log()] == published


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
    runtime = EpisodeRuntime(scenario, world, 0)
    runtime._deliberate(0)
    plans_before = published_kinds(runtime).count(PayloadKind.SUBTASK_ASSIGN)
    runtime.replan_requested = True
    runtime._deliberate(1000)
    # a pending replan is answered with a fresh plan within one round
    assert published_kinds(runtime).count(PayloadKind.SUBTASK_ASSIGN) == \
        plans_before + 1
    assert runtime.plan is not None
    runtime.pending_abort = True
    runtime._deliberate(2000)
    assert runtime.done is Outcome.HANDLED_ABORT  # or an explicit abort


def test_state_review_alone_catches_every_symbol_change():
    # the episode's one replan check is state review; the inspector's
    # max-abs check must never see a change between two model states that
    # state review misses, or it would have to come back
    embedder = HashEmbedder(EMBED_DIM, "symbol")
    for task_id in TASK_IDS:
        scenario, _ = load_scenario(task_id, 0)
        states = model_states(scenario.model)
        for before in states:
            assert state_review(before, before) is False
            for after in states:
                if before == after:
                    continue
                assert state_review(before, after) is True
                assert inspect_alignment(embedder.embed(before),
                                         embedder.embed(after))[1] \
                    is InspectionVerdict.REPLAN
