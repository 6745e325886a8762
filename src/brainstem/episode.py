"""Full-stack trial execution: every subsystem wired into one seeded episode.

A trial is (task, seed): the seed picks the start world's seeded mark
(``simenv.load_scenario``) and seeds the draws of action durations and results.

One episode runs a benchmark scenario through the registry, bus, role-playing
agents, tree-search action selection, state review, and the per-tick reactive
controller, all on the virtual-clock scheduler; no trial waits on wall time,
and ``ticks_elapsed`` is virtual time alone. Two agent configurations exist
(see ``MODES``): the full collective and a reactive-only ablation (a slowed
fixed action script, and only the reactive loop).

The script repeats each action until it succeeds. Once the action can no
longer change the world (``simenv.can_change``: no scheduled event is due,
and its precondition fails or it cannot succeed), no later tick can change
the outcome, so the trial moves the clock to its horizon and ends there as
the timeout that ticking would reach. Tasks 4 (``port_1`` never takes the
charger), 5 (the book is never located) and 8 (the deletion takes the apple)
end this way; a trace written for such a trial stops where it skipped.

The tree-search selector over the scenario's transition model (derived from its
world rules plus the task's stated beliefs) picks every action the full
collective takes, and aborts at a dead end. With the world's scheduled events
and stochastic action results, that decides a trial's outcome. The model also
defines success: a trial succeeds once the world's symbol is one of its goal
states (``simenv.check_success``). Each reader of that symbol computes it from
the world when it needs it. State review (memory rate, the one drift check)
compares it with the symbol the last plan or success was made against, and
requests a replan when they differ. The leader plan, worker collaboration and
those replans all run, but change no cell of the seeded grid: the only drift
comes from a scheduled event (task 8's deletion), after which the symbol is the
dead end ``apple_missing`` and the selector aborts. A replan request is the
flag ``replan_requested``, not a message. The bus carries one message per
event: each plan (``SubtaskAssign``), each provider response
(``AgentResponse``) and each finished action (``ActionFeedback``). No agent
reads it, so none subscribes and no message waits in a queue; its audit log is
the episode's record of them.

A backend error while planning ends the trial as ``HandledAbort`` at that
tick, detail ``backend: <message>`` (a remote reply that breaks HTTP counts
as one). So does a malformed reply, detail ``malformed reply: <message>``: any
``SchemaViolation`` from a plan, a worker's reflection, a provider response
or the registry's roster check (``AgentRegistry.check_worker``), which
accepts only an active registered worker for each subtask a plan assigns and
each colleague a reflection asks. A reply nested too deeply to parse is
malformed JSON. The episode's own errors, such as ``make_envelope``'s, still
raise.

The reactive controller still runs on every simulated tick, with zeros for
every input, although no decision reads its output. It is over nine tenths of
an episode's time (a pass of the traced grids takes 1.07-1.10 s with it and
0.060-0.061 s without, ~18x), and it stays until ``perfbench``'s traced runs
are bounded by a round count rather than by summed seconds (ROADMAP item
1a): with the call deleted, ``perfbench/run.py --trace 1 --seconds 50`` took
243-244 s over 768-836 untraced rounds on ``grid_full`` and 284-298 s over
943-1,055 rounds on ``grid_reactive_only`` (two runs each, one 2-vCPU host),
against about a minute with it. The Bayes filter, the HTN DAG, the latent
relay, the episodic memory with its broadcast, multimodal fusion and the
inspector's drift check are library units (``estimator.forward_filter``,
``planner.build_htn_dag``, ``pipeline.relay_update``,
``memory.memory_update``, ``agents.fuse_observations``,
``agents.inspect_alignment``) that the episode does not call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .agents import EMBED_DIM, plan_mission, provider_execute, worker_reflect
from .backends import ScriptedBackend
from .bus import MessageBus
from .errors import BackendError, ConfigError, EmptyActionSet, SchemaViolation
from .pipeline import RateConfig, run_scheduler, state_review
from .planner import generate_state_tree, select_action
from .protocol import (Importance, LogIdAllocator, MessageHeader, Payload,
                       PayloadKind, make_envelope, tick_to_timestamp)
from .reactive import ReactiveController, ReactiveGains
from .registry import AgentDescriptor, AgentRegistry, Role
from .simenv import (REACTIVE_SLOWDOWN, ScenarioSpec, WorldState,
                     advance_clock, can_change, check_success,
                     load_scenario, resolve_action, sample_duration)

MODES = ("full", "reactive_only")

# depth-2 lookahead: declared models grade goal distance via proximity,
# and the additive score backup rewards long detours at higher depths
TREE_DEPTH = 2

WORKER_EXPERTISE = {
    "Worker_1": ("perception", "object detection", "data validation"),
    "Worker_2": ("exploration", "navigation", "mapping"),
    "Worker_3": ("grasping", "manipulation", "fine manipulation"),
    "Worker_4": ("scene understanding", "viewpoints", "occlusion"),
    "Worker_5": ("delivery", "logistics", "timing"),
}


class Outcome(str, Enum):
    SUCCESS = "Success"
    FAILURE = "Failure"
    HANDLED_ABORT = "HandledAbort"


@dataclass(frozen=True)
class TrialResult:
    task_id: int
    seed: int
    outcome: Outcome
    ticks_elapsed: int
    trace_path: Optional[str] = None
    detail: str = ""


def require_positive_ints(config, names) -> None:
    """Raise ConfigError unless each named field of ``config`` is an int >= 1."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int or value < 1:
            raise ConfigError(f"{name} must be an int >= 1, got {value!r}")


@dataclass
class EpisodeConfig:
    mode: str = "full"                # one of MODES
    memory_period: int = 100          # 1 virtual second
    deliberative_period: int = 1000   # 10 virtual seconds
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        require_positive_ints(self, ("memory_period", "deliberative_period"))

    def rates(self) -> RateConfig:
        return RateConfig(self.memory_period, self.deliberative_period)


class EpisodeRuntime:
    """Owns one trial's state; drive with run()."""

    def __init__(self, scenario: ScenarioSpec, world: WorldState, seed: int,
                 config: Optional[EpisodeConfig] = None, backend=None):
        self.scenario = scenario
        self.world = world
        self.seed = seed
        self.config = config or EpisodeConfig()
        self.backend = backend or ScriptedBackend()
        self.rng = random.Random((seed * 7919 + scenario.task_id) & 0xFFFFFFFF)

        self.allocator = LogIdAllocator()
        self.registry = AgentRegistry()
        self.bus = MessageBus(is_registered=self.registry.is_registered)
        self.registry.register_agent(AgentDescriptor("Leader_1", Role.LEADER))
        self.registry.register_agent(AgentDescriptor("Inspector_1", Role.INSPECTOR))
        self.registry.register_agent(AgentDescriptor("Planner_1", Role.PLANNER))
        for worker, expertise in WORKER_EXPERTISE.items():
            self.registry.register_agent(
                AgentDescriptor(worker, Role.WORKER, expertise))

        # no decision reads the controller's output, so every input is zeros
        self.zeros = np.zeros(EMBED_DIM)
        self.controller = ReactiveController(
            EMBED_DIM, ReactiveGains(zeta=0.5, sigma=0.3, kp=0.6, kd=0.1),
            policy=lambda s, a, l: 0.2 * a)

        self.plan = None
        self.current_action: Optional[str] = None
        self.action_done_at = 0
        self.excluded: set = set()
        self.replan_requested = False
        self.pending_abort = False
        self.done: Optional[Outcome] = None
        self.detail = ""
        self.script_index = 0

        # the symbol state review compares the world's against: the last
        # plan's or successful action's
        self.tracked_symbol = scenario.symbol_of(world)

        # reactive_only: a slowed fixed script, no memory or deliberative loop
        self.reactive_only = self.config.mode == "reactive_only"
        self.slowdown = REACTIVE_SLOWDOWN if self.reactive_only else 1.0
        self._next_action = (self._scripted_next if self.reactive_only
                             else self._select_next_action)

    # -- planning ------------------------------------------------------------

    def _deliberate(self, tick: int) -> None:
        if self.done is not None:
            return
        if self.pending_abort:
            self.done = Outcome.HANDLED_ABORT
            self.detail = "no viable plan after world change"
            return
        if self.plan is None or self.replan_requested:
            try:
                messages = self._consult()
            except BackendError as exc:  # raised after the backend's retries
                self.done = Outcome.HANDLED_ABORT
                self.detail = f"backend: {exc}"
                return
            except SchemaViolation as exc:
                self.done = Outcome.HANDLED_ABORT
                self.detail = f"malformed reply: {exc}"
                return
            for message in messages:
                self._publish(*message)
            self.excluded = set()
            self.tracked_symbol = self.scenario.symbol_of(self.world)
            self.replan_requested = False

    def _consult(self) -> list:
        """Ask the backend for a plan and for the provider responses its
        workers request; returns the (kind, body, sender) of each message.

        Raises on a backend error or a malformed reply, before any publish.
        """
        self.plan = plan_mission(self.scenario.mission, self.backend)
        self.registry.validate_assignment(self.plan)
        messages = [(PayloadKind.SUBTASK_ASSIGN, self.plan, "Leader_1")]
        if self.plan["difficulty"] != "high":
            return messages
        for subtask in self.plan["subtasks"]:
            # the contract leaves requirement empty unless collaboration
            # is required
            decision = worker_reflect(subtask, self.registry, self.backend)
            for request in decision["requirement"]:
                messages.append((PayloadKind.AGENT_RESPONSE,
                                 provider_execute(request, self.backend),
                                 request["worker_id"]))
        return messages

    def _publish(self, kind: PayloadKind, body: dict, sender: str) -> None:
        # one message per event, stamped with the world tick
        header = MessageHeader(tick_to_timestamp(self.world.tick), sender,
                               Importance.MEDIUM)
        self.bus.publish(make_envelope(header, Payload(kind, body),
                                       self.allocator))

    # -- action selection ---------------------------------------------------------

    def _select_next_action(self) -> None:
        symbol = self.scenario.symbol_of(self.world)
        transitions = self.scenario.model.transitions.get(symbol, ())
        if not transitions:
            # dead end that is not a goal: ask the deliberative loop to abort
            self.pending_abort = True
            return
        if all(t[0] in self.excluded for t in transitions):
            self.excluded = set()  # exhausted every alternative: start over
        vocab = self.scenario.action_vocab
        try:
            tree = generate_state_tree(
                self.scenario.mission, symbol, vocab,
                model=self.scenario.model, max_depth=TREE_DEPTH,
                exclude_actions=self.excluded)
            choice = select_action(tree, vocab)
        except EmptyActionSet:
            self.pending_abort = True
            return
        self._begin(choice.selected_action)

    def _begin(self, action: str) -> None:
        duration = sample_duration(self.scenario.rules[action], self.rng,
                                   self.slowdown)
        self.current_action = action
        self.action_done_at = self.world.tick + duration

    def _finish_action(self) -> None:
        action = self.current_action
        feedback = resolve_action(self.scenario, self.world, action, self.rng)
        self.current_action = None
        self._publish(PayloadKind.ACTION_FEEDBACK, feedback, "Worker_3")
        # each mode reads only its own: the script index or the excluded set
        if feedback["success"]:
            self.tracked_symbol = self.scenario.symbol_of(self.world)
            self.script_index += 1  # fixed script: advance only on success
            self.excluded.clear()  # progress: failed actions back in play
        else:
            self.excluded.add(action)
        if check_success(self.scenario, self.world):
            self.done = Outcome.SUCCESS

    # -- scheduler hooks ---------------------------------------------------------

    def _reactive(self, tick: int) -> None:
        if self.done is not None:
            return
        advance_clock(self.scenario, self.world, tick)
        if self.current_action is not None and tick >= self.action_done_at:
            self._finish_action()
        if self.done is not None:
            return
        if self.current_action is None and not self.pending_abort:
            self._next_action()
        self.controller.step(self.zeros, self.zeros, self.zeros, self.zeros)

    def _scripted_next(self) -> None:
        script = self.scenario.reactive_script
        if not script:
            return
        action = script[min(self.script_index, len(script) - 1)]
        if not can_change(self.scenario, self.world, action):
            # the script repeats an action until it succeeds, and this one
            # never will: end where ticking to the horizon would, timed out
            advance_clock(self.scenario, self.world,
                          self.scenario.timeout_ticks)
            self.done = Outcome.FAILURE
            return
        self._begin(action)

    def _memory_step(self, tick: int) -> None:
        if self.done is not None:
            return
        if state_review(self.tracked_symbol,
                        self.scenario.symbol_of(self.world)):
            self.replan_requested = True

    # -- main loop -------------------------------------------------------------

    def run(self) -> TrialResult:
        slow_loops = not self.reactive_only
        if slow_loops:
            self._deliberate(0)
        trace = run_scheduler(
            self.config.rates(), self.scenario.timeout_ticks,
            on_reactive=self._reactive,
            on_memory=self._memory_step if slow_loops else None,
            on_deliberative=self._deliberate if slow_loops else None,
            trace_reactive=False,
            stop=lambda tick: self.done is not None)
        if self.config.trace_path:
            trace.write(self.config.trace_path)
        outcome = self.done if self.done is not None else Outcome.FAILURE
        if outcome is Outcome.FAILURE:
            self.detail = self.detail or "timeout"
        return TrialResult(self.scenario.task_id, self.seed, outcome,
                           self.world.tick, self.config.trace_path, self.detail)


def run_trial(task_id: int, seed: int, config: Optional[EpisodeConfig] = None,
              backend=None) -> TrialResult:
    scenario, world = load_scenario(task_id, seed)
    runtime = EpisodeRuntime(scenario, world, seed, config, backend)
    return runtime.run()
