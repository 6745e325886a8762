"""Full-stack trial execution: every subsystem wired into one seeded episode.

One episode runs a benchmark scenario through the registry, bus, role-playing
agents, tree-search action selection, Bayes filter, state review, and the
per-tick reactive controller, all on the virtual-clock scheduler. Two agent
configurations exist (see ``MODES``): the full collective and a
reactive-only ablation (fixed action script, no planning, no correction).

The tree-search selector over the scenario's declared transition model picks
every action the full collective takes, and aborts at a dead end. With the
world's scheduled events and stochastic action results, that decides a
trial's outcome. The leader plan, worker collaboration, and the replans that
state review (memory rate) and the inspector (deliberative rate) request on
symbol drift all run, but change no cell of the seeded grid: the only drift
comes from a scheduled event (task 8's deletion), after which the symbol is
the dead end ``apple_missing`` and the selector aborts. The reactive
controller and the Bayes filter that gives it its error term run on their
loops, but no decision reads what they compute. The HTN DAG, the latent
relay, the episodic memory with its broadcast, and multimodal fusion are
library units (``planner.build_htn_dag``, ``pipeline.relay_update``,
``memory.memory_update``, ``agents.fuse_observations``) that the episode does
not call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .agents import (EMBED_DIM, HashEmbedder, InspectionVerdict,
                     inspect_alignment, plan_mission, provider_execute,
                     worker_reflect)
from .backends import ScriptedBackend
from .bus import MessageBus
from .errors import ConfigError, EmptyActionSet
from .estimator import BeliefState, DbnParams, forward_filter, predict_state
from .pipeline import RateConfig, ReviewDecision, run_scheduler, state_review
from .planner import generate_state_tree, select_action
from .protocol import (Importance, LogIdAllocator, MessageHeader, Payload,
                       PayloadKind, make_envelope, tick_to_timestamp)
from .reactive import ReactiveController, ReactiveGains
from .registry import AgentDescriptor, AgentRegistry, Role
from .simenv import (ScenarioSpec, WorldState, advance_clock, check_success,
                     observe, resolve_action, sample_duration)

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


@dataclass
class EpisodeConfig:
    mode: str = "full"                # one of MODES
    memory_period: int = 100          # 1 virtual second
    deliberative_period: int = 1000   # 10 virtual seconds
    trace_path: Optional[str] = None
    seconds_per_tick: Optional[float] = None  # bind the virtual clock to wall time

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def rates(self) -> RateConfig:
        return RateConfig(self.memory_period, self.deliberative_period)


def build_dbn(scenario: ScenarioSpec, smoothing: float = 0.95):
    """Action-conditioned transition/emission matrices from the declared model."""
    states = scenario.observation_alphabet()
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    actions = list(scenario.action_vocab) + ["noop"]
    transition = {}
    for action in actions:
        matrix = np.eye(n)
        for state, outs in scenario.model.transitions.items():
            rows = [(p, nxt) for (act, p, nxt) in outs if act == action]
            if rows:
                matrix[index[state]] = 0.0
                for p, nxt in rows:
                    matrix[index[state], index[nxt]] += p
                matrix[index[state]] /= matrix[index[state]].sum()
        transition[action] = matrix
    if n > 1:
        emission = np.full((n, n), (1.0 - smoothing) / (n - 1))
        np.fill_diagonal(emission, smoothing)
    else:
        emission = np.ones((1, 1))
    return DbnParams(transition=transition, emission=emission), index, states


class EpisodeRuntime:
    """Owns one trial's state; drive with run()."""

    def __init__(self, scenario: ScenarioSpec, world: WorldState,
                 config: Optional[EpisodeConfig] = None, backend=None):
        self.scenario = scenario
        self.world = world
        self.config = config or EpisodeConfig()
        self.backend = backend or ScriptedBackend()
        self.rng = random.Random((scenario.seed * 7919 + scenario.task_id) & 0xFFFFFFFF)

        self.allocator = LogIdAllocator()
        self.registry = AgentRegistry()
        self.bus = MessageBus(is_registered=self.registry.is_registered,
                              clock=lambda: self.world.tick)
        self.registry.bind_bus(self.bus)
        self.registry.register_agent(AgentDescriptor("Leader_1", Role.LEADER))
        self.registry.register_agent(AgentDescriptor("Inspector_1", Role.INSPECTOR))
        self.registry.register_agent(AgentDescriptor("Planner_1", Role.PLANNER))
        for worker, expertise in WORKER_EXPERTISE.items():
            self.registry.register_agent(
                AgentDescriptor(worker, Role.WORKER, expertise))

        self.symbol_embedder = HashEmbedder(EMBED_DIM, "symbol")
        self.action_embedder = HashEmbedder(EMBED_DIM, "action")
        self.params, self.state_index, self.state_labels = build_dbn(scenario)
        self.phase_embeddings = np.stack(
            [self.symbol_embedder.embed(s) for s in self.state_labels])
        self.belief = BeliefState.uniform(len(self.state_labels))

        # the policy ignores the latent l_t, so the controller gets zeros
        self.latent = np.zeros(EMBED_DIM)
        self.controller = ReactiveController(
            EMBED_DIM, ReactiveGains(zeta=0.5, sigma=0.3, kp=0.6, kd=0.1),
            policy=lambda s, a, l: 0.2 * a)

        self.plan = None
        self.error = np.zeros(EMBED_DIM)
        self.tracked_symbol = scenario.symbol_of(world)

        self.current_action: Optional[str] = None
        self.action_done_at = 0
        self.excluded: set = set()
        self.replan_requested = False
        self.pending_abort = False
        self.done: Optional[Outcome] = None
        self.detail = ""
        self.collaborations = 0
        self.replans = 0
        self.script_index = 0

        self._cached_action_vec = np.zeros(EMBED_DIM)
        self._cached_state_vec = self.symbol_embedder.embed(self.tracked_symbol)

    # -- planning ------------------------------------------------------------

    def _deliberate(self, tick: int) -> None:
        if self.done is not None:
            return
        for agent in ("Leader_1", "Inspector_1", "Planner_1"):
            while self.bus.next_message(agent) is not None:
                pass
        if self.pending_abort:
            self.done = Outcome.HANDLED_ABORT
            self.detail = "no viable plan after world change"
            return
        obs = observe(self.scenario, self.world)
        _, verdict = inspect_alignment(
            self.symbol_embedder.embed(self.tracked_symbol),
            self.symbol_embedder.embed(obs.symbol))
        if verdict is InspectionVerdict.REPLAN:
            self.replan_requested = True

        if self.plan is None or self.replan_requested:
            self._make_plan(tick)
            self.replan_requested = False
        self.tracked_symbol = obs.symbol

    def _make_plan(self, tick: int) -> None:
        self.replans += 1
        self.plan = plan_mission(self.scenario.mission, self.backend)
        self.registry.validate_assignment(self.plan.to_doc())
        self._publish(PayloadKind.SUBTASK_ASSIGN, self.plan.to_doc(),
                      "Leader_1", Importance.MEDIUM, tick)
        if self.plan.difficulty == "high":
            self._collaborate(tick)
        self.excluded = set()

    def _collaborate(self, tick: int) -> None:
        colleagues = {w: list(e) for w, e in WORKER_EXPERTISE.items()}
        for subtask in self.plan.subtasks:
            decision = worker_reflect(subtask, colleagues, self.backend)
            if not decision.collaboration_required:
                continue
            for request in decision.requirement:
                response = provider_execute(request, self.backend)
                self.collaborations += 1
                self._publish(PayloadKind.AGENT_RESPONSE,
                              {"response": response.response},
                              request["worker_id"], Importance.MEDIUM, tick)

    def _publish(self, kind: PayloadKind, body: dict, sender: str,
                 importance: Importance, tick: int) -> None:
        header = MessageHeader(tick_to_timestamp(tick), sender, importance)
        self.bus.publish(make_envelope(header, Payload(kind, body),
                                       self.allocator))

    # -- action selection ---------------------------------------------------------

    def _select_next_action(self) -> None:
        symbol = self.scenario.symbol_of(self.world)
        available = [a for a in self.scenario.action_vocab]
        transitions = self.scenario.model.transitions.get(symbol, ())
        if not transitions:
            # dead end that is not a goal: ask the deliberative loop to abort
            self.pending_abort = True
            return
        usable = [t for t in transitions if t[0] not in self.excluded]
        if not usable:
            self.excluded = set()  # exhausted every alternative: start over
        try:
            tree = generate_state_tree(
                self.scenario.mission, symbol, available,
                model=self.scenario.model, max_depth=TREE_DEPTH,
                exclude_actions=self.excluded)
            choice = select_action(tree, available)
        except EmptyActionSet:
            self.pending_abort = True
            return
        self._begin(choice.selected_action)

    def _begin(self, action: str) -> None:
        rule = self.scenario.rules[action]
        slowdown = (self.scenario.reactive_slowdown
                    if self.config.mode == "reactive_only" else 1.0)
        duration = sample_duration(rule, self.rng, slowdown)
        self.current_action = action
        self.action_done_at = self.world.tick + duration
        self._cached_action_vec = self.action_embedder.embed(action)

    def _finish_action(self, tick: int) -> None:
        action = self.current_action
        feedback = resolve_action(self.scenario, self.world, action, self.rng)
        self.current_action = None
        self._publish(PayloadKind.ACTION_FEEDBACK, feedback, "Worker_3",
                      Importance.MEDIUM, tick)
        if feedback["success"]:
            self._cached_state_vec = self.symbol_embedder.embed(
                self.scenario.symbol_of(self.world))
            self.tracked_symbol = self.scenario.symbol_of(self.world)
            if self.config.mode == "reactive_only":
                self.script_index += 1  # fixed script: advance only on success
            else:
                self.excluded.clear()  # progress: failed actions back in play
        elif self.config.mode != "reactive_only":
            self.excluded.add(action)
        if check_success(self.world, self.scenario.goal):
            self.done = Outcome.SUCCESS

    # -- scheduler hooks ---------------------------------------------------------

    def _reactive(self, tick: int) -> None:
        if self.done is not None:
            return
        fired = advance_clock(self.scenario, self.world, tick)
        if fired:
            self._cached_state_vec = self.symbol_embedder.embed(
                self.scenario.symbol_of(self.world))
        if self.current_action is not None and tick >= self.action_done_at:
            self._finish_action(tick)
        if self.done is not None:
            return
        if self.current_action is None and not self.pending_abort:
            if self.config.mode == "reactive_only":
                self._scripted_next()
            else:
                self._select_next_action()
        self.controller.step(self._cached_state_vec, self._cached_action_vec,
                             self.latent, self.error)

    def _scripted_next(self) -> None:
        script = self.scenario.reactive_script
        if not script:
            return
        action = script[min(self.script_index, len(script) - 1)]
        self._begin(action)

    def _memory_step(self, tick: int) -> None:
        if self.done is not None:
            return
        obs = observe(self.scenario, self.world)
        action_key = self.current_action or "noop"
        self.belief = forward_filter(self.belief, action_key,
                                     self.state_index[obs.symbol], self.params)
        observed_vec = self.symbol_embedder.embed(obs.symbol)
        self.error = observed_vec - predict_state(self.belief, self.params,
                                                  self.phase_embeddings)
        if self.config.mode == "reactive_only":
            return
        # command forwarding to the reactive layer rides the memory rate
        if self.current_action is not None:
            self._publish(PayloadKind.HIGH_LEVEL_COMMAND,
                          {"goal": f"execute {self.current_action}"},
                          "Planner_1", Importance.MEDIUM, tick)
        verdict = state_review(
            self.symbol_embedder.embed(self.tracked_symbol), observed_vec,
            bus=self.bus, allocator=self.allocator, tick=tick)
        if verdict.decision is ReviewDecision.REPLAN:
            self.replan_requested = True

    def _deliberative(self, tick: int) -> None:
        if self.config.mode == "reactive_only":
            return
        self._deliberate(tick)

    # -- main loop -------------------------------------------------------------

    def run(self) -> TrialResult:
        if self.config.mode != "reactive_only":
            self._deliberate(0)
        trace = run_scheduler(
            self.config.rates(), self.scenario.timeout_ticks,
            on_reactive=self._reactive,
            on_memory=self._memory_step,
            on_deliberative=self._deliberative,
            trace_reactive=False,
            stop=lambda tick: self.done is not None,
            seconds_per_tick=self.config.seconds_per_tick)
        if self.config.trace_path:
            trace.write(self.config.trace_path)
        outcome = self.done if self.done is not None else Outcome.FAILURE
        if outcome is Outcome.FAILURE:
            self.detail = self.detail or "timeout"
        return TrialResult(self.scenario.task_id, self.scenario.seed, outcome,
                           self.world.tick, self.config.trace_path, self.detail)


def run_trial(task_id: int, seed: int, config: Optional[EpisodeConfig] = None,
              backend=None) -> TrialResult:
    from .simenv import load_scenario

    scenario, world = load_scenario(task_id, seed)
    runtime = EpisodeRuntime(scenario, world, config, backend)
    return runtime.run()
