"""Outside-in span tracing of brainstem's public functions.

The tracer wraps the public functions and methods each layer exposes and
leaves ``src/`` untouched. Modules import functions by name (``make_envelope``
lives in ``episode``, ``memory``, ``pipeline`` and ``protocol``), so
:func:`patched` rebinds every ``brainstem`` module attribute that is the
original and restores all of them on exit.

Spans stay in memory as parallel arrays (name, trial, parent, start, end) and
are written out once, after the run. A span's self time is its duration
minus the durations of its child spans; the wrappers' own bookkeeping lands
in the parent's self time, and the traced run's slowdown against an untraced
run of the same grid is reported as ``trace_overhead``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from importlib import import_module

perf_counter = time.perf_counter

# span name -> (module, function)
FUNCTIONS = {
    "harness.run_bench": ("brainstem.harness", "run_bench"),
    "simenv.load_scenario": ("brainstem.simenv", "load_scenario"),
    "simenv.advance_clock": ("brainstem.simenv", "advance_clock"),
    "simenv.observe": ("brainstem.simenv", "observe"),
    "simenv.resolve_action": ("brainstem.simenv", "resolve_action"),
    "pipeline.state_review": ("brainstem.pipeline", "state_review"),
    "pipeline.relay_update": ("brainstem.pipeline", "relay_update"),
    "agents.fuse_observations": ("brainstem.agents", "fuse_observations"),
    "agents.interpret_context": ("brainstem.agents", "interpret_context"),
    "agents.combine_outputs": ("brainstem.agents", "combine_outputs"),
    "agents.inspect_alignment": ("brainstem.agents", "inspect_alignment"),
    "agents.plan_mission": ("brainstem.agents", "plan_mission"),
    "agents.worker_reflect": ("brainstem.agents", "worker_reflect"),
    "agents.provider_execute": ("brainstem.agents", "provider_execute"),
    "planner.select_action": ("brainstem.planner", "select_action"),
    "planner.build_htn_dag": ("brainstem.planner", "build_htn_dag"),
    "estimator.forward_filter": ("brainstem.estimator", "forward_filter"),
    "estimator.predict_state": ("brainstem.estimator", "predict_state"),
    "memory.memory_update": ("brainstem.memory", "memory_update"),
    "memory.broadcast_memory": ("brainstem.memory", "broadcast_memory"),
}

# span name -> (module, class, method)
METHODS = {
    "reactive.step": ("brainstem.reactive", "ReactiveController", "step"),
    "backends.complete": ("brainstem.backends", "ScriptedBackend", "complete"),
    "bus.publish": ("brainstem.bus", "MessageBus", "publish"),
    "registry.register_agent": ("brainstem.registry", "AgentRegistry",
                                "register_agent"),
    "registry.validate_assignment": ("brainstem.registry", "AgentRegistry",
                                     "validate_assignment"),
    "episode.runtime_init": ("brainstem.episode", "EpisodeRuntime",
                             "__init__"),
}

# the three callbacks the episode hands to run_scheduler
HOOKS = {"on_reactive": "pipeline.reactive_hook",
         "on_memory": "pipeline.memory_hook",
         "on_deliberative": "pipeline.deliberative_hook"}


@contextmanager
def patched(functions: dict, methods: dict):
    """Install replacements for the duration of the block.

    ``functions`` maps an original function to its replacement; every
    attribute of every loaded ``brainstem`` module that is the original is
    rebound. ``methods`` maps (class, attribute) to a replacement.
    """
    by_id = {id(old): (old, new) for old, new in functions.items()}
    undo = []
    try:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "brainstem"
                                      or name.startswith("brainstem.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, entry[1])
        for (owner, attr), new in methods.items():
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def _canonical(doc) -> str:
    # the text HashEmbedder.embed hashes
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, default=str)


class Tracer:
    """In-memory span recorder with per-name call and self-time totals."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.span_name = array("H")
        self.span_trial = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []   # [span index, seconds spent in children]
        self.trial = -1
        self.trials: list = []   # trial id -> (task_id, seed)
        # layer counters read from outside the spans
        self.embed_keys: set = set()
        self.tree_keys: set = set()
        self.next_message_hits = 0
        self.envelope_bytes = 0
        self.backlog_end = 0
        self.audit_len_end = 0
        # per-trial work deferred until the trial's span has closed
        self._embed_docs: list = []
        self._envelopes: list = []
        self._runtimes: list = []
        self._flush = self.span("trace.flush", self._flush_trial)

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span named ``name``."""
        nid = self._name_id(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_name, s_trial, s_parent = self.span_name, self.span_trial, \
            self.span_parent
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(s_name)
            s_name.append(nid)
            s_trial.append(tracer.trial)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            s_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                s_end[index] = end
                stack.pop()
                duration = end - start
                self_s[nid] += duration - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
        return traced

    def total_calls(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_s[self._ids[name]]

    # -- per-trial bookkeeping ---------------------------------------------------

    def _flush_trial(self) -> None:
        for namespace, dim, doc in self._embed_docs:
            self.embed_keys.add((namespace, dim, _canonical(doc)))
        canonicalize = import_module("brainstem.protocol").canonicalize
        for envelope in self._envelopes:
            self.envelope_bytes += len(canonicalize(
                envelope.header, envelope.payload, envelope.log_id))
        for runtime in self._runtimes:
            self.backlog_end += sum(runtime.bus.pending_count(agent.agent_id)
                                    for agent in runtime.registry.active_agents())
            self.audit_len_end += len(runtime.bus.audit_log())
        self._embed_docs.clear()
        self._envelopes.clear()
        self._runtimes.clear()

    # -- instrumentation -----------------------------------------------------------

    def instrumentation(self) -> tuple:
        """(functions, methods) replacements for :func:`patched`."""
        functions, methods = {}, {}
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(import_module(module), attr)
            functions[original] = self.span(name, original)
        for name, (module, cls, attr) in METHODS.items():
            owner = getattr(import_module(module), cls)
            methods[(owner, attr)] = self.span(name, owner.__dict__[attr])

        harness = import_module("brainstem.harness")
        functions[harness.run_trial] = self._trial(harness.run_trial)
        pipeline = import_module("brainstem.pipeline")
        functions[pipeline.run_scheduler] = self._scheduler(
            pipeline.run_scheduler)
        planner = import_module("brainstem.planner")
        functions[planner.generate_state_tree] = self._state_tree(
            planner.generate_state_tree)
        protocol = import_module("brainstem.protocol")
        functions[protocol.make_envelope] = self._envelope(
            protocol.make_envelope)
        agents = import_module("brainstem.agents")
        methods[(agents.HashEmbedder, "embed")] = self._embed(
            agents.HashEmbedder.embed)
        bus = import_module("brainstem.bus")
        methods[(bus.MessageBus, "next_message")] = self._next_message(
            bus.MessageBus.next_message)
        episode = import_module("brainstem.episode")
        methods[(episode.EpisodeRuntime, "run")] = self._runtime_run(
            episode.EpisodeRuntime.run)
        return functions, methods

    def _trial(self, run_trial):
        traced = self.span("harness.run_trial", run_trial)

        @functools.wraps(run_trial)
        def trial(task_id, seed, *args, **kwargs):
            self.trial = len(self.trials)
            self.trials.append((task_id, seed))
            try:
                return traced(task_id, seed, *args, **kwargs)
            finally:
                self.trial = -1
                self._flush()
        return trial

    def _scheduler(self, run_scheduler):
        signature = inspect.signature(run_scheduler)
        traced = self.span("pipeline.run_scheduler", run_scheduler)
        for name in HOOKS.values():
            self._name_id(name)

        @functools.wraps(run_scheduler)
        def scheduler(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param, name in HOOKS.items():
                hook = bound.arguments.get(param)
                if hook is not None:
                    bound.arguments[param] = self.span(name, hook)
            return traced(*bound.args, **bound.kwargs)
        return scheduler

    def _state_tree(self, generate_state_tree):
        signature = inspect.signature(generate_state_tree)
        traced = self.span("planner.generate_state_tree", generate_state_tree)

        @functools.wraps(generate_state_tree)
        def state_tree(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            given = bound.arguments
            self.tree_keys.add((given["task_desc"], given["current_state"],
                                frozenset(given["exclude_actions"]),
                                given["max_depth"]))
            return traced(*args, **kwargs)
        return state_tree

    def _envelope(self, make_envelope):
        traced = self.span("protocol.make_envelope", make_envelope)

        @functools.wraps(make_envelope)
        def envelope(*args, **kwargs):
            stamped = traced(*args, **kwargs)
            self._envelopes.append(stamped)
            return stamped
        return envelope

    def _embed(self, embed):
        traced = self.span("agents.embed", embed)

        @functools.wraps(embed)
        def embed_doc(embedder, doc):
            self._embed_docs.append((embedder.namespace, embedder.dim, doc))
            return traced(embedder, doc)
        return embed_doc

    def _next_message(self, next_message):
        traced = self.span("bus.next_message", next_message)

        @functools.wraps(next_message)
        def pull(bus, subscriber):
            message = traced(bus, subscriber)
            if message is not None:
                self.next_message_hits += 1
            return message
        return pull

    def _runtime_run(self, run):
        @functools.wraps(run)
        def run_episode(runtime):
            self._runtimes.append(runtime)
            return run(runtime)
        return run_episode

    # -- output ----------------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans and the trial table as one uncompressed ``.npz``."""
        import numpy as np
        np.savez(path,
                 names=np.array(self.names),
                 trials=np.array(self.trials, dtype=np.int64).reshape(-1, 2),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 trial=np.frombuffer(self.span_trial, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
