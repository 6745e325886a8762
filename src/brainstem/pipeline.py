"""Asynchronous multi-rate core: latent relay, state review, tick scheduler.

Time is a virtual clock in ticks only: no loop waits on wall time, so a run
takes as long as its hooks' work. The reactive loop fires every tick, the
memory loop every ``memory_period`` ticks, the deliberative loop every
``deliberative_period`` ticks (defaults keep the 1 : 1000 : 100000 ratio).
Deliberative work is chunked: callbacks may hand back deferred jobs whose
results are applied at a later deliberative boundary, so a slow planning
round never displaces a reactive tick.

A caller whose reactive hook has nothing to do on most ticks may pass
``next_wake`` to advance time event by event (next-event time advance): the
scheduler then visits only the ticks the caller asks for and every memory
and deliberative boundary, and the reactive loop fires at those visits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, DimensionMismatch, IoError,
                     require_positive_ints)


@dataclass(frozen=True)
class LatentState:
    vector: np.ndarray
    tick: int = 0

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", vector)
        if not np.all(np.isfinite(vector)):
            raise ValueError("latent vector must be finite")


@dataclass(frozen=True)
class RateConfig:
    """Loop periods in ticks; the reactive loop fires on every tick."""

    memory_period: int = 1000
    deliberative_period: int = 100_000

    def __post_init__(self):
        require_positive_ints(memory_period=self.memory_period,
                              deliberative_period=self.deliberative_period)


class RelayMap:
    """Bounded deterministic relay: tanh of a fixed-seed affine map."""

    def __init__(self, latent_dim: int, action_dim: int, memory_dim: int,
                 frontier_dim: int, seed: int = 7):
        rng = np.random.default_rng(seed)
        total = latent_dim + action_dim + memory_dim + frontier_dim
        self.weights = rng.standard_normal((latent_dim, total)) / np.sqrt(total)
        self.bias = rng.standard_normal(latent_dim) * 0.1
        self.latent_dim = latent_dim

    def __call__(self, l_t, a_t, m_task, frontier) -> np.ndarray:
        stacked = np.concatenate([l_t, a_t, m_task, frontier])
        if stacked.shape[0] != self.weights.shape[1]:
            raise DimensionMismatch(
                f"relay expects {self.weights.shape[1]} inputs, "
                f"got {stacked.shape[0]}")
        return np.tanh(self.weights @ stacked + self.bias)


def relay_update(latent: LatentState, action_vec, task_memory, frontier_vec,
                 dbn_term, lam: float, relay: RelayMap) -> LatentState:
    """l_{t+1} = relay(l_t, a_t, m_task, frontier) + lam * dbn_term."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    dbn_term = np.asarray(dbn_term, dtype=float)
    if dbn_term.shape != (relay.latent_dim,):
        raise DimensionMismatch(
            f"dbn term {dbn_term.shape} != latent ({relay.latent_dim},)")
    base = relay(latent.vector, np.asarray(action_vec, dtype=float),
                 np.asarray(task_memory, dtype=float),
                 np.asarray(frontier_vec, dtype=float))
    return LatentState(base + lam * dbn_term, latent.tick + 1)


# ---------------------------------------------------------------------------
# state review
# ---------------------------------------------------------------------------

def state_review(expected: str, observed: str) -> bool:
    """Whether a replan is due: any change of the world symbol demands one."""
    return observed != expected


# ---------------------------------------------------------------------------
# virtual-clock scheduler
# ---------------------------------------------------------------------------

@dataclass
class ExecutionTrace:
    records: list = field(default_factory=list)  # (tick, loop, event, detail)

    def append(self, tick: int, loop: str, event: str, detail: str = "") -> None:
        self.records.append((tick, loop, event, detail))

    def firings(self, loop: str) -> list:
        return [r for r in self.records if r[1] == loop and r[2] == "fire"]

    def count(self, loop: str) -> int:
        return len(self.firings(loop))

    def max_reactive_gap(self) -> int:
        ticks = [r[0] for r in self.firings("reactive")]
        if len(ticks) < 2:
            return 0
        return max(b - a for a, b in zip(ticks, ticks[1:]))

    def write(self, path: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as sink:
                for tick, loop, event, detail in self.records:
                    sink.write(f"{tick}\t{loop}\t{event}\t{detail}\n")
        except OSError as exc:
            raise IoError(f"cannot write trace to {path}: {exc}") from None


@dataclass
class DeferredJob:
    ready_at: int
    apply: Callable
    submitted_at: int


def _every_tick(tick: int) -> int:
    return tick + 1


def run_scheduler(rates: RateConfig, horizon_ticks: int,
                  on_reactive: Optional[Callable] = None,
                  on_memory: Optional[Callable] = None,
                  on_deliberative: Optional[Callable] = None,
                  trace_reactive: bool = True,
                  stop: Optional[Callable] = None,
                  next_wake: Callable = _every_tick) -> ExecutionTrace:
    """Drive the three loops over a virtual horizon of ticks 1..horizon_ticks.

    ``on_deliberative(tick)`` may return ``(latency_ticks, apply_fn)`` to model
    slow work: the result is applied at the first deliberative boundary after
    the latency elapses, keeping every reactive tick on time. ``stop(tick)``
    ends the run early.

    By default every tick is visited. With ``next_wake``, the tick after a
    visited tick ``t`` is the earliest of ``next_wake(t)``, the next memory
    boundary, the next deliberative boundary and the horizon, so every
    boundary is still visited and the memory and deliberative firings,
    deferred applications and their trace records are those of the per-tick
    run. ``on_reactive`` fires, and a reactive record is written, at each
    visited tick only: the records mark wakes, and ``max_reactive_gap`` can
    exceed 1. ``next_wake(t)`` must be an int later than ``t``.
    """
    if type(horizon_ticks) is not int or horizon_ticks < 0:
        raise ConfigError(
            f"horizon_ticks must be an int >= 0, got {horizon_ticks!r}")
    memory_period = rates.memory_period
    deliberative_period = rates.deliberative_period
    trace = ExecutionTrace()
    pending: list = []
    tick = 1
    while tick <= horizon_ticks:
        if on_reactive is not None:
            on_reactive(tick)
        if trace_reactive:
            trace.append(tick, "reactive", "fire")
        if tick % memory_period == 0:
            if on_memory is not None:
                on_memory(tick)
            trace.append(tick, "memory", "fire")
        if tick % deliberative_period == 0:
            still_waiting = []
            for job in pending:
                if job.ready_at <= tick:
                    job.apply(tick)
                    trace.append(tick, "deliberative", "apply",
                                 f"submitted_at={job.submitted_at}")
                else:
                    still_waiting.append(job)
            pending = still_waiting
            result = on_deliberative(tick) if on_deliberative is not None else None
            trace.append(tick, "deliberative", "fire")
            if result is not None:
                latency, apply_fn = result
                pending.append(DeferredJob(tick + latency, apply_fn, tick))
        if stop is not None and stop(tick):
            break
        if tick >= horizon_ticks:
            break
        wake = next_wake(tick)
        if type(wake) is not int or wake <= tick:
            raise ValueError(f"next_wake({tick}) returned {wake!r}, "
                             f"not a later tick")
        tick = min(wake, tick - tick % memory_period + memory_period,
                   tick - tick % deliberative_period + deliberative_period,
                   horizon_ticks)
    return trace
