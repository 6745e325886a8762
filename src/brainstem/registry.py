"""Agent registration, expertise lookup, assignment constraints, fault recovery."""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Optional

from .errors import (DuplicateAssignment, DuplicateId, NotFailed, SchemaViolation,
                     UnknownWorker)
from .protocol import Importance

log = logging.getLogger(__name__)


class Role(str, Enum):
    LEADER = "Leader"
    WORKER = "Worker"
    INSPECTOR = "Inspector"
    PLANNER = "Planner"
    PROVIDER = "Provider"


class AgentStatus(str, Enum):
    ACTIVE = "Active"
    FAILED = "Failed"
    RESTARTING = "Restarting"


# Default channel subscriptions per role. Every role listens on MEDIUM so
# memory broadcasts reach the whole collective.
DEFAULT_CHANNELS = {
    Role.LEADER: {Importance.HIGH, Importance.MEDIUM, Importance.LOW},
    Role.WORKER: {Importance.MEDIUM, Importance.LOW},
    Role.INSPECTOR: {Importance.HIGH, Importance.MEDIUM},
    Role.PLANNER: {Importance.HIGH, Importance.MEDIUM},
    Role.PROVIDER: {Importance.MEDIUM, Importance.LOW},
}


@dataclass(frozen=True)
class AgentDescriptor:
    agent_id: str
    role: Role
    expertise: tuple = ()
    status: AgentStatus = AgentStatus.ACTIVE


@dataclass(frozen=True)
class CrashRecord:
    agent_id: str
    tick: int
    last_message_log_id: Optional[str]
    context_snapshot: Mapping


class AgentRegistry:
    """Shared agent database: concurrent reads, serialized mutations."""

    def __init__(self, crash_log_path: Optional[str] = None):
        self._lock = threading.RLock()
        self._agents: dict = {}            # agent_id -> AgentDescriptor
        self._initial: dict = {}           # agent_id -> descriptor as registered
        self._saved_subscriptions: dict = {}
        self._crash_records: list = []
        self._crash_log_path = crash_log_path
        self.bus = None  # wired by the runtime after both ends exist

    def bind_bus(self, bus) -> None:
        self.bus = bus

    # -- registration ----------------------------------------------------------

    def is_registered(self, agent_id: str) -> bool:
        return agent_id in self._agents

    def get(self, agent_id: str) -> AgentDescriptor:
        return self._agents[agent_id]

    def register_agent(self, descriptor: AgentDescriptor) -> str:
        with self._lock:
            existing = self._agents.get(descriptor.agent_id)
            if existing is not None and existing.status is AgentStatus.ACTIVE:
                raise DuplicateId(f"{descriptor.agent_id!r} is already active")
            if descriptor.role in (Role.WORKER, Role.PROVIDER) and not descriptor.expertise:
                raise SchemaViolation(
                    f"{descriptor.agent_id}: expertise must be non-empty for "
                    f"{descriptor.role.value} agents")
            descriptor = replace(descriptor, status=AgentStatus.ACTIVE,
                                 expertise=tuple(descriptor.expertise))
            self._agents[descriptor.agent_id] = descriptor
            self._initial[descriptor.agent_id] = descriptor
            if self.bus is not None:
                self.bus.subscribe(descriptor.agent_id,
                                   DEFAULT_CHANNELS[descriptor.role])
            return descriptor.agent_id

    def active_agents(self, role: Optional[Role] = None) -> list:
        with self._lock:
            out = [a for a in self._agents.values()
                   if a.status is AgentStatus.ACTIVE
                   and (role is None or a.role is role)]
            return sorted(out, key=lambda a: a.agent_id)

    # -- expertise routing -------------------------------------------------------

    def lookup_by_expertise(self, tags: Iterable[str]) -> list:
        """Active workers ranked by descending tag overlap, then agent id.

        Workers with zero overlap are omitted.
        """
        wanted = set(tags)
        ranked = []
        with self._lock:
            for agent in self._agents.values():
                if agent.role is not Role.WORKER or agent.status is not AgentStatus.ACTIVE:
                    continue
                overlap = len(wanted & set(agent.expertise))
                if overlap > 0:
                    ranked.append((-overlap, agent.agent_id))
        return [agent_id for _, agent_id in sorted(ranked)]

    def validate_assignment(self, plan: Mapping) -> Mapping:
        """Accept a plan iff every worker exists and none appears twice."""
        seen: set = set()
        for subtask in plan["subtasks"]:
            worker = subtask["assigned_worker"]
            if worker not in self._agents:
                raise UnknownWorker(f"{worker!r} is not a registered agent")
            if worker in seen:
                raise DuplicateAssignment(
                    f"{worker!r} assigned more than one subtask")
            seen.add(worker)
        return plan

    # -- fault tolerance -----------------------------------------------------------

    def mark_failed(self, agent_id: str) -> None:
        """Explicit failure injection; the runtime has no failure detector."""
        with self._lock:
            agent = self._agents[agent_id]
            self._agents[agent_id] = replace(agent, status=AgentStatus.FAILED)
            if self.bus is not None:
                self._saved_subscriptions[agent_id] = self.bus.subscriptions_of(agent_id)

    def reinitialize(self, agent_id: str, context: Optional[Mapping] = None,
                     tick: int = 0,
                     last_message_log_id: Optional[str] = None) -> str:
        """Reset a failed agent to its initial configuration and log the crash."""
        with self._lock:
            agent = self._agents.get(agent_id)
            if agent is None or agent.status is not AgentStatus.FAILED:
                raise NotFailed(f"{agent_id!r} is not in the Failed state")
            record = CrashRecord(agent_id, tick, last_message_log_id,
                                 dict(context or {}))
            self._crash_records.append(record)
            if self._crash_log_path is not None:
                with open(self._crash_log_path, "a", encoding="utf-8") as sink:
                    sink.write(json.dumps({
                        "agent_id": record.agent_id,
                        "tick": record.tick,
                        "last_message_log_id": record.last_message_log_id,
                        "context_snapshot": record.context_snapshot,
                    }, sort_keys=True) + "\n")
            log.warning("reinitializing %s after failure at tick %d", agent_id, tick)
            self._agents[agent_id] = replace(self._initial[agent_id],
                                             status=AgentStatus.ACTIVE)
            if self.bus is not None:
                subscriptions = self._saved_subscriptions.pop(
                    agent_id, DEFAULT_CHANNELS[agent.role])
                self.bus.subscribe(agent_id, subscriptions)
            return agent_id

    def crash_records(self, agent_id: Optional[str] = None) -> list:
        with self._lock:
            if agent_id is None:
                return list(self._crash_records)
            return [r for r in self._crash_records if r.agent_id == agent_id]
