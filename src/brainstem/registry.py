"""Agent registration, assignment constraints, fault recovery."""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional

from .errors import DuplicateId, IoError, NotFailed, SchemaViolation
from .protocol import Importance

log = logging.getLogger(__name__)


class Role(str, Enum):
    LEADER = "Leader"
    WORKER = "Worker"
    INSPECTOR = "Inspector"
    PLANNER = "Planner"


class AgentStatus(str, Enum):
    ACTIVE = "Active"
    FAILED = "Failed"


# Default channel subscriptions per role. Every role listens on MEDIUM so
# memory broadcasts reach the whole collective.
DEFAULT_CHANNELS = {
    Role.LEADER: {Importance.HIGH, Importance.MEDIUM, Importance.LOW},
    Role.WORKER: {Importance.MEDIUM, Importance.LOW},
    Role.INSPECTOR: {Importance.HIGH, Importance.MEDIUM},
    Role.PLANNER: {Importance.HIGH, Importance.MEDIUM},
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
            if descriptor.role is Role.WORKER and not descriptor.expertise:
                raise SchemaViolation(
                    f"{descriptor.agent_id}: expertise must be non-empty for "
                    "Worker agents")
            descriptor = replace(descriptor, status=AgentStatus.ACTIVE,
                                 expertise=tuple(descriptor.expertise))
            self._agents[descriptor.agent_id] = descriptor
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

    def check_worker(self, agent_id: str) -> None:
        """Raise SchemaViolation unless ``agent_id`` is an active worker.

        The one roster rule: it decides both which workers a plan may assign
        and which colleagues a worker's reflection may ask.
        """
        agent = self._agents.get(agent_id)
        if agent is None or agent.role is not Role.WORKER \
                or agent.status is not AgentStatus.ACTIVE:
            raise SchemaViolation(
                f"{agent_id!r} is not an active registered worker")

    def validate_assignment(self, plan: Mapping) -> Mapping:
        """Accept a plan iff every subtask goes to an active registered worker.

        The plan contract (``decomposition_plan_problems``) already rejects a
        second subtask for one worker.
        """
        for subtask in plan["subtasks"]:
            self.check_worker(subtask["assigned_worker"])
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
        """Reset a failed agent to its initial configuration and log the crash.

        The crash log line is written before any state changes, so an
        unwritable ``crash_log_path`` raises ``IoError`` and leaves the agent
        ``Failed`` with no new record.
        """
        with self._lock:
            agent = self._agents.get(agent_id)
            if agent is None or agent.status is not AgentStatus.FAILED:
                raise NotFailed(f"{agent_id!r} is not in the Failed state")
            record = CrashRecord(agent_id, tick, last_message_log_id,
                                 dict(context or {}))
            if self._crash_log_path is not None:
                self._write_crash_line(record)
            self._crash_records.append(record)
            log.warning("reinitializing %s after failure at tick %d", agent_id, tick)
            self._agents[agent_id] = replace(agent, status=AgentStatus.ACTIVE)
            if self.bus is not None:
                subscriptions = self._saved_subscriptions.pop(
                    agent_id, DEFAULT_CHANNELS[agent.role])
                self.bus.subscribe(agent_id, subscriptions)
            return agent_id

    def _write_crash_line(self, record: CrashRecord) -> None:
        line = json.dumps({
            "agent_id": record.agent_id,
            "tick": record.tick,
            "last_message_log_id": record.last_message_log_id,
            "context_snapshot": record.context_snapshot,
        }, sort_keys=True)
        try:
            with open(self._crash_log_path, "a", encoding="utf-8") as sink:
                sink.write(line + "\n")
        except OSError as exc:
            raise IoError(f"cannot write crash log {self._crash_log_path}: "
                          f"{exc}") from None

    def crash_records(self, agent_id: Optional[str] = None) -> list:
        with self._lock:
            if agent_id is None:
                return list(self._crash_records)
            return [r for r in self._crash_records if r.agent_id == agent_id]
