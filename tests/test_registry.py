import json
import random

import pytest

from brainstem.bus import MessageBus
from brainstem.errors import DuplicateId, IoError, NotFailed, SchemaViolation
from brainstem.protocol import Importance, LogIdAllocator
from brainstem.registry import AgentDescriptor, AgentRegistry, AgentStatus, Role
from support import quick_envelope

H, M, L = Importance.HIGH, Importance.MEDIUM, Importance.LOW


def worker(i):
    return AgentDescriptor(f"Worker_{i}", Role.WORKER, ("general",))


@pytest.fixture
def registry():
    reg = AgentRegistry()
    bus = MessageBus(is_registered=reg.is_registered)
    reg.bind_bus(bus)
    return reg


def test_register_five_workers(registry):
    for i in range(1, 6):
        registry.register_agent(worker(i))
    active = registry.active_agents(Role.WORKER)
    assert [a.agent_id for a in active] == [f"Worker_{i}" for i in range(1, 6)]
    assert all(a.status is AgentStatus.ACTIVE for a in active)


def test_duplicate_registration_rejected(registry):
    registry.register_agent(worker(1))
    with pytest.raises(DuplicateId):
        registry.register_agent(worker(1))


def test_worker_needs_expertise(registry):
    with pytest.raises(SchemaViolation):
        registry.register_agent(AgentDescriptor("Worker_9", Role.WORKER, ()))
    # non-worker roles may omit expertise
    registry.register_agent(AgentDescriptor("Leader_1", Role.LEADER, ()))


def plan(*workers):
    return {"difficulty": "high", "subtasks": [
        {"subtask_id": f"ST{i+1}", "assigned_worker": w,
         "task_description": "t", "focus": ["a", "b", "c"]}
        for i, w in enumerate(workers)
    ]}


def test_validate_assignment_unknown_worker(registry):
    for i in range(1, 6):
        registry.register_agent(worker(i))
    with pytest.raises(SchemaViolation):
        registry.validate_assignment(plan("Worker_9"))


def test_validate_assignment_rejects_a_failed_worker(registry):
    for i in range(1, 6):
        registry.register_agent(worker(i))
    registry.mark_failed("Worker_3")
    with pytest.raises(SchemaViolation) as excinfo:
        registry.validate_assignment(plan("Worker_1", "Worker_3"))
    assert excinfo.value.problems == [
        "'Worker_3' is not an active registered worker"]


def test_validate_assignment_accepts_distinct_workers(registry):
    for i in range(1, 6):
        registry.register_agent(worker(i))
    accepted = registry.validate_assignment(plan("Worker_1", "Worker_4"))
    assert len(accepted["subtasks"]) == 2


def test_reinitialize_state_machine(registry):
    registry.register_agent(worker(2))
    registry.mark_failed("Worker_2")
    assert registry.get("Worker_2").status is AgentStatus.FAILED
    registry.reinitialize("Worker_2", {"last_obs": "cabinet"}, tick=42)
    assert registry.get("Worker_2").status is AgentStatus.ACTIVE
    records = registry.crash_records("Worker_2")
    assert len(records) == 1
    assert records[0].tick == 42


def test_reinitialize_active_agent_rejected(registry):
    registry.register_agent(worker(2))
    with pytest.raises(NotFailed):
        registry.reinitialize("Worker_2")


def test_crash_records_count_matches_transitions(registry):
    registry.register_agent(worker(1))
    for _ in range(3):
        registry.mark_failed("Worker_1")
        registry.reinitialize("Worker_1")
    assert len(registry.crash_records("Worker_1")) == 3


def test_messages_during_downtime_delivered_after_restart(registry):
    allocator = LogIdAllocator()
    bus = registry.bus
    registry.register_agent(worker(1))
    registry.register_agent(AgentDescriptor("Leader_1", Role.LEADER))
    rng = random.Random(13)
    for trial in range(30):
        registry.mark_failed("Worker_1")
        downtime = [quick_envelope("Leader_1", rng.choice([M, L]), allocator,
                                   text=f"t{trial}_{i}")
                    for i in range(rng.randint(1, 5))]
        for env in downtime:
            bus.publish(env)
        registry.reinitialize("Worker_1")
        got = []
        while True:
            env = bus.next_message("Worker_1")
            if env is None:
                break
            got.append(env.log_id)
        # every downtime message arrives exactly once (priority order, so
        # publication order is only preserved within one channel)
        assert sorted(got) == sorted(e.log_id for e in downtime)


def test_crash_log_file(tmp_path):
    reg = AgentRegistry(crash_log_path=str(tmp_path / "crash.log"))
    reg.register_agent(worker(1))
    reg.mark_failed("Worker_1")
    reg.reinitialize("Worker_1", {"why": "test"}, tick=7,
                     last_message_log_id="MSG_00009")
    lines = (tmp_path / "crash.log").read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["agent_id"] == "Worker_1"
    assert record["last_message_log_id"] == "MSG_00009"


def test_unwritable_crash_log_changes_nothing(tmp_path):
    path = tmp_path / "crash.log"
    path.mkdir()  # a directory cannot take the log line
    reg = AgentRegistry(crash_log_path=str(path))
    reg.register_agent(worker(1))
    reg.mark_failed("Worker_1")
    for _ in range(2):
        with pytest.raises(IoError):
            reg.reinitialize("Worker_1", tick=3)
        assert reg.crash_records() == []
        assert reg.get("Worker_1").status is AgentStatus.FAILED
    path.rmdir()
    reg.reinitialize("Worker_1", tick=3)
    assert reg.get("Worker_1").status is AgentStatus.ACTIVE
    assert [r.tick for r in reg.crash_records()] == [3]
    assert len(path.read_text().splitlines()) == 1
