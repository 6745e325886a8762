import json
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from brainstem.bus import PRIORITY_ORDER, MessageBus
from brainstem.errors import DuplicateId, IoError, NotFailed, UnregisteredSender
from brainstem.protocol import Importance, LogIdAllocator
from brainstem.registry import (DEFAULT_CHANNELS, AgentDescriptor,
                                AgentRegistry, Role)
from support import quick_envelope

H, M, L = Importance.HIGH, Importance.MEDIUM, Importance.LOW


@pytest.fixture
def bus():
    registered = {"alice", "bob", "carol"}
    return MessageBus(is_registered=registered.__contains__)


@pytest.fixture
def allocator():
    return LogIdAllocator()


def drain(bus, subscriber):
    out = []
    while True:
        envelope = bus.next_message(subscriber)
        if envelope is None:
            return out
        out.append(envelope)


def test_high_preempts_pending_low(bus, allocator):
    bus.subscribe("bob", {H, L})
    for i in range(100):
        bus.publish(quick_envelope("alice", L, allocator, text=f"low{i}"))
    bus.publish(quick_envelope("alice", H, allocator, text="urgent"))
    first = bus.next_message("bob")
    assert first.payload.body["action"] == "urgent"
    rest = drain(bus, "bob")
    assert [e.payload.body["action"] for e in rest] == [f"low{i}" for i in range(100)]


def test_unregistered_sender_rejected(bus, allocator):
    ghost = quick_envelope("alice", H, allocator)
    ghost = type(ghost)(header=type(ghost.header)(ghost.header.timestamp,
                                                  "ghost_01", H),
                        payload=ghost.payload, checksum=ghost.checksum,
                        log_id=ghost.log_id)
    with pytest.raises(UnregisteredSender):
        bus.publish(ghost)


def test_fifo_within_channel(bus, allocator):
    bus.subscribe("bob", {H})
    a = quick_envelope("alice", H, allocator, text="a")
    b = quick_envelope("alice", H, allocator, text="b")
    bus.publish(a)
    bus.publish(b)
    assert bus.next_message("bob").payload.body["action"] == "a"
    assert bus.next_message("bob").payload.body["action"] == "b"


def test_priority_order_across_channels(bus, allocator):
    bus.subscribe("bob", {H, L})
    bus.publish(quick_envelope("alice", L, allocator, text="l1"))
    bus.publish(quick_envelope("alice", L, allocator, text="l2"))
    bus.publish(quick_envelope("alice", H, allocator, text="h1"))
    texts = [e.payload.body["action"] for e in drain(bus, "bob")]
    assert texts == ["h1", "l1", "l2"]


def test_empty_queues_return_none(bus):
    bus.subscribe("bob", {H, M, L})
    assert bus.next_message("bob") is None


def test_high_arriving_mid_drain_preempts(bus, allocator):
    bus.subscribe("bob", {H, L})
    bus.publish(quick_envelope("alice", L, allocator, text="l1"))
    bus.publish(quick_envelope("alice", L, allocator, text="l2"))
    assert bus.next_message("bob").payload.body["action"] == "l1"
    bus.publish(quick_envelope("alice", H, allocator, text="h1"))
    assert bus.next_message("bob").payload.body["action"] == "h1"
    assert bus.next_message("bob").payload.body["action"] == "l2"


def test_exactly_once_per_subscriber(bus, allocator):
    bus.subscribe("bob", {H})
    bus.subscribe("carol", {H})
    envelope = quick_envelope("alice", H, allocator)
    bus.publish(envelope)
    assert bus.next_message("bob").log_id == envelope.log_id
    assert bus.next_message("bob") is None
    assert bus.next_message("carol").log_id == envelope.log_id
    assert bus.next_message("carol") is None


def test_reassignment_picks_up_new_channel(bus, allocator):
    bus.subscribe("bob", {L})
    bus.publish(quick_envelope("alice", H, allocator, text="before"))
    bus.subscribe("bob", {H, L})
    # messages already queued on a newly joined channel are not replayed
    assert bus.next_message("bob") is None
    bus.publish(quick_envelope("alice", H, allocator, text="after"))
    assert bus.next_message("bob").payload.body["action"] == "after"


def test_reassign_to_empty_receives_nothing(bus, allocator):
    bus.subscribe("bob", {H})
    bus.publish(quick_envelope("alice", H, allocator))
    bus.subscribe("bob", set())
    assert bus.next_message("bob") is None


def test_audit_log_records_publish_before_receipt(bus, allocator):
    bus.subscribe("bob", {M})
    envelope = quick_envelope("alice", M, allocator)
    bus.publish(envelope)
    assert [(op, log_id) for op, log_id, _ in bus.audit_log()] == \
        [("publish", envelope.log_id)]
    bus.next_message("bob")
    assert [(op, log_id) for op, log_id, _ in bus.audit_log()] == \
        [("publish", envelope.log_id), ("deliver", envelope.log_id)]


def test_reassign_never_drops_or_duplicates(allocator):
    """Randomized reassignment points around a burst: every message published
    while the agent was subscribed (and after) is delivered exactly once."""
    rng = random.Random(5)
    for _ in range(50):
        registered = {"pub", "sub"}
        bus = MessageBus(is_registered=registered.__contains__)
        bus.subscribe("sub", {H, M, L})
        published, delivered = [], []
        for step in range(60):
            move = rng.random()
            if move < 0.55:
                env = quick_envelope("pub", rng.choice([H, M, L]), allocator,
                                     text=f"m{step}")
                bus.publish(env)
                published.append(env.log_id)
            elif move < 0.75:
                got = bus.next_message("sub")
                if got is not None:
                    delivered.append(got.log_id)
            else:
                # stay subscribed everywhere; reassignment order shuffles only
                bus.subscribe("sub", {H, M, L})
        delivered.extend(e.log_id for e in iter(lambda: bus.next_message("sub"),
                                                None))
        assert sorted(delivered) == sorted(published)
        assert len(set(delivered)) == len(delivered)


def test_strict_priority_invariant_random_schedules(allocator):
    """No lower-priority delivery while a higher-priority message is queued."""
    rng = random.Random(17)
    for _ in range(120):
        registered = {"pub", "sub"}
        bus = MessageBus(is_registered=registered.__contains__)
        bus.subscribe("sub", {H, M, L})
        pending = {H: 0, M: 0, L: 0}
        by_id = {}
        for _ in range(80):
            if rng.random() < 0.6:
                level = rng.choice([H, M, L])
                env = quick_envelope("pub", level, allocator)
                bus.publish(env)
                by_id[env.log_id] = level
                pending[level] += 1
            else:
                got = bus.next_message("sub")
                if got is None:
                    assert all(v == 0 for v in pending.values())
                    continue
                level = by_id[got.log_id]
                if level is M:
                    assert pending[H] == 0
                if level is L:
                    assert pending[H] == 0 and pending[M] == 0
                pending[level] -= 1


def test_audit_file_has_envelopes_and_receipts(tmp_path, allocator):
    from brainstem.protocol import decode_envelope
    path = tmp_path / "audit.log"
    registered = {"alice", "bob"}
    bus = MessageBus(is_registered=registered.__contains__,
                     audit_path=str(path))
    bus.subscribe("bob", {H})
    envelope = quick_envelope("alice", H, allocator)
    bus.publish(envelope)
    bus.next_message("bob")
    lines = path.read_bytes().strip().split(b"\n")
    assert len(lines) == 2
    assert decode_envelope(lines[0]) == envelope
    receipt = json.loads(lines[1])
    assert receipt["receipt"] == envelope.log_id
    assert receipt["delivered_to"] == "bob"


def test_concurrent_publishers_and_subscriber(allocator):
    import threading

    registered = {"pub0", "pub1", "pub2", "sub"}
    bus = MessageBus(is_registered=registered.__contains__)
    bus.subscribe("sub", {H, M, L})
    sent = [[] for _ in range(3)]

    def publisher(i):
        for n in range(100):
            env = quick_envelope(f"pub{i}", [H, M, L][n % 3], allocator,
                                 text=f"{i}:{n}")
            bus.publish(env)
            sent[i].append(env.log_id)

    threads = [threading.Thread(target=publisher, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    got = []
    while any(t.is_alive() for t in threads) or bus.pending_count("sub"):
        env = bus.next_message("sub")
        if env is not None:
            got.append(env.log_id)
    for t in threads:
        t.join()
    while True:
        env = bus.next_message("sub")
        if env is None:
            break
        got.append(env.log_id)
    assert sorted(got) == sorted(i for batch in sent for i in batch)
    assert len(set(got)) == 300


def test_unwritable_audit_file_fails_publish_and_changes_nothing(
        tmp_path, allocator):
    registered = {"alice", "bob"}
    bus = MessageBus(is_registered=registered.__contains__,
                     audit_path=str(tmp_path))  # a directory
    bus.subscribe("bob", {H})
    with pytest.raises(IoError):
        bus.publish(quick_envelope("alice", H, allocator))
    assert bus.audit_log() == []
    assert bus.pending_count("bob") == 0
    assert bus.next_message("bob") is None


def test_unwritable_delivery_record_leaves_the_message_owed(
        tmp_path, allocator):
    path = tmp_path / "audit.log"
    registered = {"alice", "bob"}
    bus = MessageBus(is_registered=registered.__contains__,
                     audit_path=str(path))
    bus.subscribe("bob", {H})
    envelope = quick_envelope("alice", H, allocator)
    bus.publish(envelope)
    path.unlink()
    path.mkdir()
    with pytest.raises(IoError):
        bus.next_message("bob")
    assert bus.pending_count("bob") == 1
    assert [op for op, _, _ in bus.audit_log()] == ["publish"]
    path.rmdir()
    assert bus.next_message("bob") == envelope
    assert bus.pending_count("bob") == 0
    # the failed pull did not count as an operation either: the delivery
    # is the second, after the publish
    assert json.loads(path.read_bytes()) == \
        {"receipt": envelope.log_id, "delivered_to": "bob", "at": 2}


def test_bus_drops_a_message_once_no_subscriber_owes_it(bus, allocator):
    def queued():
        return sum(len(inbox) for inboxes in bus._inboxes.values()
                   for inbox in inboxes.values())

    bus.subscribe("bob", {H})
    bus.subscribe("carol", {H})
    bus.publish(quick_envelope("alice", H, allocator))
    bus.publish(quick_envelope("alice", M, allocator))  # no one owes it
    assert queued() == 2
    assert bus.next_message("bob") is not None
    assert queued() == 1
    assert bus.next_message("carol") is not None
    assert queued() == 0


ROLES = {"Leader_1": Role.LEADER, "Inspector_1": Role.INSPECTOR,
         "Worker_1": Role.WORKER}
LEVEL_SETS = st.sets(st.sampled_from(PRIORITY_ORDER))


class BusWithRegistry(RuleBasedStateMachine):
    """The bus bound to a registry, against a model that keeps a list of owed
    log ids per (agent, level) from the agent's first subscription on."""

    def __init__(self):
        super().__init__()
        self.registry = AgentRegistry()
        self.bus = MessageBus(is_registered=self.registry.is_registered)
        self.registry.bind_bus(self.bus)
        self.allocator = LogIdAllocator()
        self.subscribed: dict = {}   # agent -> set of levels
        self.owed: dict = {}         # (agent, level) -> [log_id, ...]
        self.saved: dict = {}        # agent -> levels saved at failure
        self.failed: set = set()
        self.delivered: set = set()  # (agent, log_id)

    def model_subscribe(self, agent, levels):
        for level in levels:
            self.owed.setdefault((agent, level), [])
        self.subscribed[agent] = set(levels)

    def owed_count(self, agent):
        return sum(len(self.owed[(agent, level)])
                   for level in self.subscribed.get(agent, ()))

    @initialize(agents=st.sets(st.sampled_from(sorted(ROLES)), min_size=1))
    def register_some(self, agents):
        for agent in sorted(agents):
            self.register(agent)

    @rule(agent=st.sampled_from(sorted(ROLES)))
    def register(self, agent):
        descriptor = AgentDescriptor(agent, ROLES[agent], ("tag",))
        if agent in self.subscribed and agent not in self.failed:
            with pytest.raises(DuplicateId):
                self.registry.register_agent(descriptor)
            return
        self.registry.register_agent(descriptor)
        self.failed.discard(agent)
        self.model_subscribe(agent, DEFAULT_CHANNELS[ROLES[agent]])

    @rule(agent=st.sampled_from(sorted(ROLES)), levels=LEVEL_SETS)
    def subscribe(self, agent, levels):
        if agent not in self.subscribed:
            with pytest.raises(UnregisteredSender):
                self.bus.subscribe(agent, levels)
            return
        self.bus.subscribe(agent, levels)
        self.model_subscribe(agent, levels)

    @rule(sender=st.sampled_from(sorted(ROLES)),
          level=st.sampled_from(PRIORITY_ORDER))
    def publish(self, sender, level):
        envelope = quick_envelope(sender, level, self.allocator)
        if sender not in self.subscribed:
            with pytest.raises(UnregisteredSender):
                self.bus.publish(envelope)
            return
        self.bus.publish(envelope)
        for (_, owed_level), log_ids in self.owed.items():
            if owed_level is level:
                log_ids.append(envelope.log_id)

    @rule(agent=st.sampled_from(sorted(ROLES)))
    def pull(self, agent):
        if agent not in self.subscribed:
            with pytest.raises(UnregisteredSender):
                self.bus.next_message(agent)
            return
        got = self.bus.next_message(agent)
        for level in PRIORITY_ORDER:
            log_ids = self.owed.get((agent, level))
            if level in self.subscribed[agent] and log_ids:
                expected = log_ids.pop(0)
                assert got is not None and got.log_id == expected
                assert (agent, expected) not in self.delivered
                self.delivered.add((agent, expected))
                return
        assert got is None

    @rule(agent=st.sampled_from(sorted(ROLES)))
    def drain(self, agent):
        if agent in self.subscribed:
            for _ in range(self.owed_count(agent) + 1):
                self.pull(agent)

    @rule(agent=st.sampled_from(sorted(ROLES)))
    def mark_failed(self, agent):
        if agent not in self.subscribed:
            return
        self.registry.mark_failed(agent)
        self.saved[agent] = set(self.subscribed[agent])
        self.failed.add(agent)

    @rule(agent=st.sampled_from(sorted(ROLES)))
    def reinitialize(self, agent):
        if agent not in self.failed:
            with pytest.raises(NotFailed):
                self.registry.reinitialize(agent)
            return
        self.registry.reinitialize(agent)
        self.failed.discard(agent)
        self.model_subscribe(agent, self.saved.pop(
            agent, DEFAULT_CHANNELS[ROLES[agent]]))

    @invariant()
    def pending_counts_match_the_model(self):
        for agent in ROLES:
            assert self.bus.pending_count(agent) == self.owed_count(agent)


BusWithRegistry.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
test_bus_with_registry_matches_model = BusWithRegistry.TestCase
