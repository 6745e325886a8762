import random

import pytest

from brainstem.bus import MessageBus
from brainstem.errors import UnregisteredSender
from brainstem.protocol import Importance, LogIdAllocator
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
    assert first.payload.body["text"] == "urgent"
    rest = drain(bus, "bob")
    assert [e.payload.body["text"] for e in rest] == [f"low{i}" for i in range(100)]


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
    assert bus.next_message("bob").payload.body["text"] == "a"
    assert bus.next_message("bob").payload.body["text"] == "b"


def test_priority_order_across_channels(bus, allocator):
    bus.subscribe("bob", {H, L})
    bus.publish(quick_envelope("alice", L, allocator, text="l1"))
    bus.publish(quick_envelope("alice", L, allocator, text="l2"))
    bus.publish(quick_envelope("alice", H, allocator, text="h1"))
    texts = [e.payload.body["text"] for e in drain(bus, "bob")]
    assert texts == ["h1", "l1", "l2"]


def test_empty_queues_return_none(bus):
    bus.subscribe("bob", {H, M, L})
    assert bus.next_message("bob") is None


def test_high_arriving_mid_drain_preempts(bus, allocator):
    bus.subscribe("bob", {H, L})
    bus.publish(quick_envelope("alice", L, allocator, text="l1"))
    bus.publish(quick_envelope("alice", L, allocator, text="l2"))
    assert bus.next_message("bob").payload.body["text"] == "l1"
    bus.publish(quick_envelope("alice", H, allocator, text="h1"))
    assert bus.next_message("bob").payload.body["text"] == "h1"
    assert bus.next_message("bob").payload.body["text"] == "l2"


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
    assert bus.next_message("bob").payload.body["text"] == "after"


def test_reassign_to_empty_receives_nothing(bus, allocator):
    bus.subscribe("bob", {H})
    bus.publish(quick_envelope("alice", H, allocator))
    bus.subscribe("bob", set())
    assert bus.next_message("bob") is None


def test_audit_log_records_publish_before_receipt(bus, allocator):
    envelope = quick_envelope("alice", M, allocator)
    receipt = bus.publish(envelope)
    entries = [(op, log_id) for op, log_id, _ in bus.audit_log()]
    assert ("publish", envelope.log_id) in entries
    assert receipt.log_id == envelope.log_id


def test_receipts_track_delivery_ticks(bus, allocator):
    bus.subscribe("bob", {H})
    receipt = bus.publish(quick_envelope("alice", H, allocator))
    bus.next_message("bob")
    assert receipt.delivered_at["bob"] >= receipt.enqueued_at


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
    import json as _json
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
    receipt = _json.loads(lines[1])
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
