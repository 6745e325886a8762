import math

import numpy as np
import pytest

from brainstem.bus import MessageBus
from brainstem.errors import DimensionMismatch
from brainstem.memory import (MemoryState, broadcast_memory, memory_update,
                              tanh_consolidation)
from brainstem.protocol import LogIdAllocator, PayloadKind
from brainstem.registry import AgentDescriptor, AgentRegistry, Role


def state(vector, alpha, tick=0):
    return MemoryState(np.asarray(vector, dtype=float), alpha, tick)


def test_pure_decay_arithmetic():
    m1 = memory_update(state([1.0, 0.0], 0.1), np.zeros(2), np.zeros(2))
    assert np.allclose(m1.vector, [0.9, 0.0], atol=0)
    assert m1.updated_at == 1


def test_alpha_one_full_replacement():
    def g(s, z, m):
        return np.array([0.25, -0.5])

    m1 = memory_update(state([3.0, 7.0], 1.0), np.zeros(2), np.zeros(2), g)
    assert np.array_equal(m1.vector, [0.25, -0.5])


def test_decay_law_norm():
    alpha = 0.07
    m = state(np.array([1.0, -2.0, 0.5, 3.0]), alpha)
    base = np.linalg.norm(m.vector)
    for t in range(1, 1001):
        m = memory_update(m, np.zeros(4), np.zeros(4))
        assert abs(np.linalg.norm(m.vector) - (1 - alpha) ** t * base) <= 1e-12


def test_random_run_matches_unrolled_oracle():
    """Pure-python reimplementation of the recurrence, compared at 1e-12."""
    dim = 16
    rng = np.random.default_rng(8)
    consolidate = tanh_consolidation(dim, dim, dim, seed=5)
    weights = consolidate.weights.tolist()
    bias = consolidate.bias.tolist()
    alpha = 0.2
    m = state(rng.standard_normal(dim), alpha)
    oracle = list(m.vector)
    for _ in range(50):
        s = rng.standard_normal(dim)
        z = rng.standard_normal(dim)
        m = memory_update(m, s, z, consolidate)
        stacked = list(s) + list(z) + oracle
        oracle = [
            (1 - alpha) * oracle[i]
            + math.tanh(sum(w * x for w, x in zip(weights[i], stacked)) + bias[i])
            for i in range(dim)
        ]
        assert max(abs(a - b) for a, b in zip(m.vector, oracle)) <= 1e-12


def test_boundedness_under_unit_gain():
    rng = np.random.default_rng(1)
    consolidate = tanh_consolidation(4, 4, 4, seed=9)
    for alpha in (0.05, 0.3, 1.0):
        m = state(rng.standard_normal(4) * 5, alpha)
        bound = max(np.max(np.abs(m.vector)), 1.0 / alpha)
        for _ in range(200):
            m = memory_update(m, rng.standard_normal(4), rng.standard_normal(4),
                              consolidate)
            assert np.max(np.abs(m.vector)) <= bound + 1e-9


def test_dimension_mismatch_raises():
    def g(s, z, m):
        return np.zeros(3)

    with pytest.raises(DimensionMismatch):
        memory_update(state([1.0, 2.0], 0.1), np.zeros(2), np.zeros(2), g)


def test_broadcast_reaches_every_active_agent():
    registry = AgentRegistry()
    bus = MessageBus(is_registered=registry.is_registered)
    registry.bind_bus(bus)
    registry.register_agent(AgentDescriptor("Leader_1", Role.LEADER))
    registry.register_agent(AgentDescriptor("Worker_1", Role.WORKER, ("nav",)))
    registry.register_agent(AgentDescriptor("Inspector_1", Role.INSPECTOR))
    allocator = LogIdAllocator()
    snapshot = state([0.5, -0.5], 0.1, tick=10)
    broadcast_memory(snapshot, bus, "Leader_1", allocator, tick=10)
    got = []
    for agent in ("Leader_1", "Worker_1", "Inspector_1"):
        envelope = bus.next_message(agent)
        assert envelope is not None
        assert envelope.payload.kind is PayloadKind.HTN_MEMORY
        got.append(tuple(envelope.payload.body["vector"]))
    assert len(set(got)) == 1  # identical snapshots


def test_late_registration_misses_past_broadcasts():
    registry = AgentRegistry()
    bus = MessageBus(is_registered=registry.is_registered)
    registry.bind_bus(bus)
    registry.register_agent(AgentDescriptor("Leader_1", Role.LEADER))
    allocator = LogIdAllocator()
    broadcast_memory(state([1.0], 0.1), bus, "Leader_1", allocator, tick=1)
    registry.register_agent(AgentDescriptor("Worker_1", Role.WORKER, ("nav",)))
    assert bus.next_message("Worker_1") is None
    broadcast_memory(state([2.0], 0.1), bus, "Leader_1", allocator, tick=2)
    envelope = bus.next_message("Worker_1")
    assert envelope.payload.body["vector"] == [2.0]
