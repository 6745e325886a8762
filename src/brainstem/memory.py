"""Episodic memory with exponential decay and its snapshot broadcast.

The shared memory vector follows m_t = (1 - alpha) * m_{t-1} + g(s_t, z_t,
m_{t-1}) where g is a bounded deterministic consolidation map. A snapshot of
the vector can be broadcast over the bus for every subscribed agent to pull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch
from .protocol import (Importance, LogIdAllocator, MessageHeader, Payload,
                       PayloadKind, make_envelope, tick_to_timestamp)


@dataclass(frozen=True)
class MemoryState:
    vector: np.ndarray
    alpha: float
    updated_at: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("memory vector must be finite")


def zero_consolidation(s_t, z_t, m_prev):
    return np.zeros_like(m_prev)


def tanh_consolidation(state_dim: int, feature_dim: int, memory_dim: int,
                       seed: int = 2025) -> Callable:
    """Bounded deterministic consolidation: tanh of a fixed-seed affine map."""
    rng = np.random.default_rng(seed)
    total = state_dim + feature_dim + memory_dim
    weights = rng.standard_normal((memory_dim, total)) / np.sqrt(total)
    bias = rng.standard_normal(memory_dim) * 0.1

    def consolidate(s_t, z_t, m_prev):
        stacked = np.concatenate([s_t, z_t, m_prev])
        return np.tanh(weights @ stacked + bias)

    consolidate.weights = weights
    consolidate.bias = bias
    return consolidate


def memory_update(prev: MemoryState, s_t, z_t,
                  consolidate: Optional[Callable] = None) -> MemoryState:
    """One consolidation step; ``consolidate=None`` means g == 0."""
    s_t = np.asarray(s_t, dtype=float)
    z_t = np.asarray(z_t, dtype=float)
    if consolidate is None:
        consolidate = zero_consolidation
    try:
        gain = consolidate(s_t, z_t, prev.vector)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None
    if gain.shape != prev.vector.shape:
        raise DimensionMismatch(
            f"consolidation output {gain.shape} != memory {prev.vector.shape}")
    # the paper prints -alpha * m_{t-1}, which negates rather than decays
    vector = (1.0 - prev.alpha) * prev.vector + gain
    return MemoryState(vector=vector, alpha=prev.alpha,
                       updated_at=prev.updated_at + 1)


def broadcast_memory(state: MemoryState, bus, sender_id: str,
                     allocator: LogIdAllocator, tick: int):
    """Publish a read-only snapshot for every subscribed agent to pull."""
    header = MessageHeader(tick_to_timestamp(tick), sender_id, Importance.MEDIUM)
    payload = Payload(PayloadKind.HTN_MEMORY, {
        "vector": [float(v) for v in state.vector],
        "tick": tick,
    })
    return bus.publish(make_envelope(header, payload, allocator))
