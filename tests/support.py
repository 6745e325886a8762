"""Shared test helpers: random envelopes and an independent CRC-32 oracle."""

from __future__ import annotations

import json
import random

from brainstem.protocol import (Importance, LogIdAllocator, MessageHeader, Payload,
                                PayloadKind, make_envelope, tick_to_timestamp)


def reflection_asking(agent_id: str) -> str:
    """A worker reply that asks ``agent_id`` for help."""
    return json.dumps({
        "collaboration_required": True,
        "requirement": [{"request_detail": "help", "request_id": "0001",
                         "worker_id": agent_id}]})


# a worker reply that asks a colleague the roster does not have
UNKNOWN_COLLEAGUE = reflection_asking("Worker_9")

# a reply nested past json.loads' depth limit, where it raises RecursionError
TOO_DEEP = "[" * 100000


def _build_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32_oracle(data: bytes) -> str:
    """Table-driven CRC-32/IEEE, implemented independently of the codec."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return format(crc ^ 0xFFFFFFFF, "08x")


_WORDS = ["grasp", "cube", "désk", "fetch", "apple", "zone-B3", "μ-plan",
          "charger", "shelf", "inspect", "look_left", "retract"]


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def random_body(rng: random.Random, kind: PayloadKind) -> dict:
    if kind is PayloadKind.SUBTASK_ASSIGN:
        n = rng.randint(0, 4)
        return {
            "difficulty": "high" if n != 1 else rng.choice(["low", "medium"]),
            "subtasks": [
                {
                    "subtask_id": f"ST{i + 1}",
                    "assigned_worker": f"Worker_{i + 1}",
                    "task_description": f"{_word(rng)} the {_word(rng)}",
                    "focus": [_word(rng) for _ in range(rng.randint(3, 5))],
                }
                for i in range(n)
            ],
        }
    if kind is PayloadKind.AGENT_RESPONSE:
        return {"response": f"analysis of {_word(rng)} finished"}
    if kind is PayloadKind.HTN_MEMORY:
        return {"vector": [round(rng.gauss(0, 1), 6) for _ in range(8)],
                "tick": rng.randint(0, 10_000)}
    body = {"action": _word(rng), "success": rng.random() < 0.5}
    if rng.random() < 0.3:
        body["error"] = "precondition not met"
    return body


def random_tree_doc(rng: random.Random, max_depth: int = 4, branching: int = 3,
                    actions=("advance", "grasp", "look", "retract")) -> dict:
    """A random valid state-tree document (wrapped form)."""

    def node(layer: int) -> dict:
        is_goal = layer > 1 and rng.random() < 0.15
        doc = {
            "state": f"s{layer}_{rng.randint(0, 999)}",
            "score": round(rng.random(), 6),
            "is_goal": is_goal,
            "transitions": [],
        }
        if is_goal or layer >= max_depth:
            return doc
        n = rng.randint(0, branching) if layer > 1 else rng.randint(1, branching)
        if n:
            weights = [rng.random() for _ in range(n)]
            scale = sum(weights) / rng.uniform(0.6, 0.98)  # sum <= 1 on input
            for w in weights:
                doc["transitions"].append({
                    "action": rng.choice(actions),
                    "probability": round(w / scale, 9),
                    "next_state": node(layer + 1),
                })
        return doc

    return {"next_state": node(1)}


def tree_action_values_oracle(root, gamma: float = 0.9) -> dict:
    """Expected value per root action via explicit path enumeration.

    Sums score(n) * gamma^depth(n) * P(reach n) over every node n in each
    root transition's subtree, independently of the recursive backup.
    """
    values: dict = {}
    for root_tr in root.transitions:
        total = 0.0
        stack = [(root_tr.next_state, root_tr.probability, 0)]
        while stack:
            node, reach_p, depth = stack.pop()
            total += node.score * (gamma ** depth) * reach_p
            for tr in node.transitions:
                stack.append((tr.next_state, reach_p * tr.probability, depth + 1))
        values[root_tr.action] = values.get(root_tr.action, 0.0) + total
    return values


def random_envelope(rng: random.Random, allocator: LogIdAllocator):
    header = MessageHeader(
        timestamp=tick_to_timestamp(rng.randint(0, 500_000)),
        agent_id=f"robot_{rng.randint(1, 20):02d}",
        importance=rng.choice(list(Importance)),
    )
    kind = rng.choice(list(PayloadKind))
    payload = Payload(kind, random_body(rng, kind))
    return make_envelope(header, payload, allocator)


def enumerated_beliefs(episode, params):
    """Filtering posteriors via exhaustive hidden-path enumeration.

    Returns one posterior per prefix of the episode, marginalizing the joint
    over every hidden path under the uniform initial prior.
    """
    import itertools

    import numpy as np

    n = params.n_states
    out = []
    for t in range(1, len(episode) + 1):
        prefix = episode[:t]
        marginal = np.zeros(n)
        for path in itertools.product(range(n), repeat=t + 1):
            weight = 1.0 / n
            for step, (action, obs) in enumerate(prefix):
                weight *= (params.transition[action][path[step], path[step + 1]]
                           * params.emission[path[step + 1], obs])
            marginal[path[-1]] += weight
        out.append(marginal / marginal.sum())
    return out


def quick_envelope(agent_id: str, importance: Importance,
                   allocator: LogIdAllocator, text: str = "x", tick: int = 0):
    header = MessageHeader(tick_to_timestamp(tick), agent_id, importance)
    return make_envelope(header, Payload(PayloadKind.ACTION_FEEDBACK,
                                         {"action": text, "success": True}),
                         allocator)


def model_states(model) -> list:
    """Every state a declared transition model names, sorted."""
    states = set(model.transitions)
    for outcomes in model.transitions.values():
        states.update(nxt for _, _, nxt in outcomes)
    return sorted(states)
