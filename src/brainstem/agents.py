"""Cortical processing units and the role-playing contract layer.

The numeric layer realizes the collective-coordination recurrence (own
candidate plus connectivity-weighted neighbour outputs), multimodal fusion,
an attention-style semantic blend, and the plan/semantic-state comparison
that triggers replans. Numeric maps are fixed deterministic realizations
(hash embedders, convex blends); correctness claims target the composition
laws, not learned behaviour.

The contract layer parses and validates the leader / worker / provider JSON
documents emitted by a pluggable completion backend.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DimensionMismatch, SchemaViolation, UnknownModality
from .protocol import (PayloadKind, collaboration_decision_problems,
                       decomposition_plan_problems, parse_json,
                       validate_schema)

EMBED_DIM = 16
INSPECT_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# deterministic embeddings
# ---------------------------------------------------------------------------

class HashEmbedder:
    """Deterministic document -> unit vector, stable across runs and hosts."""

    def __init__(self, dim: int = EMBED_DIM, namespace: str = ""):
        self.dim = dim
        self.namespace = namespace

    def embed(self, doc) -> np.ndarray:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, default=str)
        digest = hashlib.sha256(
            (self.namespace + "\x1f" + text).encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        vector = rng.standard_normal(self.dim)
        return vector / np.linalg.norm(vector)


# ---------------------------------------------------------------------------
# collective coordination (output recurrence over the connectivity matrix)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentOutput:
    vector: np.ndarray
    produced_at: int
    agent_id: str

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=float)
        object.__setattr__(self, "vector", vector)
        if not np.all(np.isfinite(vector)):
            raise ValueError(f"output of {self.agent_id} must be finite")


class ConnectivityMatrix:
    """Sparse block matrix F[i][j]: maps agent j's output into agent i's space.

    Diagonal blocks are forbidden; absent blocks are zero.
    """

    def __init__(self):
        self._blocks: dict = {}

    def connect(self, dst: str, src: str, block) -> "ConnectivityMatrix":
        if dst == src:
            raise ValueError("diagonal blocks are not allowed")
        self._blocks[(dst, src)] = np.asarray(block, dtype=float)
        return self

    def block(self, dst: str, src: str):
        return self._blocks.get((dst, src))

    def edges_into(self, dst: str) -> list:
        return [src for (d, src) in self._blocks if d == dst]


def combine_outputs(own: AgentOutput, neighbors: Mapping[str, AgentOutput],
                    connectivity: ConnectivityMatrix) -> AgentOutput:
    """own + sum of F[i][j] @ o_{t-1}^j over connected neighbours j."""
    total = own.vector.copy()
    for src in connectivity.edges_into(own.agent_id):
        if src not in neighbors:
            continue
        block = connectivity.block(own.agent_id, src)
        previous = neighbors[src].vector
        if block.shape[1] != previous.shape[0] or block.shape[0] != total.shape[0]:
            raise DimensionMismatch(
                f"block {own.agent_id}<-{src} is {block.shape}, outputs are "
                f"{total.shape[0]} and {previous.shape[0]}")
        total = total + block @ previous
    return AgentOutput(total, own.produced_at, own.agent_id)


# ---------------------------------------------------------------------------
# perception: multimodal fusion
# ---------------------------------------------------------------------------

def fuse_observations(observations: Mapping[str, object],
                      embedders: Mapping[str, HashEmbedder],
                      weights: Optional[Mapping[str, np.ndarray]] = None,
                      backbone: Optional[Callable] = None) -> np.ndarray:
    """z = backbone(sum_m W_m @ embed_m(obs_m)); identity defaults throughout."""
    total = None
    for modality in sorted(observations):
        if modality not in embedders:
            raise UnknownModality(f"no embedder registered for {modality!r}")
        embedded = embedders[modality].embed(observations[modality])
        if weights is not None and modality in weights:
            embedded = np.asarray(weights[modality], dtype=float) @ embedded
        total = embedded if total is None else total + embedded
    if total is None:
        raise UnknownModality("no observations to fuse")
    return backbone(total) if backbone is not None else total


# ---------------------------------------------------------------------------
# semantic interpretation: fixed-weight attention blend
# ---------------------------------------------------------------------------

def interpret_context(z_t, m_t, h_prev, return_weights: bool = False):
    """Convex attention-style blend of features, memory and prior semantics.

    Weights are a softmax over dot products with the mean query, so they sum
    to 1; equal inputs are a fixed point and zero inputs stay zero.
    """
    inputs = [np.asarray(v, dtype=float) for v in (z_t, m_t, h_prev)]
    dim = inputs[0].shape
    if any(v.shape != dim for v in inputs):
        raise DimensionMismatch(
            f"semantic inputs disagree: {[v.shape for v in inputs]}")
    query = sum(inputs) / 3.0
    scores = np.array([float(v @ query) / np.sqrt(inputs[0].shape[0])
                       for v in inputs])
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights = weights / weights.sum()
    blended = sum(w * v for w, v in zip(weights, inputs))
    if return_weights:
        return blended, weights
    return blended


# ---------------------------------------------------------------------------
# inspection: plan / semantic-state comparison
# ---------------------------------------------------------------------------

class InspectionVerdict(str, Enum):
    CONTINUE = "Continue"
    REPLAN = "Replan"


def inspect_alignment(plan_vec, semantic_vec,
                      threshold: float = INSPECT_THRESHOLD):
    """c = plan - semantic (common prefix dims); Replan iff max |c| > threshold."""
    plan_vec = np.asarray(plan_vec, dtype=float)
    semantic_vec = np.asarray(semantic_vec, dtype=float)
    if plan_vec.ndim != 1 or semantic_vec.ndim != 1:
        raise DimensionMismatch("inspection inputs must be vectors")
    common = min(plan_vec.shape[0], semantic_vec.shape[0])
    if common == 0:
        raise DimensionMismatch("inspection inputs must be non-empty")
    monitoring = plan_vec[:common] - semantic_vec[:common]
    verdict = (InspectionVerdict.REPLAN
               if np.max(np.abs(monitoring)) > threshold
               else InspectionVerdict.CONTINUE)
    return monitoring, verdict


# ---------------------------------------------------------------------------
# role contracts over a completion backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionPlan:
    difficulty: str
    subtasks: tuple

    @classmethod
    def from_doc(cls, doc: object) -> "DecompositionPlan":
        problems = decomposition_plan_problems(doc)
        if problems:
            raise SchemaViolation(problems)
        return cls(doc["difficulty"], tuple(dict(s) for s in doc["subtasks"]))

    def to_doc(self) -> dict:
        return {"difficulty": self.difficulty,
                "subtasks": [dict(s) for s in self.subtasks]}


@dataclass(frozen=True)
class CollaborationDecision:
    collaboration_required: bool
    requirement: tuple

    @classmethod
    def from_doc(cls, doc: object) -> "CollaborationDecision":
        problems = collaboration_decision_problems(doc)
        if problems:
            raise SchemaViolation(problems)
        return cls(doc["collaboration_required"],
                   tuple(dict(r) for r in doc["requirement"]))


@dataclass(frozen=True)
class ProviderResponse:
    response: str


def plan_mission(mission: str, backend) -> DecompositionPlan:
    """Leader decomposition: the validated plan.

    The plan document is checked against the leader contract, dependency
    annotations included, before anything downstream sees it.
    """
    text = backend.complete("leader", mission)
    return DecompositionPlan.from_doc(parse_json(text, "plan"))


def worker_reflect(subtask: Mapping, registry, backend
                   ) -> CollaborationDecision:
    """Self-reflection on a subtask: parsed, contract-valid, and asking only
    colleagues that ``registry.check_worker`` accepts."""
    text = backend.complete("worker", subtask["task_description"])
    decision = CollaborationDecision.from_doc(parse_json(text, "decision"))
    for request in decision.requirement:
        registry.check_worker(request["worker_id"])
    return decision


def provider_execute(request: Mapping, backend) -> ProviderResponse:
    """Execute a colleague-requested subtask and certify the result."""
    text = backend.complete("provider", request["request_detail"])
    doc = parse_json(text, "response")
    validate_schema(PayloadKind.AGENT_RESPONSE, doc)
    return ProviderResponse(doc["response"])
