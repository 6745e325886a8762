import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from brainstem.agents import (AgentOutput, ConnectivityMatrix, HashEmbedder,
                              InspectionVerdict, combine_outputs,
                              fuse_observations, inspect_alignment,
                              interpret_context, plan_mission, provider_execute,
                              worker_reflect)
from brainstem.backends import RemoteBackend, ScriptedBackend
from brainstem.errors import (BackendError, DimensionMismatch, SchemaViolation,
                              UnknownModality)
from brainstem.registry import AgentDescriptor, AgentRegistry, Role
from support import UNKNOWN_COLLEAGUE


def out(agent_id, vector, t=0):
    return AgentOutput(np.asarray(vector, dtype=float), t, agent_id)


# -- output combination ---------------------------------------------------------

def test_zero_connectivity_returns_own():
    connectivity = ConnectivityMatrix()
    own = out("a", [1.0, 2.0])
    combined = combine_outputs(own, {"b": out("b", [9.0, 9.0])}, connectivity)
    assert np.array_equal(combined.vector, [1.0, 2.0])


def test_identity_block_passes_neighbor_through():
    connectivity = ConnectivityMatrix().connect("a", "b", np.eye(2))
    own = out("a", [0.0, 0.0])
    combined = combine_outputs(own, {"b": out("b", [3.0, -1.0])}, connectivity)
    assert np.array_equal(combined.vector, [3.0, -1.0])


def test_three_agent_chain_matches_unrolled_recurrence():
    rng = np.random.default_rng(0)
    dim = 4
    connectivity = ConnectivityMatrix()
    blocks = {}
    for dst, src in (("b", "a"), ("c", "b")):
        blocks[(dst, src)] = rng.standard_normal((dim, dim)) * 0.3
        connectivity.connect(dst, src, blocks[(dst, src)])
    candidates = {name: [rng.standard_normal(dim) for _ in range(5)]
                  for name in "abc"}

    previous = {name: out(name, np.zeros(dim)) for name in "abc"}
    module_path = []
    for t in range(5):
        current = {
            name: combine_outputs(out(name, candidates[name][t], t), previous,
                                  connectivity)
            for name in "abc"
        }
        module_path.append({n: current[n].vector.copy() for n in current})
        previous = current

    # independent unrolled recurrence, plain python
    prev = {name: np.zeros(dim) for name in "abc"}
    for t in range(5):
        cur = {
            "a": candidates["a"][t].copy(),
            "b": candidates["b"][t] + blocks[("b", "a")] @ prev["a"],
            "c": candidates["c"][t] + blocks[("c", "b")] @ prev["b"],
        }
        for name in "abc":
            assert np.allclose(module_path[t][name], cur[name], atol=1e-12)
        prev = cur


def test_linearity_in_neighbors():
    rng = np.random.default_rng(1)
    connectivity = ConnectivityMatrix().connect("a", "b",
                                                rng.standard_normal((3, 3)))
    own = out("a", rng.standard_normal(3))
    neighbor = rng.standard_normal(3)
    base = combine_outputs(own, {"b": out("b", np.zeros(3))}, connectivity).vector
    for alpha in (0.5, 2.0, -1.0):
        scaled = combine_outputs(own, {"b": out("b", alpha * neighbor)},
                                 connectivity).vector
        unit = combine_outputs(own, {"b": out("b", neighbor)},
                               connectivity).vector
        assert np.allclose(scaled - base, alpha * (unit - base), atol=1e-12)


def test_block_shape_mismatch_raises():
    connectivity = ConnectivityMatrix().connect("a", "b", np.eye(3))
    with pytest.raises(DimensionMismatch):
        combine_outputs(out("a", [1.0, 2.0]), {"b": out("b", [1.0, 2.0, 3.0])},
                        connectivity)


def test_diagonal_block_forbidden():
    with pytest.raises(ValueError):
        ConnectivityMatrix().connect("a", "a", np.eye(2))


# -- perception fusion ------------------------------------------------------------

def embedders(dim=8):
    return {"vision": HashEmbedder(dim, "vision"),
            "text": HashEmbedder(dim, "text")}


def test_single_modality_identity_weights():
    emb = embedders()
    doc = {"objects": ["cube"]}
    fused = fuse_observations({"vision": doc}, emb,
                              weights={"vision": np.eye(8)})
    assert np.allclose(fused, emb["vision"].embed(doc))


def test_zero_weight_removes_modality():
    emb = embedders()
    obs = {"vision": {"objects": ["cube"]}, "text": "fetch the apple"}
    with_two = fuse_observations(obs, emb, weights={"text": np.zeros((8, 8))})
    only_vision = fuse_observations({"vision": obs["vision"]}, emb)
    assert np.allclose(with_two, only_vision)


def test_fusion_invariant_to_modality_order():
    emb = embedders()
    obs = {"vision": {"objects": ["cube"]}, "text": "fetch"}
    reordered = {"text": "fetch", "vision": {"objects": ["cube"]}}
    assert np.allclose(fuse_observations(obs, emb),
                       fuse_observations(reordered, emb))


def test_unknown_modality_raises():
    with pytest.raises(UnknownModality):
        fuse_observations({"smell": {}}, embedders())


def test_hash_embedder_deterministic_unit_norm():
    emb = HashEmbedder(16, "test")
    a = emb.embed({"k": 1})
    b = emb.embed({"k": 1})
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert not np.allclose(a, emb.embed({"k": 2}))


# -- semantic blend -------------------------------------------------------------

def test_common_vector_is_fixed_point():
    v = np.array([0.3, -0.2, 0.5])
    blended = interpret_context(v, v, v)
    assert np.allclose(blended, v, atol=1e-12)


def test_blend_weights_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        _, weights = interpret_context(rng.standard_normal(6),
                                       rng.standard_normal(6),
                                       rng.standard_normal(6),
                                       return_weights=True)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)


def test_zero_inputs_zero_output():
    z = np.zeros(4)
    assert np.array_equal(interpret_context(z, z, z), z)


def test_semantic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        interpret_context(np.zeros(3), np.zeros(4), np.zeros(3))


# -- inspection ----------------------------------------------------------------

def test_identical_inputs_continue():
    v = np.array([0.1, 0.9])
    monitoring, verdict = inspect_alignment(v, v)
    assert np.array_equal(monitoring, np.zeros(2))
    assert verdict is InspectionVerdict.CONTINUE


def test_divergence_above_threshold_replans():
    _, verdict = inspect_alignment(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                                   threshold=0.5)
    assert verdict is InspectionVerdict.REPLAN


def test_verdict_translation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.standard_normal(5)
        h = rng.standard_normal(5)
        shift = rng.standard_normal(5)
        _, before = inspect_alignment(p, h)
        _, after = inspect_alignment(p + shift, h + shift)
        assert before is after


def test_threshold_monotone():
    p = np.array([0.6, 0.0])
    h = np.zeros(2)
    _, verdict = inspect_alignment(p, h, threshold=0.5)
    assert verdict is InspectionVerdict.REPLAN
    # growing any |c| component never flips Replan -> Continue
    _, harder = inspect_alignment(np.array([0.9, 0.0]), h, threshold=0.5)
    assert harder is InspectionVerdict.REPLAN


# -- role contracts --------------------------------------------------------------

def test_leader_difficulty_examples():
    backend = ScriptedBackend()
    low = plan_mission("walk to the desk", backend)
    assert low["difficulty"] == "low"
    medium = plan_mission("fetch an apple on the desk", backend)
    assert medium["difficulty"] == "medium"
    high = plan_mission("make a chicken sandwich in the kitchen", backend)
    assert high["difficulty"] == "high"
    assert len(high["subtasks"]) >= 2


def test_unknown_mission_falls_back_to_generic_plan():
    plan = plan_mission("grab the harry potter book", ScriptedBackend())
    assert plan["difficulty"] == "medium"
    assert len(plan["subtasks"]) == 1
    assert "action" not in plan["subtasks"][0]


def test_scripted_backend_deterministic():
    backend = ScriptedBackend()
    assert backend.complete("leader", "grab cube from cabinet") == \
        backend.complete("leader", "grab cube from cabinet")


def five_workers() -> AgentRegistry:
    registry = AgentRegistry()
    for i in range(1, 6):
        registry.register_agent(
            AgentDescriptor(f"Worker_{i}", Role.WORKER, ("x",)))
    return registry


def test_worker_reflection_contract_example():
    backend = ScriptedBackend()
    decision = worker_reflect(
        {"task_description": "Compile the quarterly sales report"},
        five_workers(), backend)
    assert decision["collaboration_required"]
    first = decision["requirement"][0]
    assert first["request_id"] == "0001"
    assert first["worker_id"] == "Worker_1"
    assert "sales growth metrics" in first["request_detail"]


def test_worker_reflection_self_sufficient_default():
    decision = worker_reflect({"task_description": "polish the table"},
                              five_workers(), ScriptedBackend())
    assert not decision["collaboration_required"]
    assert decision["requirement"] == []


class UnknownColleagueBackend:
    def complete(self, role, key):
        return UNKNOWN_COLLEAGUE


def test_worker_reflection_unknown_colleague_rejected():
    with pytest.raises(SchemaViolation,
                       match="'Worker_9' is not an active registered worker"):
        worker_reflect({"task_description": "Compile the quarterly sales report"},
                       five_workers(), UnknownColleagueBackend())


def test_provider_contract_example():
    response = provider_execute(
        {"request_detail": "Verify statistical significance (p<0.05) in "
                           "dataset A/B groups"},
        ScriptedBackend())
    assert "p=0.032" in response["response"]


def test_provider_empty_response_rejected():
    class EmptyReply:
        def complete(self, role, key):
            return json.dumps({"response": ""})

    with pytest.raises(SchemaViolation):
        provider_execute({"request_detail": "bad"}, EmptyReply())


def test_provider_deterministic():
    backend = ScriptedBackend()
    a = provider_execute({"request_detail": "check the tides"}, backend)
    b = provider_execute({"request_detail": "check the tides"}, backend)
    assert a["response"] == b["response"]


def test_remote_backend_retries_then_raises():
    backend = RemoteBackend("http://127.0.0.1:1/completions", retries=2,
                            timeout=0.05, backoff=0.0)
    with pytest.raises(BackendError):
        backend.complete("leader", "anything")


def test_scripted_runs_load_no_network_stack():
    code = ("import sys\n"
            "import brainstem.harness\n"
            "from brainstem.backends import ScriptedBackend\n"
            "ScriptedBackend()\n"
            "print(sorted(m for m in ('urllib.request', 'http.client', 'email',"
            " 'ssl') if m in sys.modules))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_remote_backend_from_env_requires_url():
    with pytest.raises(BackendError):
        RemoteBackend.from_env({})
    backend = RemoteBackend.from_env({"BRAINSTEM_BACKEND_URL": "http://x",
                                      "BRAINSTEM_BACKEND_TOKEN": "t"})
    assert backend.token == "t"


def test_malformed_backend_json_is_schema_violation():
    class Garbage:
        def complete(self, role, key):
            return "{not json"

    with pytest.raises(SchemaViolation):
        plan_mission("anything", Garbage())
