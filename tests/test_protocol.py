import ast
import json
import pathlib
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brainstem.errors import (BrainstemError, CanonicalizationError,
                              ChecksumMismatch, ParseError, SchemaViolation)
from brainstem.protocol import (Envelope, Importance, LogIdAllocator,
                                MessageHeader, Payload,
                                PayloadKind, canonicalize,
                                collaboration_decision_problems, compute_checksum,
                                decode_envelope, decomposition_plan_problems,
                                make_envelope,
                                serialize_envelope, validate_header, validate_schema)
from support import crc32_oracle, random_envelope


def header(ts="2025-05-19T14:23:01Z", agent="robot_03", imp=Importance.HIGH):
    return MessageHeader(ts, agent, imp)


# -- checksum -----------------------------------------------------------------

def test_crc_empty_input():
    assert compute_checksum(b"") == "00000000"


def test_crc_standard_check_value():
    # "123456789" is the standard CRC-32 check string
    assert compute_checksum(b"123456789") == "cbf43926"
    assert crc32_oracle(b"123456789") == "cbf43926"


@given(st.binary(max_size=256))
def test_crc_matches_table_oracle(data):
    assert compute_checksum(data) == crc32_oracle(data)


def test_single_bit_flip_changes_checksum():
    rng = random.Random(7)
    for _ in range(200):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 64)))
        flipped = bytearray(data)
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 << rng.randrange(8)
        assert compute_checksum(data) != compute_checksum(bytes(flipped))


# -- canonical form -------------------------------------------------------------

def test_canonicalize_sorts_keys():
    h = header()
    a = canonicalize(h, Payload(PayloadKind.SUBTASK_ASSIGN, {
        "difficulty": "low",
        "subtasks": [{"subtask_id": "ST1", "assigned_worker": "Worker_1"}]}))
    b = canonicalize(h, Payload(PayloadKind.SUBTASK_ASSIGN, {
        "subtasks": [{"assigned_worker": "Worker_1", "subtask_id": "ST1"}],
        "difficulty": "low"}))
    assert a == b


def test_canonicalize_rejects_nan():
    with pytest.raises(CanonicalizationError):
        canonicalize(header(), Payload(PayloadKind.HTN_MEMORY,
                                       {"vector": [float("nan")], "tick": 0}))
    with pytest.raises(CanonicalizationError):
        canonicalize(header(), Payload(PayloadKind.HTN_MEMORY,
                                       {"vector": [float("inf")], "tick": 0}))


def test_canonicalize_deterministic():
    payload = Payload(PayloadKind.ACTION_FEEDBACK, {"action": "désk", "success": True})
    assert canonicalize(header(), payload) == canonicalize(header(), payload)


# -- encode / decode --------------------------------------------------------------

def test_example_message_round_trips():
    h = header()
    payload = Payload(PayloadKind.ACTION_FEEDBACK, {
        "action": "inspect_zone_B3",
        "success": False,
        "error": "object_detected",
        "tick": 12,
    })
    wire = serialize_envelope(make_envelope(h, payload,
                                            LogIdAllocator(start=24890)))
    doc = json.loads(wire)
    assert set(doc) == {"header", "payload", "checksum", "log_id"}
    assert doc["header"]["timestamp"] == "2025-05-19T14:23:01Z"
    assert doc["header"]["agent_id"] == "robot_03"
    assert doc["header"]["importance"] == "HIGH"
    assert doc["payload"]["body"]["action"] == "inspect_zone_B3"
    assert doc["log_id"] == "MSG_24890"
    decoded = decode_envelope(wire)
    assert decoded.header == h
    assert decoded.payload == payload
    assert serialize_envelope(decoded) == wire


def test_round_trip_random_envelopes():
    rng = random.Random(11)
    allocator = LogIdAllocator()
    for _ in range(300):
        envelope = random_envelope(rng, allocator)
        wire = serialize_envelope(envelope)
        assert decode_envelope(wire) == envelope


def test_invalid_importance_rejected_before_encoding():
    bad = MessageHeader("2025-05-19T14:23:01Z", "robot_03", "URGENT")
    with pytest.raises(SchemaViolation):
        make_envelope(bad, Payload(PayloadKind.AGENT_RESPONSE, {"response": "x"}),
                      LogIdAllocator())


def test_decode_rejects_zeroed_checksum():
    wire = serialize_envelope(make_envelope(
        header(), Payload(PayloadKind.AGENT_RESPONSE, {"response": "hello"}),
        LogIdAllocator()))
    doc = json.loads(wire)
    assert doc["checksum"] != "00000000"
    doc["checksum"] = "00000000"
    tampered = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ChecksumMismatch):
        decode_envelope(tampered)


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        decode_envelope(b"{not json")
    with pytest.raises(ParseError):
        decode_envelope(b'{"header": {}}')
    with pytest.raises(ParseError):
        decode_envelope(b"\xff\xfe\x00")


def nested_wire(depth: int) -> bytes:
    """A well-formed envelope, with a wrong checksum, whose body holds lists
    nested ``depth`` deep; text, since json.dumps may not reach that depth."""
    body = '{"response":' + "[" * depth + "]" * depth + "}"
    return ('{"checksum":"00000000","header":{"agent_id":"robot_03",'
            '"importance":"HIGH","timestamp":"2025-05-19T14:23:01Z"},'
            '"log_id":"MSG_00001","payload":{"body":' + body
            + ',"kind":"AgentResponse"}}').encode()


DEPTHS = range(980, 1011, 2)


@pytest.mark.parametrize("wire", [*map(nested_wire, DEPTHS), b"[" * 100000],
                         ids=[*(f"body_{d}" for d in DEPTHS), "brackets"])
def test_decode_of_deeply_nested_bytes_is_a_wire_error(wire):
    # near the interpreter's recursion limit the parse, the finiteness walk
    # or the canonical dump overflows, depending on the caller's stack
    with pytest.raises((ChecksumMismatch, ParseError)):
        decode_envelope(wire)


def test_decode_of_a_body_that_parses_then_overflows_is_a_wire_error():
    # bodies just shallower than the parse limit overflow later, in the
    # finiteness walk or the canonical dump; the depth moves with the stack
    for depth in range(900, 980):
        with pytest.raises((ChecksumMismatch, ParseError)):
            decode_envelope(nested_wire(depth))


def test_canonical_encoders_refuse_a_body_nested_past_the_stack():
    deep: list = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    payload = Payload(PayloadKind.AGENT_RESPONSE, {"response": deep})
    with pytest.raises(CanonicalizationError):
        canonicalize(header(), payload)
    with pytest.raises(CanonicalizationError):
        serialize_envelope(Envelope(header(), payload, "00000000", "MSG_00001"))


@given(st.binary())
def test_decode_of_arbitrary_bytes_is_an_envelope_or_a_classified_error(data):
    try:
        assert isinstance(decode_envelope(data), Envelope)
    except BrainstemError:
        pass


def test_decode_rejects_repeated_key():
    # json would keep the last "payload", which alone the checksum covers
    wire = serialize_envelope(make_envelope(
        header(), Payload(PayloadKind.AGENT_RESPONSE, {"response": "hi"}),
        LogIdAllocator()))
    assert decode_envelope(wire).payload.body == {"response": "hi"}
    evil = b'"payload":{"kind":"AgentResponse","body":{"response":"EVIL"}},'
    tampered = wire.replace(b'"payload":', evil + b'"payload":', 1)
    with pytest.raises(ParseError, match="repeated key 'payload'"):
        decode_envelope(tampered)


def test_decode_validates_payload_schema():
    h = header()
    body = {"difficulty": "high",
            "subtasks": [{"subtask_id": "ST1",
                          "task_description": "make a slogan",
                          "focus": ["a", "b", "c"]}]}  # missing assigned_worker
    doc = {
        "header": h.to_doc(),
        "payload": {"kind": "SubtaskAssign", "body": body},
        "log_id": "MSG_00001",
    }
    doc["checksum"] = compute_checksum(
        canonicalize(doc["header"], doc["payload"], doc["log_id"]))
    wire = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(SchemaViolation) as excinfo:
        decode_envelope(wire)
    assert any("assigned_worker" in p for p in excinfo.value.problems)


def test_tamper_evidence_single_bit_flips():
    rng = random.Random(23)
    allocator = LogIdAllocator()
    for _ in range(300):
        envelope = random_envelope(rng, allocator)
        wire = serialize_envelope(envelope)
        flipped = bytearray(wire)
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 << rng.randrange(8)
        try:
            decoded = decode_envelope(bytes(flipped))
        except (ChecksumMismatch, ParseError):
            continue
        # a flip may leave the document undamaged only if it was undone by
        # json (impossible for canonical form) — never a different envelope
        assert decoded == envelope, "corruption slipped through undetected"


# -- log ids ------------------------------------------------------------------

def test_log_ids_monotone_and_unique():
    allocator = LogIdAllocator()
    ids = [allocator.allocate() for _ in range(1500)]
    assert len(set(ids)) == len(ids)
    numbers = [int(i.split("_")[1]) for i in ids]
    assert numbers == sorted(numbers)
    assert ids[0] == "MSG_00001"


def test_log_id_allocator_thread_safe():
    import threading
    allocator = LogIdAllocator()
    out = []

    def grab():
        for _ in range(500):
            out.append(allocator.allocate())

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(out)) == 4000


# -- header / schema validation ------------------------------------------------------

def test_header_requires_utc_instant():
    with pytest.raises(SchemaViolation):
        validate_header(header(ts="not-a-time"))
    with pytest.raises(SchemaViolation):
        validate_header(header(ts="2025-05-19T14:23:01+02:00"))
    with pytest.raises(SchemaViolation):
        validate_header(header(agent=""))
    validate_header(header())  # Z-suffixed UTC accepted


def test_leader_plan_schema_accepts_contract_example():
    body = {
        "difficulty": "high",
        "subtasks": [{
            "subtask_id": "ST1",
            "assigned_worker": "Worker_2",
            "task_description": "Generate a marketing slogan for the product.",
            "focus": ["creativity", "brand alignment", "conciseness"],
        }],
    }
    assert validate_schema(PayloadKind.SUBTASK_ASSIGN, body) == body


def test_plan_schema_rejects_duplicate_worker():
    body = {
        "difficulty": "high",
        "subtasks": [
            {"subtask_id": "ST1", "assigned_worker": "Worker_3",
             "task_description": "a", "focus": ["x", "y", "z"]},
            {"subtask_id": "ST2", "assigned_worker": "Worker_3",
             "task_description": "b", "focus": ["x", "y", "z"]},
        ],
    }
    with pytest.raises(SchemaViolation):
        validate_schema(PayloadKind.SUBTASK_ASSIGN, body)


def test_plan_schema_rejects_bad_focus_length():
    body = {
        "difficulty": "high",
        "subtasks": [{"subtask_id": "ST1", "assigned_worker": "Worker_1",
                      "task_description": "a", "focus": ["only", "two"]}],
    }
    with pytest.raises(SchemaViolation):
        validate_schema(PayloadKind.SUBTASK_ASSIGN, body)


@pytest.mark.parametrize("deps, phrase", [
    ({"ST2": ["ST9"]}, "'ST9', which is not a subtask"),
    ({"ST1": ["ST2"], "ST2": ["ST1"]}, "cycle"),
    # ST2 without depends_on chains after ST1 by id, closing the loop
    ({"ST1": ["ST2"]}, "cycle"),
    ({"ST1": ["ST1"]}, "cycle"),
], ids=["dangling", "cyclic", "implicit-cycle", "self-loop"])
def test_plan_schema_rejects_broken_dependencies(deps, phrase):
    body = {"difficulty": "high", "subtasks": [
        {"subtask_id": sid, "assigned_worker": worker,
         "task_description": "a", "focus": ["x", "y", "z"]}
        for sid, worker in (("ST1", "Worker_1"), ("ST2", "Worker_2"))]}
    for subtask in body["subtasks"]:
        if subtask["subtask_id"] in deps:
            subtask["depends_on"] = deps[subtask["subtask_id"]]
    problems = decomposition_plan_problems(body)
    assert any(phrase in problem for problem in problems), problems
    with pytest.raises(SchemaViolation):
        validate_schema(PayloadKind.SUBTASK_ASSIGN, body)


def test_plan_schema_accepts_dependency_order():
    body = {"difficulty": "high", "subtasks": [
        {"subtask_id": "ST1", "assigned_worker": "Worker_1",
         "task_description": "a", "focus": ["x", "y", "z"],
         "depends_on": ["ST2"]},
        {"subtask_id": "ST2", "assigned_worker": "Worker_2",
         "task_description": "b", "focus": ["x", "y", "z"],
         "depends_on": []},
    ]}
    assert decomposition_plan_problems(body) == []


def test_plan_check_of_a_long_chain_is_linear():
    # each subtask depends on the one before; a scan of the id list per
    # dependency would make this check take ~20 s
    n = 40_000
    body = {"difficulty": "high", "subtasks": [
        {"subtask_id": f"ST{i:05d}", "assigned_worker": f"Worker_{i}",
         "task_description": "a", "focus": ["x", "y", "z"],
         "depends_on": [f"ST{i - 1:05d}"] if i else []}
        for i in range(n)]}
    start = time.perf_counter()
    assert decomposition_plan_problems(body) == []
    assert time.perf_counter() - start < 5.0


def test_collaboration_schema_flag_must_match_requirement():
    body = {"collaboration_required": False,
            "requirement": [{"request_id": "0001", "worker_id": "Worker_1",
                             "request_detail": "Validate the metrics"}]}
    assert any("requirement" in p for p in collaboration_decision_problems(body))
    body["collaboration_required"] = True
    assert collaboration_decision_problems(body) == []
    # decisions never travel on the bus: an AgentResponse is a provider result
    with pytest.raises(SchemaViolation):
        validate_schema(PayloadKind.AGENT_RESPONSE, body)


def test_provider_schema_requires_nonempty_response():
    with pytest.raises(SchemaViolation):
        validate_schema(PayloadKind.AGENT_RESPONSE, {"response": ""})


def test_schema_reports_every_problem():
    body = {"difficulty": "urgent", "subtasks": "nope", "extra": 1}
    with pytest.raises(SchemaViolation) as excinfo:
        validate_schema(PayloadKind.SUBTASK_ASSIGN, body)
    text = "\n".join(excinfo.value.problems)
    assert "difficulty" in text and "subtasks" in text and "extra" in text


def test_htn_memory_accepts_snapshot_refuses_tree():
    snapshot = {"vector": [0.1, -0.2], "tick": 12}
    assert validate_schema(PayloadKind.HTN_MEMORY, snapshot) == snapshot
    # state trees never travel on the bus: HtnMemory is a memory snapshot
    tree = {"next_state": {"state": "s", "score": 0.5, "is_goal": True,
                           "transitions": []}}
    with pytest.raises(SchemaViolation):
        validate_schema(PayloadKind.HTN_MEMORY, tree)


def test_every_payload_kind_has_a_producer():
    # the vocabulary holds only kinds some module of the program stamps
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "brainstem"
    named = set()
    for path in package.glob("*.py"):
        if path.name != "protocol.py":
            named.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute))
    assert [kind.name for kind in PayloadKind if kind.name not in named] == []
