"""Checksummed wire envelopes: canonical bytes, CRC-32 integrity, payload schemas.

Every message is one UTF-8 JSON document with top-level keys ``header``,
``payload``, ``checksum`` and ``log_id``. The checksum is CRC-32 (IEEE,
reflected, init/final-xor 0xFFFFFFFF) over the canonical encoding of the
header, payload and log id, so any single-bit corruption outside the checksum
field itself is detectable. Canonical form: sorted keys, no insignificant
whitespace, UTF-8, non-finite numbers rejected.

The payload vocabulary is closed: exactly the four kinds the program sends,
each with one schema.

- ``SubtaskAssign``: the leader's decomposition plan (``episode``).
- ``AgentResponse``: a provider's certified result (``episode``).
- ``ActionFeedback``: the outcome of a finished action (``episode``).
- ``HtnMemory``: an episodic-memory snapshot (``memory.broadcast_memory``).

Documents that need only be JSON, such as backend replies and CLI input
files, are read by :func:`parse_json`, which reports any malformed one
(nested too deeply included) as ``SchemaViolation``.
"""

from __future__ import annotations

import json
import math
import re
import threading
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Any

from .errors import (CanonicalizationError, ChecksumMismatch, CycleDetected,
                     ParseError, SchemaViolation)
from .planner import subtask_order
from .simenv import TICKS_PER_SECOND


class Importance(str, Enum):
    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"


class PayloadKind(str, Enum):
    SUBTASK_ASSIGN = "SubtaskAssign"
    AGENT_RESPONSE = "AgentResponse"
    HTN_MEMORY = "HtnMemory"
    ACTION_FEEDBACK = "ActionFeedback"


_LOG_ID_RE = re.compile(r"^MSG_[0-9]+$")
_CHECKSUM_RE = re.compile(r"^[0-9a-f]{8}$")


@dataclass(frozen=True)
class MessageHeader:
    timestamp: str
    agent_id: str
    importance: Importance

    def to_doc(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "agent_id": self.agent_id,
            "importance": self.importance.value,
        }


@dataclass(frozen=True)
class Payload:
    kind: PayloadKind
    body: dict

    def to_doc(self) -> dict:
        return {"kind": self.kind.value, "body": self.body}


@dataclass(frozen=True)
class Envelope:
    header: MessageHeader
    payload: Payload
    checksum: str
    log_id: str


def parse_utc_instant(text: str) -> datetime:
    """Parse an ISO-8601 UTC instant; raise SchemaViolation otherwise."""
    if not isinstance(text, str) or not text:
        raise SchemaViolation("timestamp: must be a non-empty ISO-8601 string")
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise SchemaViolation(f"timestamp: {text!r} is not ISO-8601") from None
    if stamp.tzinfo is None or stamp.utcoffset() != timedelta(0):
        raise SchemaViolation(f"timestamp: {text!r} is not a UTC instant")
    return stamp


_EPOCH = datetime(2025, 5, 19, 14, 0, 0, tzinfo=timezone.utc)


def tick_to_timestamp(tick: int) -> str:
    """Deterministic timestamp for virtual-clock runs: tick 0 is ``_EPOCH``."""
    stamp = _EPOCH + timedelta(seconds=tick / TICKS_PER_SECOND)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def validate_header(header: MessageHeader) -> MessageHeader:
    problems = []
    try:
        parse_utc_instant(header.timestamp)
    except SchemaViolation as exc:
        problems.extend(exc.problems)
    if not isinstance(header.agent_id, str) or not header.agent_id:
        problems.append("agent_id: must be a non-empty string")
    if not isinstance(header.importance, Importance):
        problems.append(f"importance: {header.importance!r} is not one of HIGH/MEDIUM/LOW")
    if problems:
        raise SchemaViolation(problems)
    return header


class LogIdAllocator:
    """Atomic monotone counter for ``MSG_<n>`` log ids, unique per runtime."""

    def __init__(self, start: int = 1):
        self._next = start
        self._lock = threading.Lock()

    def allocate(self) -> str:
        with self._lock:
            value = self._next
            self._next += 1
        return f"MSG_{value:05d}"


# ---------------------------------------------------------------------------
# reading outside documents
# ---------------------------------------------------------------------------

def parse_json(text: str, what: str) -> Any:
    """The JSON document ``text``; ``SchemaViolation`` naming ``what`` when
    it is malformed or nested too deeply to parse."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaViolation(f"{what}: malformed JSON ({exc})") from None


# ---------------------------------------------------------------------------
# canonical bytes and checksum
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token!r}")


def _reject_repeated_keys(pairs):
    # json keeps a repeated key's last value, which the checksum would then
    # cover while the earlier ones went unchecked
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _assert_finite(doc: Any, path: str = "") -> None:
    if isinstance(doc, float) and not math.isfinite(doc):
        raise CanonicalizationError(f"non-finite number at {path or '<root>'}")
    if isinstance(doc, dict):
        for key, value in doc.items():
            if not isinstance(key, str):
                raise CanonicalizationError(f"non-string key {key!r} at {path or '<root>'}")
            _assert_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            _assert_finite(value, f"{path}[{i}]")


def _dump(doc: Any) -> bytes:
    """Canonical bytes: sorted keys, no whitespace, UTF-8, finite numbers."""
    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, allow_nan=False)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CanonicalizationError(str(exc)) from None
    return text.encode("utf-8")


def canonicalize(header: MessageHeader | dict, payload: Payload | dict,
                 log_id: str | None = None) -> bytes:
    """Deterministic byte encoding of a message's checksummed content.

    Sorted keys, no whitespace, UTF-8. ``log_id`` is included when given so
    that the checksum also protects the id field on the wire.
    """
    header_doc = header.to_doc() if isinstance(header, MessageHeader) else header
    payload_doc = payload.to_doc() if isinstance(payload, Payload) else payload
    doc = {"header": header_doc, "payload": payload_doc}
    if log_id is not None:
        doc["log_id"] = log_id
    try:
        _assert_finite(doc)
    except RecursionError as exc:
        raise CanonicalizationError(str(exc)) from None
    return _dump(doc)


def compute_checksum(data: bytes) -> str:
    """CRC-32/IEEE of ``data`` as 8 lowercase hex characters."""
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def make_envelope(header: MessageHeader, payload: Payload,
                  allocator: LogIdAllocator) -> Envelope:
    """Validate, checksum and stamp a new envelope."""
    validate_header(header)
    body = validate_schema(payload.kind, payload.body)
    payload = Payload(payload.kind, body)
    log_id = allocator.allocate()
    checksum = compute_checksum(canonicalize(header, payload, log_id))
    return Envelope(header, payload, checksum, log_id)


def serialize_envelope(envelope: Envelope) -> bytes:
    """Canonical wire bytes for an already-stamped envelope."""
    doc = {
        "header": envelope.header.to_doc(),
        "payload": envelope.payload.to_doc(),
        "checksum": envelope.checksum,
        "log_id": envelope.log_id,
    }
    return _dump(doc)


def _structural_problems(doc: Any) -> str | None:
    """Shape checks that must pass before checksum verification.

    Kept deliberately type-level: content errors are the checksum's job.
    """
    if not isinstance(doc, dict) or set(doc) != {"header", "payload", "checksum", "log_id"}:
        return "top-level keys must be exactly header/payload/checksum/log_id"
    header = doc["header"]
    if not isinstance(header, dict) or set(header) != {"timestamp", "agent_id", "importance"}:
        return "header keys must be exactly timestamp/agent_id/importance"
    if not all(isinstance(header[k], str) for k in ("timestamp", "agent_id", "importance")):
        return "header fields must be strings"
    payload = doc["payload"]
    if not isinstance(payload, dict) or set(payload) != {"kind", "body"}:
        return "payload keys must be exactly kind/body"
    if not isinstance(payload["kind"], str) or not isinstance(payload["body"], dict):
        return "payload kind must be a string and body a document"
    if not isinstance(doc["checksum"], str) or not _CHECKSUM_RE.match(doc["checksum"]):
        return "checksum must be 8 lowercase hex characters"
    if not isinstance(doc["log_id"], str) or not _LOG_ID_RE.match(doc["log_id"]):
        return "log_id must match MSG_<digits>"
    return None


def decode_envelope(data: bytes) -> Envelope:
    """Parse wire bytes, verify integrity, then validate schemas.

    Order matters: checksum verification runs before any semantic validation
    so corruption surfaces as ChecksumMismatch/ParseError, never as a
    schema error or a silently different envelope.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc}") from None
    try:
        doc = json.loads(text, parse_constant=_reject_constant,
                         object_pairs_hook=_reject_repeated_keys)
    except (ValueError, RecursionError) as exc:  # or nested too deeply
        raise ParseError(f"malformed document: {exc}") from None

    problem = _structural_problems(doc)
    if problem is not None:
        raise ParseError(problem)

    try:
        expected = compute_checksum(
            canonicalize(doc["header"], doc["payload"], doc["log_id"]))
    except CanonicalizationError as exc:
        raise ParseError(f"non-canonical content: {exc}") from None
    if expected != doc["checksum"]:
        raise ChecksumMismatch(
            f"stored {doc['checksum']} != computed {expected} for {doc['log_id']}")

    header_doc = doc["header"]
    try:
        importance = Importance(header_doc["importance"])
    except ValueError:
        raise SchemaViolation(
            f"importance: {header_doc['importance']!r} is not one of HIGH/MEDIUM/LOW") from None
    header = MessageHeader(header_doc["timestamp"], header_doc["agent_id"], importance)
    validate_header(header)

    payload_doc = doc["payload"]
    try:
        kind = PayloadKind(payload_doc["kind"])
    except ValueError:
        raise SchemaViolation(f"kind: {payload_doc['kind']!r} is not registered") from None
    body = validate_schema(kind, payload_doc["body"])
    return Envelope(header, Payload(kind, body), doc["checksum"], doc["log_id"])


# ---------------------------------------------------------------------------
# payload schemas (the agent wire contracts, field by field)
# ---------------------------------------------------------------------------

DIFFICULTY_LEVELS = ("low", "medium", "high")
FOCUS_MIN, FOCUS_MAX = 3, 5


def is_finite_number(value) -> bool:
    """A finite int or float; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(is_finite_number(v) for v in value)


def _nonempty_str(value) -> bool:
    return isinstance(value, str) and bool(value)


def _check_keys(body: dict, required: dict, optional: dict, problems: list,
                where: str = "") -> None:
    """Field-by-field check: missing, extra and mistyped entries all recorded."""
    prefix = f"{where}." if where else ""
    for name, (pred, expect) in required.items():
        if name not in body:
            problems.append(f"{prefix}{name}: missing required field")
        elif not pred(body[name]):
            problems.append(f"{prefix}{name}: expected {expect}")
    for name, (pred, expect) in optional.items():
        if name in body and not pred(body[name]):
            problems.append(f"{prefix}{name}: expected {expect}")
    for name in body:
        if name not in required and name not in optional:
            problems.append(f"{prefix}{name}: unknown field")


def decomposition_plan_problems(doc: Any) -> list:
    """Violations of the leader-output contract; empty list when valid.

    Dependency annotations must name subtasks of the plan and admit an
    execution order (see :func:`planner.subtask_order`).
    """
    problems: list = []
    if not isinstance(doc, dict):
        return ["plan: expected a document"]
    _check_keys(
        doc,
        required={
            "difficulty": (lambda v: v in DIFFICULTY_LEVELS, "one of low/medium/high"),
            "subtasks": (lambda v: isinstance(v, list), "a list of subtasks"),
        },
        optional={},
        problems=problems,
    )
    if problems:
        return problems
    seen_workers: dict = {}
    seen_ids: set = set()
    for i, subtask in enumerate(doc["subtasks"]):
        where = f"subtasks[{i}]"
        if not isinstance(subtask, dict):
            problems.append(f"{where}: expected a document")
            continue
        _check_keys(
            subtask,
            required={
                "subtask_id": (_nonempty_str, "a non-empty string"),
                "assigned_worker": (_nonempty_str, "a worker id string"),
                "task_description": (_nonempty_str, "a non-empty string"),
                "focus": (lambda v: isinstance(v, list)
                          and FOCUS_MIN <= len(v) <= FOCUS_MAX
                          and all(_nonempty_str(k) for k in v),
                          f"{FOCUS_MIN}-{FOCUS_MAX} keyword strings"),
            },
            optional={
                "depends_on": (lambda v: isinstance(v, list)
                               and all(_nonempty_str(k) for k in v),
                               "a list of subtask ids"),
                "action": (_nonempty_str, "an action name"),
            },
            problems=problems,
            where=where,
        )
        worker = subtask.get("assigned_worker")
        if isinstance(worker, str):
            if worker in seen_workers:
                problems.append(
                    f"{where}.assigned_worker: {worker} already assigned at "
                    f"subtasks[{seen_workers[worker]}] (at most one subtask per worker)")
            else:
                seen_workers[worker] = i
        sid = subtask.get("subtask_id")
        if isinstance(sid, str):
            if sid in seen_ids:
                problems.append(f"{where}.subtask_id: duplicate id {sid}")
            seen_ids.add(sid)
    if doc["difficulty"] in ("low", "medium") and len(doc["subtasks"]) > 1:
        problems.append("subtasks: only high-difficulty missions may split into "
                        "multiple subtasks")
    if not problems:
        try:
            subtask_order(doc["subtasks"])
        except SchemaViolation as exc:
            problems.extend(exc.problems)
        except CycleDetected as exc:
            problems.append(f"subtasks.depends_on: {exc}")
    return problems


def collaboration_decision_problems(doc: Any) -> list:
    problems: list = []
    if not isinstance(doc, dict):
        return ["decision: expected a document"]
    _check_keys(
        doc,
        required={
            "collaboration_required": (lambda v: isinstance(v, bool), "a boolean"),
            "requirement": (lambda v: isinstance(v, list), "a list of requests"),
        },
        optional={},
        problems=problems,
    )
    if problems:
        return problems
    if doc["collaboration_required"] != bool(doc["requirement"]):
        problems.append("requirement: must be non-empty exactly when "
                        "collaboration_required is true")
    seen: set = set()
    for i, request in enumerate(doc["requirement"]):
        where = f"requirement[{i}]"
        if not isinstance(request, dict):
            problems.append(f"{where}: expected a document")
            continue
        _check_keys(
            request,
            required={
                "request_id": (_nonempty_str, "a non-empty string"),
                "worker_id": (_nonempty_str, "a worker id string"),
                "request_detail": (_nonempty_str, "a non-empty string"),
            },
            optional={},
            problems=problems,
            where=where,
        )
        rid = request.get("request_id")
        if isinstance(rid, str):
            if rid in seen:
                problems.append(f"{where}.request_id: duplicate id {rid}")
            seen.add(rid)
    return problems


def _provider_response_problems(doc: Any) -> list:
    problems: list = []
    if not isinstance(doc, dict):
        return ["response: expected a document"]
    _check_keys(doc, required={"response": (_nonempty_str, "a non-empty string")},
                optional={}, problems=problems)
    return problems


def _htn_memory(body: dict) -> list:
    problems: list = []
    _check_keys(body, required={
        "vector": (_is_vector, "a list of finite numbers"),
        "tick": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                 "a non-negative integer"),
    }, optional={}, problems=problems)
    return problems


def _action_feedback(body: dict) -> list:
    problems: list = []
    _check_keys(body, required={
        "action": (_nonempty_str, "a non-empty string"),
        "success": (lambda v: isinstance(v, bool), "a boolean"),
    }, optional={
        "error": (lambda v: isinstance(v, str), "a string"),
        "tick": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                 "a non-negative integer"),
    }, problems=problems)
    return problems


_SCHEMAS = {
    PayloadKind.SUBTASK_ASSIGN: decomposition_plan_problems,
    PayloadKind.AGENT_RESPONSE: _provider_response_problems,
    PayloadKind.HTN_MEMORY: _htn_memory,
    PayloadKind.ACTION_FEEDBACK: _action_feedback,
}


def validate_schema(kind: PayloadKind, body: dict) -> dict:
    """Check ``body`` against the contract for ``kind``; return it unchanged.

    Raises SchemaViolation listing every missing/extra/mistyped field.
    """
    if not isinstance(kind, PayloadKind):
        raise SchemaViolation(f"kind: {kind!r} is not registered")
    if not isinstance(body, dict):
        raise SchemaViolation("body: expected a document")
    problems = _SCHEMAS[kind](body)
    if problems:
        raise SchemaViolation(problems)
    return body
