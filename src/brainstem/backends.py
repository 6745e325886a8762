"""Completion backends: a deterministic scripted table and a remote adapter.

Every agent role talks text-in/text-out. The scripted backend maps
(role, scenario key) to canned contract-conformant documents so whole runs
are reproducible without any model in the loop; the remote adapter posts the
rendered prompt to a completion endpoint with bounded retries, reads at most
``MAX_REPLY_BYTES`` of its reply, and waits in no read of it, status line and
headers included, past the attempt's ``timeout``.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Mapping, Optional

from .errors import BackendError, SchemaViolation

MAX_RETRIES = 3
# longest remote reply read, in bytes; a longer one is refused, not retried
MAX_REPLY_BYTES = 1 << 20


def _plan(difficulty, *subtasks):
    return {"difficulty": difficulty, "subtasks": list(subtasks)}


def _subtask(sid, worker, desc, focus, action=None, depends_on=None):
    doc = {"subtask_id": sid, "assigned_worker": worker,
           "task_description": desc, "focus": focus}
    if action is not None:
        doc["action"] = action
    if depends_on is not None:
        doc["depends_on"] = depends_on
    return doc


LEADER_PLANS = {
    "walk to the desk": _plan("low"),
    "fetch an apple on the desk": _plan(
        "medium",
        _subtask("ST1", "Worker_3", "fetch the apple from the desk",
                 ["grasping", "reach planning", "care"])),
    "make a chicken sandwich in the kitchen": _plan(
        "high",
        _subtask("ST1", "Worker_1", "gather sandwich ingredients from the fridge",
                 ["perception", "retrieval", "inventory"]),
        _subtask("ST2", "Worker_3", "assemble the sandwich on the counter",
                 ["manipulation", "sequencing", "hygiene"], depends_on=["ST1"]),
        _subtask("ST3", "Worker_5", "plate and deliver the sandwich",
                 ["delivery", "presentation", "timing"], depends_on=["ST2"])),
    # benchmark missions
    "grab cube from cabinet": _plan(
        "medium",
        _subtask("ST1", "Worker_3", "open the cabinet and retrieve the cube",
                 ["localization", "grasping", "containers"],
                 action="retrieve cube")),
    "grab the blue cube": _plan(
        "medium",
        _subtask("ST1", "Worker_3", "identify and grasp the blue cube",
                 ["color discrimination", "grasping", "precision"],
                 action="pick blue cube")),
    "lift blue cube": _plan(
        "low",
        _subtask("ST1", "Worker_3", "lift the cube held in the gripper",
                 ["vertical motion", "stability", "grip force"],
                 action="lift held cube")),
    "try and plug the right charger": _plan(
        "medium",
        _subtask("ST1", "Worker_3", "find and plug the matching charger",
                 ["fine manipulation", "port matching", "retry"],
                 action="plug charger")),
    "find and fetch the apple": _plan(
        "high",
        _subtask("ST1", "Worker_2", "explore and locate the apple",
                 ["exploration", "object detection", "mapping"],
                 action="locate apple"),
        _subtask("ST2", "Worker_3", "fetch the apple",
                 ["approach", "grasping", "delivery"],
                 action="fetch apple", depends_on=["ST1"])),
    "fetch the apple (occlusion)": _plan(
        "high",
        _subtask("ST1", "Worker_4", "expose the occluded apple",
                 ["scene understanding", "viewpoints", "occlusion"],
                 action="locate apple"),
        _subtask("ST2", "Worker_3", "fetch the apple",
                 ["approach", "grasping", "care"],
                 action="fetch apple", depends_on=["ST1"])),
    "fetch the apple (dynamic deletion)": _plan(
        "high",
        _subtask("ST1", "Worker_2", "explore and locate the apple",
                 ["exploration", "object detection", "vigilance"],
                 action="locate apple"),
        _subtask("ST2", "Worker_3", "fetch the apple",
                 ["approach", "grasping", "monitoring"],
                 action="fetch apple", depends_on=["ST1"])),
}

WORKER_REFLECTIONS = {
    "Compile the quarterly sales report": {
        "collaboration_required": True,
        "requirement": [
            {"request_id": "0001", "worker_id": "Worker_1",
             "request_detail": "Validate the accuracy of sales growth metrics "
                               "in the dataset."},
            {"request_id": "0002", "worker_id": "Worker_2",
             "request_detail": "Conduct volatility analysis on the companies "
                               "in the dataset."},
        ],
    },
    "fetch the apple": {
        "collaboration_required": True,
        "requirement": [
            {"request_id": "0001", "worker_id": "Worker_1",
             "request_detail": "Confirm the detected object is the target "
                               "apple before the grasp."},
        ],
    },
}

PROVIDER_RESPONSES = {
    "Verify statistical significance (p<0.05) in dataset A/B groups": {
        "response": "Statistical analysis reveals a significant difference "
                    "between groups A and B (p=0.032 < 0.05), with group A "
                    "showing a higher mean value of 42.7 compared to group "
                    "B's 38.1",
    },
}

SELF_SUFFICIENT = {"collaboration_required": False, "requirement": []}


_SCRIPTS = {"leader": LEADER_PLANS, "worker": WORKER_REFLECTIONS,
            "provider": PROVIDER_RESPONSES}


class ScriptedBackend:
    """Deterministic (role, key) -> canned response table.

    Unknown leader missions fall back to a generic single-subtask medium plan
    with no action annotation; the episode's tree-search selector picks every
    action either way. Unknown worker keys reflect as self-sufficient;
    unknown provider keys return a deterministic completion note.
    """

    def complete(self, role: str, key: str) -> str:
        entries = _SCRIPTS.get(role, {})
        if key in entries:
            value = entries[key]
        elif role == "leader":
            value = _plan("medium", {
                "subtask_id": "ST1",
                "assigned_worker": "Worker_1",
                "task_description": str(key),
                "focus": ["perception", "navigation", "manipulation"],
            })
        elif role == "worker":
            value = SELF_SUFFICIENT
        elif role == "provider":
            value = {"response": f"Completed analysis for request: {key}. "
                                 "Findings consistent with expectations."}
        else:
            raise BackendError(f"no scripted entry for ({role!r}, {key!r})")
        return json.dumps(value, sort_keys=True)


@contextmanager
def _urlopen(request, timeout: float):
    """The reply ``urlopen(request, timeout=timeout)`` gives, except that no
    read of it waits past ``timeout`` from now: urlopen's own timeout bounds
    each socket read, not the reply. Every response read is closed on exit,
    an ``HTTPError``'s included."""
    import http.client
    import urllib.request

    deadline = time.monotonic() + timeout
    responses = []

    def respond(sock, **kwargs):
        # the response reads its status line, headers and body through its
        # raw reader's readinto
        response = http.client.HTTPResponse(sock, **kwargs)
        responses.append(response)
        read = response.fp.raw.readinto

        def readinto(buffer):
            left = deadline - time.monotonic()
            if left > 0:
                sock.settimeout(left)
                try:
                    return read(buffer)
                except TimeoutError:
                    pass
            raise TimeoutError(f"no whole reply within {timeout} s")

        response.fp.raw.readinto = readinto
        return response

    class Deadline:  # its connections read each response through respond
        def do_open(self, http_class, req, **kwargs):
            return super().do_open(type(http_class.__name__, (http_class,), {
                "response_class": staticmethod(respond)}), req, **kwargs)

    # in place of urllib's HTTP and HTTPS handlers; its other defaults, such
    # as environment proxies, stay
    opener = urllib.request.build_opener(*(
        type(base.__name__, (Deadline, base), {})
        for base in (urllib.request.HTTPHandler, urllib.request.HTTPSHandler)))
    try:
        yield opener.open(request, timeout=timeout)
    finally:
        for response in responses:
            response.close()


class RemoteBackend:
    """Posts prompts to a text completion endpoint; retries then raises."""

    def __init__(self, url: str, token: Optional[str] = None,
                 model: Optional[str] = None, timeout: float = 10.0,
                 retries: int = MAX_RETRIES, backoff: float = 0.2):
        self.url = url
        self.token = token
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    @classmethod
    def from_env(cls, environ: Mapping) -> "RemoteBackend":
        url = environ.get("BRAINSTEM_BACKEND_URL")
        if not url:
            raise BackendError("BRAINSTEM_BACKEND_URL is not set")
        text = environ.get("BRAINSTEM_BACKEND_TIMEOUT", "10")
        try:
            timeout = float(text)
            if not 0.0 < timeout < math.inf:
                raise ValueError(text)
        except ValueError:
            raise BackendError(
                f"BRAINSTEM_BACKEND_TIMEOUT must be a finite number of "
                f"seconds > 0, got {text!r}") from None
        return cls(
            url=url,
            token=environ.get("BRAINSTEM_BACKEND_TOKEN"),
            model=environ.get("BRAINSTEM_BACKEND_MODEL"),
            timeout=timeout,
        )

    def complete(self, role: str, key) -> str:
        # the network stack loads only when a request is sent, so scripted
        # runs never import it
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps({"role": role, "prompt": str(key),
                           "model": self.model}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            request = urllib.request.Request(self.url, data=body,
                                             headers=headers)
            try:
                with _urlopen(request, self.timeout) as reply:
                    data = reply.read(MAX_REPLY_BYTES + 1)
                    if len(data) > MAX_REPLY_BYTES:  # not retried
                        raise BackendError(f"remote reply is longer than "
                                           f"{MAX_REPLY_BYTES} bytes")
                    if reply.length:
                        # a bounded read returns a body shorter than its
                        # Content-Length without raising
                        raise http.client.IncompleteRead(data, reply.length)
            except (urllib.error.URLError, http.client.HTTPException,
                    OSError, ValueError) as exc:
                last_error = exc
                continue
            # JSON text is UTF-8: a whole reply that is not is malformed,
            # and asking again would not mend it
            try:
                return data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaViolation(
                    f"remote reply is not UTF-8: {exc}") from None
        raise BackendError(f"remote backend failed after {self.retries} "
                           f"attempts: {last_error}")
