"""Round trip against a live local HTTP completion endpoint."""

import http.server
import json
import socketserver
import threading
from contextlib import contextmanager

import pytest

from brainstem.backends import MAX_REPLY_BYTES, RemoteBackend
from brainstem.episode import Outcome, run_trial
from brainstem.errors import BackendError


class _Endpoint(http.server.BaseHTTPRequestHandler):
    fail_n = 0  # class-level: first N requests return 500

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if _Endpoint.fail_n > 0:
            _Endpoint.fail_n -= 1
            self.send_response(500)
            self.end_headers()
            return
        reply = json.dumps({"difficulty": "low", "subtasks": [],
                            "echo_role": body["role"]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()


def test_remote_backend_round_trip(endpoint):
    backend = RemoteBackend(endpoint, token="secret", timeout=5.0)
    text = backend.complete("leader", "walk to the desk")
    doc = json.loads(text)
    assert doc["difficulty"] == "low"
    assert doc["echo_role"] == "leader"


def test_remote_backend_retries_through_transient_errors(endpoint):
    _Endpoint.fail_n = 2
    backend = RemoteBackend(endpoint, retries=3, backoff=0.01, timeout=5.0)
    text = backend.complete("leader", "walk to the desk")
    assert json.loads(text)["difficulty"] == "low"


def test_remote_backend_gives_up_after_retry_budget(endpoint):
    _Endpoint.fail_n = 99
    backend = RemoteBackend(endpoint, retries=2, backoff=0.01, timeout=5.0)
    with pytest.raises(BackendError):
        backend.complete("leader", "walk to the desk")
    _Endpoint.fail_n = 0


@pytest.mark.parametrize("timeout", ["abc", "0", "-1", "nan", "inf"])
def test_from_env_refuses_a_bad_timeout(timeout):
    environ = {"BRAINSTEM_BACKEND_URL": "http://127.0.0.1:9/complete",
               "BRAINSTEM_BACKEND_TIMEOUT": timeout}
    with pytest.raises(BackendError, match="BRAINSTEM_BACKEND_TIMEOUT"):
        RemoteBackend.from_env(environ)


# replies that break HTTP itself, each raising its own http.client error:
# BadStatusLine, IncompleteRead (a body shorter than its Content-Length) and
# LineTooLong (a header line past http.client's 64 KiB limit)
BROKEN_REPLIES = {
    "bad_status_line": b"HELLO\r\n\r\n",
    "incomplete_read": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nok",
    "line_too_long": b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000
                     + b"\r\n\r\n",
}


class _RawEndpoint(socketserver.StreamRequestHandler):
    """Reads one request, writes the server's raw ``reply`` bytes, closes."""

    def handle(self):
        self.server.requests += 1
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        self.wfile.write(self.server.reply)


@contextmanager
def raw_endpoint(reply):
    server = socketserver.TCPServer(("127.0.0.1", 0), _RawEndpoint)
    server.reply, server.requests = reply, 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(params=list(BROKEN_REPLIES.values()),
                ids=list(BROKEN_REPLIES))
def broken_endpoint(request):
    with raw_endpoint(request.param) as server:
        yield server


def url_of(server):
    return f"http://127.0.0.1:{server.server_address[1]}/complete"


def test_http_protocol_error_is_retried_then_a_backend_error(broken_endpoint):
    backend = RemoteBackend(url_of(broken_endpoint), retries=2, backoff=0,
                            timeout=5.0)
    with pytest.raises(BackendError, match="failed after 2 attempts"):
        backend.complete("leader", "walk to the desk")
    assert broken_endpoint.requests == 2


def test_http_protocol_error_ends_the_trial_not_the_batch(broken_endpoint):
    backend = RemoteBackend(url_of(broken_endpoint), retries=1, backoff=0,
                            timeout=5.0)
    result = run_trial(1, 0, backend=backend)
    assert (result.outcome, result.ticks_elapsed) == (Outcome.HANDLED_ABORT, 0)
    assert result.detail.startswith(
        "backend: remote backend failed after 1 attempts: ")


def reply_of(length):
    """A 200 reply whose body, ``length`` bytes, ends when the server closes."""
    return b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + b"x" * length


def test_remote_reply_up_to_the_limit_is_read_whole():
    with raw_endpoint(reply_of(MAX_REPLY_BYTES)) as server:
        backend = RemoteBackend(url_of(server), timeout=5.0)
        assert backend.complete("leader", "walk to the desk") == \
            "x" * MAX_REPLY_BYTES


def test_remote_reply_past_the_limit_is_refused_without_a_retry():
    with raw_endpoint(reply_of(MAX_REPLY_BYTES + 1)) as server:
        backend = RemoteBackend(url_of(server), retries=3, backoff=0,
                                timeout=5.0)
        with pytest.raises(BackendError,
                           match=f"longer than {MAX_REPLY_BYTES} bytes"):
            backend.complete("leader", "walk to the desk")
        assert server.requests == 1


def test_remote_reply_past_the_limit_ends_the_trial():
    with raw_endpoint(reply_of(MAX_REPLY_BYTES + 1)) as server:
        result = run_trial(1, 0, backend=RemoteBackend(
            url_of(server), retries=3, backoff=0, timeout=5.0))
    assert (result.outcome, result.ticks_elapsed) == (Outcome.HANDLED_ABORT, 0)
    assert result.detail == (f"backend: remote reply is longer than "
                             f"{MAX_REPLY_BYTES} bytes")
