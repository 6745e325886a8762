"""Round trip against a live local HTTP completion endpoint."""

import gc
import http.server
import json
import socketserver
import threading
import time
import warnings
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


def serve(server):
    """Serve in a thread; ``shutdown()`` then waits at most one short poll."""
    threading.Thread(target=server.serve_forever, args=(0.01,),
                     daemon=True).start()


@pytest.fixture
def endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Endpoint)
    serve(server)
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()


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


def test_refused_replies_leave_no_socket_open(endpoint, monkeypatch):
    # an HTTP error keeps its reply, and a kept reply its socket, unless the
    # backend closes it
    monkeypatch.setattr(_Endpoint, "fail_n", 99)
    backend = RemoteBackend(endpoint, retries=2, backoff=0, timeout=5.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            backend.complete("leader", "walk to the desk")
        except BackendError:
            pass
        gc.collect()
    assert [str(w.message) for w in caught] == []


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
    """Reads one request, writes the server's raw ``reply`` bytes, closes.

    With a ``pause`` the head goes at once, or with ``trickle_head`` one byte
    per ``pause`` seconds as the body does, until the client hangs up. The
    server's ``done`` is set once the reply has ended either way.
    """

    def handle(self):
        self.server.requests += 1
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        if not self.server.pause:
            self.wfile.write(self.server.reply)
            return
        head, _, body = self.server.reply.partition(b"\r\n\r\n")
        head += b"\r\n\r\n"
        if self.server.trickle_head:
            head, body = b"", head + body
        try:
            self.wfile.write(head)
            for byte in body:
                time.sleep(self.server.pause)
                self.wfile.write(bytes([byte]))
        except OSError:  # the client gave up
            pass
        finally:
            self.server.done.set()


@contextmanager
def raw_endpoint(reply, pause=0.0, trickle_head=False):
    server = socketserver.TCPServer(("127.0.0.1", 0), _RawEndpoint)
    server.reply, server.pause, server.requests = reply, pause, 0
    server.trickle_head, server.done = trickle_head, threading.Event()
    serve(server)
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


def test_non_utf8_reply_is_malformed_without_a_retry():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe"
    with raw_endpoint(reply) as server:
        result = run_trial(1, 0, backend=RemoteBackend(
            url_of(server), retries=3, backoff=0, timeout=5.0))
        assert server.requests == 1
    assert (result.outcome, result.ticks_elapsed) == (Outcome.HANDLED_ABORT, 0)
    assert result.detail.startswith("malformed reply: ")


def test_trickled_reply_is_cut_at_the_attempt_timeout():
    # each byte comes within the 0.5 s a socket read may wait, but the
    # 12 of them take 3.6 s
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n" + b"x" * 12
    with raw_endpoint(reply, pause=0.3) as server:
        backend = RemoteBackend(url_of(server), retries=1, backoff=0,
                                timeout=0.5)
        start = time.monotonic()
        with pytest.raises(BackendError, match="no whole reply within 0.5 s"):
            backend.complete("leader", "walk to the desk")
        assert time.monotonic() - start < 2 * backend.timeout


def test_trickled_head_is_cut_at_the_attempt_timeout():
    # each byte of the 55-byte head comes within the 0.5 s a socket read may
    # wait, but the head takes 16.5 s
    reply = (b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nX-Pad: 0123456"
             b"\r\n\r\n" + b"x" * 12)
    with raw_endpoint(reply, pause=0.3, trickle_head=True) as server:
        backend = RemoteBackend(url_of(server), retries=1, backoff=0,
                                timeout=0.5)
        start = time.monotonic()
        with pytest.raises(BackendError, match="no whole reply within 0.5 s"):
            backend.complete("leader", "walk to the desk")
        assert time.monotonic() - start < 2 * backend.timeout
        # the client has closed its socket: the endpoint's next writes fail
        assert server.done.wait(timeout=2.0)
