"""Round trip against a live local HTTP completion endpoint."""

import http.server
import json
import threading

import pytest

from brainstem.backends import RemoteBackend
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
