"""Tests for the stdlib HTTP/JSON front (repro.service.http).

Starts a real server on an ephemeral port, speaks real HTTP at it with
urllib, and checks the endpoint surface: query dispatch, stats, health,
error status codes, malformed bodies, and clean shutdown.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.session import MiningSession
from repro.graph import barabasi_albert
from repro.pattern import generate_clique
from repro.service import ServiceHTTPServer
from repro.service.http import MAX_REQUEST_BYTES
from repro.service.service import MiningService, ServiceConfig


@pytest.fixture
def server():
    """A live server on an OS-assigned port, torn down after the test."""
    service = MiningService(ServiceConfig(workers=1, max_wait_ms=1.0))
    graph = barabasi_albert(120, 3, seed=4)
    service.register_graph("g", graph)
    http_server = ServiceHTTPServer("127.0.0.1", 0, service=service)
    # shutdown() waits out one poll interval; the 0.5 s default would be
    # paid on every teardown.
    thread = threading.Thread(
        target=http_server.serve_forever,
        kwargs={"poll_interval": 0.01},
        daemon=True,
    )
    thread.start()
    try:
        yield http_server, graph
    finally:
        http_server.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def _post(server: ServiceHTTPServer, payload, path: str = "/query"):
    host, port = server.address
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _get(server: ServiceHTTPServer, path: str):
    host, port = server.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30.0
        ) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestHTTPFront:
    def test_count_round_trip(self, server):
        http_server, graph = server
        status, body = _post(
            http_server,
            {"verb": "count", "graph": "g", "pattern": "clique:3"},
        )
        assert status == 200 and body["ok"]
        truth = MiningSession(graph).count(generate_clique(3))
        assert body["result"]["count"] == truth

    def test_stats_endpoint(self, server):
        http_server, _ = server
        _post(
            http_server,
            {"verb": "count", "graph": "g", "pattern": "clique:3"},
        )
        status, body = _get(http_server, "/stats")
        assert status == 200 and body["ok"]
        assert body["result"]["requests"]["count"] >= 1
        assert body["result"]["registry"]["sessions"] == 1

    def test_health_endpoint(self, server):
        http_server, _ = server
        assert _get(http_server, "/health") == (200, {"ok": True})

    def test_error_statuses_propagate(self, server):
        http_server, _ = server
        status, body = _post(
            http_server,
            {"verb": "count", "graph": "no/such.rgx", "pattern": "clique:3"},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_graph"
        status, body = _post(
            http_server,
            {"verb": "count", "graph": "g", "pattern": "bogus"},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_pattern"

    def test_malformed_json_is_400(self, server):
        http_server, _ = server
        status, body = _post(http_server, b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize(
        "length, status, code",
        [
            ("-1", 400, "invalid_request"),
            ("lots", 400, "invalid_request"),
            (str(MAX_REQUEST_BYTES + 1), 413, "payload_too_large"),
        ],
    )
    def test_bad_content_length_is_refused_without_reading(
        self, server, length, status, code
    ):
        """No body is sent: a handler that trusted the header would block
        in ``rfile.read`` until the client gave up."""
        http_server, _ = server
        conn = http.client.HTTPConnection(*http_server.address, timeout=5.0)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            body = json.load(response)
        finally:
            conn.close()
        assert response.status == status
        assert body["error"]["code"] == code and body["error"]["status"] == status
        assert response.getheader("Connection") == "close"
        # The server is still serving.
        assert _get(http_server, "/health") == (200, {"ok": True})

    def test_unknown_endpoint_is_404(self, server):
        http_server, _ = server
        status, body = _get(http_server, "/nope")
        assert status == 404 and body["error"]["code"] == "not_found"
        status, body = _post(http_server, {"verb": "stats"}, path="/other")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_concurrent_http_requests_fuse(self, server):
        """Parallel HTTP clients coalesce on the shared service loop."""
        http_server, graph = server
        truth = MiningSession(graph).count(generate_clique(3))
        results: list = [None] * 8
        # A window wide enough that all threads land inside it.
        http_server.service.queue.max_wait_ms = 50.0

        def client(i: int) -> None:
            results[i] = _post(
                http_server,
                {"verb": "count", "graph": "g", "pattern": "clique:3"},
            )

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        for status, body in results:
            assert status == 200
            assert body["result"]["count"] == truth
        batching = http_server.service.stats()["batching"]
        assert batching["fused_requests"] >= 2
        assert batching["deduped_requests"] >= 1


def test_module_main_parser_defaults():
    from repro.service.__main__ import build_parser

    args = build_parser().parse_args([])
    assert args.port == 8765 and args.workers == 2
    args = build_parser().parse_args(["--no-batching", "--port", "0"])
    assert args.no_batching and args.port == 0
