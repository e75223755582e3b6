"""Stdlib HTTP/JSON front for the mining service.

No web framework — :class:`http.server.ThreadingHTTPServer` accepts
connections on OS threads while one background asyncio loop owns the
:class:`~repro.service.service.MiningService`; handler threads bridge
into it with :func:`asyncio.run_coroutine_threadsafe`.  That keeps the
batching semantics identical to the in-process API: concurrent HTTP
requests land on the *same* loop, so they coalesce into the same fused
batches an embedded caller would get.

Endpoints::

    POST /query   one request envelope (see repro.service.handlers)
    GET  /stats   the metrics snapshot
    GET  /health  liveness probe

Run it with ``python -m repro.service`` or ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .service import MiningService, ServiceConfig

__all__ = ["ServiceHTTPServer", "serve", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

# How long a handler thread waits for the loop to serve one request.
# Mining calls are bounded by budgets/guards; this is the last resort.
REQUEST_TIMEOUT_S = 600.0

# Largest request body /query reads.  Envelopes are a few hundred bytes
# (a verb, a graph name, a pattern spec); anything near this is not one.
MAX_REQUEST_BYTES = 1 << 20


class _RequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a mining bench
    # issuing thousands of queries must not pay for (or spam) that.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, code: str, message: str) -> None:
        self._send_json(
            status,
            {"ok": False, "error": {"code": code, "message": message, "status": status}},
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/health":
            self._send_json(200, {"ok": True})
            return
        if self.path == "/stats":
            response = self.server.run_request({"verb": "stats"})
            self._send_json(200 if response.get("ok") else 500, response)
            return
        self._send_error(404, "not_found", f"no such endpoint: {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/query":
            self._send_error(404, "not_found", f"no such endpoint: {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:  # rfile.read(-1) would block until the peer closes
                raise ValueError(f"negative Content-Length {length}")
        except ValueError as exc:
            # The body's extent is unknown, so the connection cannot be reused.
            self.close_connection = True
            self._send_error(400, "invalid_request", f"bad Content-Length: {exc}")
            return
        if length > MAX_REQUEST_BYTES:
            self.close_connection = True  # the body is left unread
            self._send_error(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds {MAX_REQUEST_BYTES}",
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            self._send_error(
                400, "invalid_request", f"request body is not valid JSON: {exc}"
            )
            return
        response = self.server.run_request(payload)
        if response.get("ok"):
            status = 200
        else:
            status = response.get("error", {}).get("status", 500)
        self._send_json(status, response)


class ServiceHTTPServer(ThreadingHTTPServer):
    """The HTTP front bound to one service and one background loop."""

    daemon_threads = True

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        service: MiningService | None = None,
        config: ServiceConfig | None = None,
    ):
        super().__init__((host, port), _RequestHandler)
        self.service = service if service is not None else MiningService(config)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True
        )
        self._loop_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound (host, port) — port 0 resolves here."""
        return self.server_address[0], self.server_address[1]

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def run_request(self, payload) -> dict:
        """Serve one envelope on the service loop (handler threads call this)."""
        future = asyncio.run_coroutine_threadsafe(
            self.service.handle(payload), self._loop
        )
        return future.result(timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        """Stop accepting, drain the service, and tear the loop down."""
        self.shutdown()  # stop serve_forever(); waits for it to exit
        self.server_close()
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.close(), self._loop
            ).result(timeout=REQUEST_TIMEOUT_S)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10.0)
            self._loop.close()


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    config: ServiceConfig | None = None,
    ready: threading.Event | None = None,
) -> None:
    """Run the HTTP front until interrupted (the ``repro serve`` loop)."""
    server = ServiceHTTPServer(host, port, config=config)
    bound_host, bound_port = server.address
    print(f"repro service listening on http://{bound_host}:{bound_port}")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print("repro service stopped")
