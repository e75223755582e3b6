"""The real service as a subprocess, and the closed-loop HTTP clients.

Two client threads, one keep-alive connection each, is the whole load:
callers that wait for a reply form a closed loop, and two connections is
what a 2-core box can generate without the generator itself becoming
the bottleneck.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .harness import Tracer, peak_rss_mb

CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """``python -m repro.service --port 0 --workers 2`` with default config."""

    def __init__(self, src: Path, workdir: Path):
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            PYTHONUNBUFFERED="1",
            TMPDIR=str(workdir),
        )
        self.output: list[str] = []
        self._banner = threading.Event()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=workdir,
        )
        # Drained on a thread so a chatty server can never block on a full pipe.
        self._drain = threading.Thread(target=self._read_output, daemon=True)
        self._drain.start()
        if not self._banner.wait(BOOT_TIMEOUT_S):
            self.kill()
            raise RuntimeError(f"no listening banner; server said: {self.output!r}")
        match = _LISTENING.search(self.output[0])
        self.host, self.port = match.group(1), int(match.group(2))

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            if _LISTENING.search(line):
                self._banner.set()
        self._banner.set()  # EOF: wake the waiter so it can report the failure

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> bool:
        """SIGINT; true when the server exited 0 and said it stopped."""
        self.process.send_signal(signal.SIGINT)
        try:
            code = self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._drain.join(timeout=10.0)
        return code == 0 and any("repro service stopped" in line for line in self.output)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Client:
    """One keep-alive connection; ``post`` times one round trip."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        self.conn.connect()
        # http.client writes headers and body separately; without this the
        # generator itself would add Nagle stalls to what it measures.
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, payload: dict) -> tuple[float, int, bytes]:
        body = json.dumps(payload)
        begin = time.perf_counter()
        self.conn.request("POST", "/query", body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        return time.perf_counter() - begin, response.status, data

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def closed_loop(
    clients: list[Client], sequences: list[list[dict]], tracer: Tracer, parent: int | None
) -> list[list[tuple[dict, float, int, bytes]]]:
    """Each client sends its sequence, the next request only after the reply.

    Returns per client the ``(request, seconds, status, body)`` rows.  A
    transport error (timeout, reset) is recorded as status 0 so it counts
    as a failed request instead of killing the run.
    """
    def drive(index: int) -> list[tuple[dict, float, int, bytes]]:
        rows = []
        broken: bytes | None = None
        for request in sequences[index]:
            if broken is not None:
                # The connection is unusable after a transport error: the
                # rest of the sequence fails at the full timeout.
                rows.append((request, REQUEST_TIMEOUT_S, 0, broken))
                continue
            with tracer.span("service.http.request", parent=parent, client=index,
                             verb=request["verb"], pattern=request["pattern"]):
                begin = time.perf_counter()
                try:
                    rows.append((request, *clients[index].post(request)))
                except (OSError, http.client.HTTPException) as exc:
                    broken = repr(exc).encode()
                    rows.append((request, time.perf_counter() - begin, 0, broken))
        return rows

    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        return list(pool.map(drive, range(len(clients))))
