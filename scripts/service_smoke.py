#!/usr/bin/env python3
"""CI smoke for the HTTP service front: boot, query, stats, clean stop.

Launches the real entry point (``python -m repro.service --port 0``) as
a subprocess, waits for its "listening" line to learn the OS-assigned
port, issues one count query against a freshly written ``.rgx`` graph
(exercising path-based registry resolution), one request with a bad
option value (which must answer HTTP 400, not run unguarded), a
``match`` and a ``count`` under a latency budget no exact run can meet
(the match stays exact and its plan echo says so; the count samples and
its plan echo names the sampling target), a ``guard="downgrade"`` count
(a downgrade is a contract for one request, so it must run alone), an
``exists`` under a deadline it cannot meet and one under a one-row
frontier cap (each HTTP 504 ``budget_exceeded``) and one under a roomy
budget (answers ``true``), a
request whose verb is not a string (which must answer HTTP 400, not drop the connection) and
one ``/stats`` request, then interrupts the server and asserts it exits
cleanly.  Exit code 0 means the whole boot -> serve -> shutdown loop
works outside pytest.

Run:  PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return json.load(response)


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.session import MiningSession
    from repro.graph import barabasi_albert
    from repro.graph.binary_io import save_mmap
    from repro.pattern import generate_clique

    graph = barabasi_albert(200, 3, seed=11)
    expected = MiningSession(graph).count(generate_clique(3))
    hinted = {"latency_budget": 1e-9}

    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "smoke.rgx")
        save_mmap(graph, graph_path)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            line = server.stdout.readline()
            match = LISTENING.search(line)
            assert match, f"no listening banner, got: {line!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"

            count = _post(
                f"{base}/query",
                {"verb": "count", "graph": graph_path, "pattern": "clique:3"},
            )
            assert count["ok"], count
            assert count["result"]["count"] == expected, count

            try:
                _post(
                    f"{base}/query",
                    {"verb": "count", "graph": graph_path,
                     "pattern": "clique:3", "options": {"guard": "bogus"}},
                )
            except urllib.error.HTTPError as err:
                assert err.code == 400, err.code
                assert json.load(err)["error"]["code"] == "invalid_request"
            else:
                raise AssertionError("a bad option value was accepted")

            # The plan echo records what ran: an enumeration under a
            # latency budget stays exact, a count under it samples.
            exact = _post(
                f"{base}/query",
                {"verb": "match", "graph": graph_path, "pattern": "clique:3",
                 "options": hinted, "limit": 5},
            )
            assert exact["ok"], exact
            assert exact["result"]["count"] == expected, exact
            assert exact["result"]["plan"]["approx"] is None, exact
            sampled = _post(
                f"{base}/query",
                {"verb": "count", "graph": graph_path, "pattern": "clique:3",
                 "options": hinted},
            )
            assert sampled["ok"], sampled
            assert "approx" in sampled["result"], sampled
            assert sampled["result"]["plan"]["approx"] == 0.05, sampled

            guarded = _post(
                f"{base}/query",
                {"verb": "count", "graph": graph_path, "pattern": "clique:3",
                 "options": {"guard": "downgrade"}},
            )
            assert guarded["ok"], guarded
            assert guarded["result"]["count"] == expected, guarded
            assert guarded["result"]["plan"]["approx"] is None, guarded

            # exists honours its budget: a deadline no walk can meet or
            # a one-row frontier cap trips it, a roomy one lets it answer.
            for limit in ({"timeout_ms": 1e-6},
                          {"budget": {"max_frontier_rows": 1}}):
                try:
                    _post(
                        f"{base}/query",
                        {"verb": "exists", "graph": graph_path,
                         "pattern": "clique:3", **limit},
                    )
                except urllib.error.HTTPError as err:
                    assert err.code == 504, (limit, err.code)
                    assert json.load(err)["error"]["code"] == "budget_exceeded"
                else:
                    raise AssertionError(f"an exists under {limit} answered")
            roomy = _post(
                f"{base}/query",
                {"verb": "exists", "graph": graph_path, "pattern": "clique:3",
                 "budget": {"deadline": 60.0}},
            )
            assert roomy["ok"] and roomy["result"]["exists"] is True, roomy

            try:
                _post(f"{base}/query", {"verb": [1]})
            except urllib.error.HTTPError as err:
                assert err.code == 400, err.code
                assert json.load(err)["error"]["code"] == "invalid_request"
            else:
                raise AssertionError("a list verb was accepted")

            with urllib.request.urlopen(f"{base}/stats", timeout=60.0) as r:
                stats = json.load(r)
            assert stats["ok"], stats
            # the two latency-budget requests, the downgrade-guarded count
            # and the three exists probes
            assert stats["result"]["batching"]["solo_requests"] == 6, stats
            assert stats["result"]["requests"]["count"] == 4, stats
            assert stats["result"]["requests"]["match"] == 1, stats
            assert stats["result"]["requests"]["exists"] == 3, stats
            assert stats["result"]["errors"]["count"] == {
                "invalid_request": 1
            }, stats
            assert stats["result"]["errors"]["exists"] == {
                "budget_exceeded": 2
            }, stats
            assert stats["result"]["registry"]["sessions"] == 1, stats
        finally:
            server.send_signal(signal.SIGINT)
            output, _ = server.communicate(timeout=30.0)

        assert server.returncode == 0, (
            f"server exited {server.returncode}; output:\n{output}"
        )
        assert "repro service stopped" in output, output

    print(
        "service smoke OK: count + 400s + plan echoes + solo rule + exists "
        "budgets + stats served, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
