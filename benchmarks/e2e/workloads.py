"""The six workloads: set-up, one pass of fixed work, answer checks, layer probes.

A workload's *pass* is a fixed list of operations (verb calls or HTTP
requests) over inputs generated from the seed.  Every timed answer must
repeat the first answer seen for the same operation, and ``verify``
then checks those first answers against a different code path of the
program and, for the committed seed, against ``goldens.json``.
``probes`` runs only in the traced run: direct calls into single layers
that yield the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import time
from itertools import permutations
from pathlib import Path

import numpy as np

from repro.cli.parsing import parse_pattern_spec
from repro.core import MiningSession
from repro.core.multipattern import census_transform
from repro.core.plan import generate_plan
from repro.errors import ReproError
from repro.graph import open_graph
from repro.mining import fsm
from repro.mining.support import Domain
from repro.pattern import Pattern, generate_all_vertex_induced, generate_chain
from repro.pattern.extend import extend_by_edge
from repro.runtime.guards import estimate_cost
from repro.runtime.scheduler import ChunkLedger
from repro.service import MiningService, ServiceConfig

from . import inputs
from .harness import Tracer, median, peak_rss_mb, percentile
from .service_load import CLIENTS, Client, Server, closed_loop

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GOLDENS = Path(__file__).with_name("goldens.json")
MIB = float(1 << 20)


def pattern_key(pattern: Pattern) -> str:
    """Isomorphism-invariant text key, computed without the repo's canonical code.

    Goldens must survive a change of the program's own canonical form,
    so the key is the minimum over all vertex orders (patterns here have
    at most five vertices) of labels followed by edges.
    """
    labels = pattern.labels()
    edges = pattern.edges()
    best = None
    for order in permutations(range(pattern.num_vertices)):
        code = (
            tuple(sorted((order[u], labels.get(u, -1)) for u in pattern)),
            tuple(sorted((min(order[u], order[v]), max(order[u], order[v])) for u, v in edges)),
        )
        if best is None or code < best:
            best = code
    label_part = ",".join(str(label) for _, label in best[0])
    edge_part = ",".join(f"{u}-{v}" for u, v in best[1])
    return f"labels[{label_part}] edges[{edge_part}]"


def motif_answer(counts: dict) -> dict[str, int]:
    return {pattern_key(p): int(c) for p, c in counts.items()}


def open_session(tracer: Tracer, path: Path) -> MiningSession:
    """Open a stored graph the way a cold process does, one span per layer."""
    with tracer.span("graph.open"):
        graph = open_graph(path)
    session = MiningSession(graph)
    with tracer.span("core.session.view_build"):
        view = session.view
    with tracer.span("bitmap.hub_index_build"):
        view.hub_index()
    return session


class Workload:
    name = ""

    def __init__(self, scale_name: str, seed: int, workdir: Path, tracer: Tracer):
        self.scale_name = scale_name
        self.scale = inputs.SCALES[scale_name]
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.covered_by: list[str] = []
        self.reference: dict[str, object] = {}
        self.unsettled: list[tuple] = []

    # -- answer checking ------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def op(self, span: str, key: str, fn, to_answer=lambda result: result) -> None:
        """One timed operation: ``fn``, the call into the program.

        Its result is checked by :meth:`settle`, outside every timed
        region, so the benchmark's own bookkeeping is in no metric.
        """
        with self.tracer.span(span, key=key):
            begin = time.perf_counter()
            try:
                result = fn()
            except ReproError as exc:  # refused, over budget, crashed worker, ...
                result = exc
            self.latencies.append(time.perf_counter() - begin)
        self.unsettled.append((key, result, to_answer))

    def settle(self) -> None:
        """Each answer since the last call must repeat the first seen for its key.

        ``to_answer`` turns a result into a comparable, JSON-friendly value.
        """
        for key, result, to_answer in self.unsettled:
            if isinstance(result, ReproError):
                self.check(False, f"{key}: {result!r}")
            elif key not in self.reference:
                self.reference[key] = to_answer(result)
            else:
                self.check(to_answer(result) == self.reference[key],
                           f"{key}: answer changed between passes")
        self.unsettled.clear()

    def golden_check(self, section: str, answers) -> None:
        """Compare with the committed answers of the slow independent path."""
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        expected = goldens.get(f"{self.scale_name}:{self.seed}", {}).get(section)
        if expected is None:
            return
        self.check(answers == expected, f"{section}: differs from goldens.json")
        self.covered_by.append(f"goldens.json[{section}]")

    # -- layer probes (traced run) --------------------------------------

    def timed_ms(self, span: str, fn, *args, **kwargs) -> float:
        """Milliseconds of one direct call into a layer, recorded as a span."""
        with self.tracer.span(span):
            begin = time.perf_counter()
            fn(*args, **kwargs)
            return (time.perf_counter() - begin) * 1e3

    def plan_metrics(self, patterns) -> dict[str, float]:
        times = [self.timed_ms("core.plan.generate_plan", generate_plan, p) for p in patterns]
        return {
            "core.plan.generate_ms_p50": median(times),
            "core.plan.plans_generated": len(times),
        }

    def session_metrics(self, session: MiningSession) -> dict[str, float]:
        """Plan-cache efficiency so far, hub index size, and the fixed per-query cost."""
        info = session.cache_info()
        lookups = info["plan_hits"] + info["plan_misses"]
        hub = session.view.hub_index()
        edge = generate_chain(2)
        session.count(edge)
        dispatch = [self.timed_ms("core.session.count", session.count, edge) for _ in range(20)]
        return {
            "core.session.plan_cache_hit_share": info["plan_hits"] / lookups if lookups else 0.0,
            "core.session.dispatch_ms": median(dispatch),
            "bitmap.hub_rows": 0 if hub is None else int(hub.hubs.size),
            "bitmap.hub_index_mb": 0.0 if hub is None else hub.memory_bytes() / MIB,
        }

    # -- the workload ---------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def golden(self) -> dict:
        """``{section: answers}`` through the slow independent path."""
        raise NotImplementedError

    def probes(self, wall_s: float) -> dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def abort(self) -> None:
        """Best-effort cleanup when the benchmark itself fails."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# ----------------------------------------------------------------------
# census4 / fanout2_census4
# ----------------------------------------------------------------------


def invert_motif4(noninduced: dict[Pattern, int]) -> dict[Pattern, int]:
    """Vertex-induced 4-motif counts from edge-induced ones, in closed form.

    A hand-derived copy of the inversion the program computes by subset
    enumeration (``core.multipattern``): each coefficient is the number
    of spanning copies of the sparser motif inside the denser one.
    """
    by_shape = {(p.num_edges, max(p.degree(u) for u in p)): p for p in noninduced}
    star, path = by_shape[3, 3], by_shape[3, 2]
    tailed, cycle = by_shape[4, 3], by_shape[4, 2]
    diamond, clique = by_shape[5, 3], by_shape[6, 3]
    n = noninduced
    i = {clique: n[clique]}
    i[diamond] = n[diamond] - 6 * i[clique]
    i[cycle] = n[cycle] - i[diamond] - 3 * i[clique]
    i[tailed] = n[tailed] - 4 * i[diamond] - 12 * i[clique]
    i[path] = n[path] - 2 * i[tailed] - 4 * i[cycle] - 6 * i[diamond] - 12 * i[clique]
    i[star] = n[star] - i[tailed] - 2 * i[diamond] - 4 * i[clique]
    return i


class Census4(Workload):
    """Exact vertex-induced 4-motif census of G_pl, in process.

    ``edge_induced=False`` is what makes this the paper's motif count and
    what routes it through the ``core.multipattern`` basis; with default
    options the same call counts edge-induced copies on the direct fused
    path, which is the cross-check here and the work of fanout2_census4.
    """

    name = "census4"

    def setup(self) -> None:
        path = inputs.write_rgx(
            self.tracer, lambda: inputs.g_pl(self.scale, self.seed), self.workdir / "pl.rgx"
        )
        self.session = open_session(self.tracer, path)
        self.patterns = generate_all_vertex_induced(4)
        with self.tracer.span("warmup"):
            self.warm_up()

    def warm_up(self) -> None:
        self.run_pass()

    def census(self, induced: bool, **options) -> dict[Pattern, int]:
        return self.session.count_many(self.patterns, edge_induced=not induced, **options)

    def run_pass(self) -> None:
        self.op("core.session.count_many", "motif4", lambda: self.census(True), motif_answer)

    def verify(self) -> None:
        answers = self.reference["motif4"]
        recomputed = motif_answer(invert_motif4(self.census(False)))
        self.check(answers == recomputed, "motif4: census tier vs inverted edge-induced counts")
        self.covered_by.append(
            "cross-path: closed-form inversion of the edge-induced census (direct fused path)"
        )
        self.golden_check("pl_motif4_induced", answers)

    def golden(self) -> dict:
        def one_by_one(induced: bool) -> dict[str, int]:
            return motif_answer({
                p: self.session.count(p, edge_induced=not induced, engine="accel-batch")
                for p in self.patterns
            })

        return {
            "pl_motif4_induced": one_by_one(True),
            "pl_motif4_noninduced": one_by_one(False),
        }

    def teardown(self) -> None:
        self.session.close(release_store=True)

    def matches_per_s(self, wall_s: float) -> float:
        return sum(self.reference["motif4"].values()) / wall_s

    def probes(self, wall_s: float) -> dict[str, float]:
        with self.tracer.span("core.multipattern.census_transform"):
            begin = time.perf_counter()
            transform = census_transform(self.patterns)
            transform_ms = (time.perf_counter() - begin) * 1e3
        # Fused versus one walk per pattern, on the edge-induced 3-motif census.
        motifs3 = generate_all_vertex_induced(3)
        self.session.count_many(motifs3)
        fused = self.timed_ms("core.session.count_many", self.session.count_many, motifs3)
        one_by_one = sum(
            self.timed_ms("core.session.count", self.session.count, p, engine="accel-batch")
            for p in motifs3
        )
        return {
            "core.multipattern.transform_ms": transform_ms,
            "core.multipattern.basis_size": len(transform.basis),
            "core.accel.fusion_gain3": one_by_one / fused,
            "core.accel.counted_matches_per_s": self.matches_per_s(wall_s),
            **self.plan_metrics(transform.basis),
            **self.session_metrics(self.session),
        }


class Fanout2Census4(Census4):
    """The edge-induced 4-motif census of G_pl through two worker processes.

    Edge-induced because that is the census the process runtime runs on
    the same fused walk as the session does: a vertex-induced census with
    ``num_processes=2`` bypasses the census tier and takes ~37x longer
    than in process (recorded in README.md, not a workload).
    """

    name = "fanout2_census4"

    def run_pass(self) -> None:
        self.op("runtime.parallel.count_many", "motif4",
                lambda: self.census(False, num_processes=2), motif_answer)

    def verify(self) -> None:
        answers = self.reference["motif4"]
        self.check(answers == motif_answer(self.census(False)), "motif4: processes vs in process")
        self.covered_by.append("cross-path: same census in process (core.session)")
        self.golden_check("pl_motif4_noninduced", answers)

    def worker_peak_rss_mb(self) -> float:
        # ru_maxrss of waited-for children, in KiB on Linux.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(), self.worker_peak_rss_mb())

    def probes(self, wall_s: float) -> dict[str, float]:
        in_process = median(
            self.timed_ms("core.session.count_many", self.census, False) for _ in range(3)
        )
        edge = [generate_chain(2)]
        count_many = self.session.count_many
        count_many(edge, num_processes=2)
        fanned = median(
            self.timed_ms("runtime.parallel.count_many", count_many, edge, num_processes=2)
            for _ in range(5)
        )
        local = median(self.timed_ms("core.session.count_many", count_many, edge) for _ in range(5))
        # The chunk table runtime.parallel builds for an unlabeled group:
        # the whole hub-first frontier, weighted by degree + 1.
        view = self.session.view
        frontier = np.arange(view.num_vertices - 1, -1, -1, dtype=np.int64)
        with self.tracer.span("runtime.scheduler.ChunkLedger.build"):
            ledger = ChunkLedger.build(
                frontier, weights=view.degrees()[frontier] + 1, num_workers=2
            )
        return {
            "runtime.parallel.speedup2": in_process / 1e3 / wall_s,
            "runtime.parallel.fixed_cost_s": (fanned - local) / 1e3,
            "runtime.scheduler.chunks": len(ledger),
            "runtime.parallel.worker_peak_rss_mb": self.worker_peak_rss_mb(),
            "core.accel.counted_matches_per_s": self.matches_per_s(wall_s),
            **self.session_metrics(self.session),
        }


# ----------------------------------------------------------------------
# fig9_constrained
# ----------------------------------------------------------------------


class Fig9Constrained(Workload):
    """Pattern-matching tasks of the paper's Tables 4/6 on the labeled G_ba."""

    name = "fig9_constrained"
    COUNTS = ("p1", "p2", "p4", "p7", "p8", "clique:4", "clique:5")
    BATCHES = ("p1", "p8", "p2")
    CALLBACK = "p7"

    def setup(self) -> None:
        path = inputs.write_rgx(
            self.tracer, lambda: inputs.g_ba(self.scale, self.seed), self.workdir / "ba.rgx"
        )
        self.session = open_session(self.tracer, path)
        self.patterns = {spec: parse_pattern_spec(spec) for spec in self.COUNTS}
        with self.tracer.span("warmup"):
            self.run_pass()

    def stream(self, spec: str) -> list[int]:
        """``match_batches`` with a consumer that touches every row: count, rows, sum, xor."""
        seen = [0, 0, 0]

        def consume(rows) -> None:
            seen[0] += len(rows)
            seen[1] += int(rows.sum())
            seen[2] ^= int(np.bitwise_xor.reduce(rows, axis=None))

        return [int(self.session.match_batches(self.patterns[spec], consume)), *seen]

    def callback(self, spec: str) -> list[int]:
        """``match`` with a per-match callback: count, callbacks, vertex-id sum."""
        seen = [0, 0]

        def on_match(match) -> None:
            seen[0] += 1
            seen[1] += sum(match.vertices())

        return [int(self.session.match(self.patterns[spec], on_match)), *seen]

    def run_pass(self) -> None:
        for spec in self.COUNTS:
            self.op("core.session.count", f"count:{spec}",
                    lambda: self.session.count(self.patterns[spec]), int)
        for spec in self.BATCHES:
            self.op("core.session.match_batches", f"batches:{spec}", lambda: self.stream(spec))
        self.op("core.session.match", f"match:{self.CALLBACK}", lambda: self.callback(self.CALLBACK))

    def verify(self) -> None:
        ref = self.reference
        for spec in self.BATCHES:
            count, rows, _, _ = ref[f"batches:{spec}"]
            self.check(count == rows == ref[f"count:{spec}"], f"{spec}: count vs match_batches rows")
        count, calls, vertex_sum = ref[f"match:{self.CALLBACK}"]
        self.check(count == calls == ref[f"count:{self.CALLBACK}"], "p7: count vs callbacks")
        # Both emission paths must have produced the same match multiset
        # (anti-vertex columns are -1 in rows and absent from vertices()).
        _, rows, row_sum, _ = self.stream(self.CALLBACK)
        self.check(row_sum + rows == vertex_sum, "p7: callback vs batch checksums")
        fused = self.session.count_many(list(self.patterns.values()))
        self.check(
            all(int(fused[p]) == ref[f"count:{spec}"] for spec, p in self.patterns.items()),
            "count vs fused count_many",
        )
        self.covered_by.append(
            "cross-path: count vs match_batches rows vs match callbacks vs fused count_many"
        )
        self.golden_check("ba_fig9", {spec: ref[f"count:{spec}"] for spec in self.COUNTS})

    def golden(self) -> dict:
        return {
            "ba_fig9": {
                spec: int(self.session.count(p, engine="accel-batch"))
                for spec, p in self.patterns.items()
            }
        }

    def teardown(self) -> None:
        self.session.close(release_store=True)

    def probes(self, wall_s: float) -> dict[str, float]:
        # Every recorded pass (the warm-up one too) ran each operation once.
        callback_s = self.tracer.durations("core.session.match")
        passes = len(callback_s)
        rows = sum(self.reference[f"batches:{spec}"][1] for spec in self.BATCHES)
        constrained = sum(
            self.tracer.total("core.session.count", key=f"count:{spec}") for spec in ("p7", "p8")
        )
        return {
            "core.accel.emitted_rows_per_s": rows * passes
            / self.tracer.total("core.session.match_batches"),
            "core.accel.callback_matches_per_s": self.reference[f"match:{self.CALLBACK}"][1]
            * passes / sum(callback_s),
            "core.accel.constrained_count_s": constrained / passes,
            **self.plan_metrics(self.patterns.values()),
            **self.session_metrics(self.session),
        }


# ----------------------------------------------------------------------
# fsm3_labeled
# ----------------------------------------------------------------------


def fsm_answer(result) -> dict:
    return {
        "frequent": {pattern_key(p): int(s) for p, s in result.frequent.items()},
        "patterns_explored": result.patterns_explored,
    }


class Fsm3Labeled(Workload):
    """3-edge FSM with MNI support on the labeled in-memory G_fsm."""

    name = "fsm3_labeled"

    def setup(self) -> None:
        with self.tracer.span("graph.generate"):
            self.graph = inputs.g_fsm(self.scale, self.seed)
        with self.tracer.span("core.session.view_build"):
            MiningSession(self.graph).view  # the ordering and view are graph-cached
        with self.tracer.span("warmup"):
            self.run_pass()

    def mine(self, num_edges: int = 3, **options):
        # A fresh session per call: every pattern of every round is a plan miss.
        session = MiningSession(self.graph)
        return session, fsm(session, num_edges, self.scale.fsm_threshold, **options)

    def run_pass(self) -> None:
        self.op("mining.fsm.fsm", "fsm3", lambda: self.mine()[1], fsm_answer)

    def verify(self) -> None:
        answer = self.reference["fsm3"]
        self.check(len(answer["frequent"]) >= 1, "no frequent 3-edge pattern")
        sequential = fsm_answer(self.mine(engine="accel-batch")[1])
        self.check(answer == sequential, "fsm3: fused vs per-pattern engine disagree")
        self.covered_by.append("cross-path: fused rounds vs engine='accel-batch' per pattern")
        self.golden_check("fsm_frequent", answer["frequent"])

    def golden(self) -> dict:
        return {"fsm_frequent": fsm_answer(self.mine(engine="reference")[1])["frequent"]}

    def probes(self, wall_s: float) -> dict[str, float]:
        round_s, mined = [], []
        for k in (1, 2, 3):
            round_s.append(self.timed_ms("mining.fsm.fsm", lambda: mined.append(self.mine(k))) / 1e3)
        session, result = mined[-1]
        # What the rounds asked of the pattern and plan layers.
        explored = [Pattern.from_edges([(0, 1)])]
        extend_ms = sum(
            self.timed_ms("pattern.extend_by_edge",
                          lambda: explored.extend(extend_by_edge(result.frequent_by_size[size])))
            for size in (1, 2)
        )
        # One captured batch (all 3-chains) through the support layer.
        batches = []
        session.match_batches(parse_pattern_spec("chain:3"), batches.append)
        rows = np.concatenate(batches)
        update_ms = self.timed_ms("mining.support.Domain.update_batch", Domain(3).update_batch, rows)
        return {
            "mining.fsm.round1_s": round_s[0],
            "mining.fsm.round2_s": round_s[1] - round_s[0],
            "mining.fsm.round3_s": round_s[2] - round_s[1],
            "mining.fsm.patterns_explored": result.patterns_explored,
            "mining.fsm.domain_writes": result.domain_writes,
            "mining.fsm.domain_mb": result.domain_bytes / MIB,
            "mining.support.update_rows_per_s": len(rows) / (update_ms / 1e3),
            "pattern.extend_canonical_s": extend_ms / 1e3,
            **self.plan_metrics(explored),
            **self.session_metrics(session),
        }


# ----------------------------------------------------------------------
# approx_census4
# ----------------------------------------------------------------------


class ApproxCensus4(Census4):
    """The first four induced 4-motifs at 5% requested error, once per estimator seed."""

    name = "approx_census4"
    REL_ERR = 0.05
    ESTIMATOR_SEEDS = 5

    def estimate(self, estimator_seed: int) -> None:
        self.op(
            "mining.sampling.count_many",
            f"approx:{estimator_seed}",
            lambda: self.session.count_many(
                self.patterns[:4], approx=self.REL_ERR, seed=estimator_seed, edge_induced=False
            ),
            lambda result: {
                pattern_key(p): [a.estimate, a.ci_low, a.ci_high, a.samples, a.rounds]
                for p, a in result.items()
            },
        )

    def warm_up(self) -> None:
        # One estimate fills every cache the other four seeds will use.
        self.estimate(self.seed + 1)

    def run_pass(self) -> None:
        for estimator_seed in range(self.seed + 1, self.seed + 1 + self.ESTIMATOR_SEEDS):
            self.estimate(estimator_seed)

    def cells(self, exact: dict[str, int]):
        """``(key, motif, exact count, estimate row)`` per estimator seed and motif."""
        for key, answer in self.reference.items():
            for motif, row in answer.items():
                yield key, motif, exact[motif], row

    def verify(self) -> None:
        exact = motif_answer(self.census(True))
        for key, motif, count, (estimate, *_) in self.cells(exact):
            self.check(
                abs(estimate - count) <= 2 * self.REL_ERR * count,
                f"{key} {motif}: {estimate} is more than 2x rel_err from {count}",
            )
        self.covered_by.append("cross-path: every estimate within 2x rel_err of the exact census")
        self.golden_check("pl_motif4_induced", exact)

    def probes(self, wall_s: float) -> dict[str, float]:
        exact = motif_answer(self.census(True))
        exact_ms = median(
            self.timed_ms("core.session.count_many", self.census, True) for _ in range(3)
        )
        cells = list(self.cells(exact))
        by_seed = list(self.reference.values())
        return {
            "mining.sampling.samples": sum(max(r[3] for r in a.values()) for a in by_seed),
            "mining.sampling.rounds": sum(max(r[4] for r in a.values()) for a in by_seed),
            "mining.sampling.rel_err_max": max(abs(r[0] - c) / c for _, _, c, r in cells),
            "mining.sampling.ci_cover_share": sum(r[1] <= c <= r[2] for _, _, c, r in cells)
            / len(cells),
            "mining.sampling.speedup_vs_exact": exact_ms / 1e3 * self.ESTIMATOR_SEEDS / wall_s,
            **self.session_metrics(self.session),
        }


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

# (verb, graph, pattern, extra request fields).  Per 20 requests a client
# sends every light request twice and two of the four heavy ones, so the
# mix is 90/10 and a pass is the same multiset of work for every seed;
# the seed only orders it.
LIGHT = (
    ("count", "small", "clique:3", {}),
    ("count", "small", "chain:3", {}),
    ("count", "small", "star:3", {}),
    ("count", "small", "cycle:4", {}),
    ("count", "small", "clique:4", {}),
    ("exists", "small", "clique:4", {}),
    ("match", "small", "clique:3", {"limit": 50}),
    ("approx_count", "small", "chain:4", {"rel_err": 0.05, "seed": 7}),
    ("exists", "pl", "cycle:4", {}),
)
HEAVY = (
    ("count", "pl", "clique:3", {}),
    ("count", "pl", "chain:3", {}),
    ("count", "pl", "cycle:4", {}),
    ("approx_count", "pl", "star:4", {"rel_err": 0.05, "seed": 7}),
)


def request_key(request: dict) -> str:
    return f"{request['verb']} {Path(request['graph']).stem} {request['pattern']}"


def http_answer(status: int, body: bytes):
    """The comparable part of a reply; anything but 200 + ``ok`` is a failure."""
    if status != 200:
        return f"failed: HTTP {status} {body[:200]!r}"
    reply = json.loads(body)
    if not reply.get("ok"):
        return f"failed: {reply.get('error')}"
    result = reply["result"]
    if reply["verb"] == "exists":
        return result["exists"]
    if reply["verb"] == "match":
        return [result["count"], result["returned"]]
    return result["count"]


def direct_answer(session: MiningSession, request: dict):
    """The same verb straight on a ``MiningSession`` (what the service wraps)."""
    pattern = parse_pattern_spec(request["pattern"])
    verb = request["verb"]
    if verb == "exists":
        return bool(session.exists(pattern))
    if verb == "match":
        rows = []
        count = session.match(
            pattern, lambda m: len(rows) < request["limit"] and rows.append(m.mapping)
        )
        return [int(count), len(rows)]
    if verb == "approx_count":
        return int(session.count(pattern, approx=request["rel_err"], seed=request["seed"]))
    return int(session.count(pattern))


class ServiceMix(Workload):
    """Closed loop of two HTTP clients against the real service subprocess."""

    name = "service_mix"

    def setup(self) -> None:
        tracer, scale, seed = self.tracer, self.scale, self.seed
        self.paths = {
            "pl": inputs.write_rgx(tracer, lambda: inputs.g_pl(scale, seed), self.workdir / "pl.rgx"),
            "small": inputs.write_rgx(
                tracer, lambda: inputs.g_small(scale, seed), self.workdir / "small.rgx"
            ),
        }
        self.direct = None
        self.heavy_keys = {request_key(self.request(*spec)) for spec in HEAVY}
        self.heavy_latencies: list[float] = []
        self.response_bytes: list[int] = []
        self.sequences = [self.sequence(client) for client in range(CLIENTS)]
        with tracer.span("service.boot"):
            self.server = Server(SRC, self.workdir)
            self.clients = [Client(self.server.host, self.server.port) for _ in range(CLIENTS)]
        with tracer.span("warmup"):
            distinct = [[self.request(*spec) for spec in LIGHT + HEAVY]]
            self.record(closed_loop(self.clients[:1], distinct, tracer, tracer.current()))
        self.latencies.clear()
        self.heavy_latencies.clear()

    def request(self, verb: str, graph: str, pattern: str, extra: dict) -> dict:
        return {"verb": verb, "graph": str(self.paths[graph]), "pattern": pattern, **extra}

    def sequence(self, client: int) -> list[dict]:
        rng = random.Random(self.seed * CLIENTS + client)
        requests = []
        for _ in range(self.scale.requests_per_client // 20):
            block = [self.request(*spec) for spec in LIGHT * 2 + HEAVY[2 * client:2 * client + 2]]
            rng.shuffle(block)
            requests += block
        return requests

    def record(self, rows_per_client) -> None:
        for rows in rows_per_client:
            for request, seconds, status, body in rows:
                key = request_key(request)
                self.latencies.append(seconds)
                self.response_bytes.append(len(body))
                if key in self.heavy_keys:
                    self.heavy_latencies.append(seconds)
                answer = http_answer(status, body)
                if isinstance(answer, str):
                    self.check(False, f"{key}: {answer}")
                elif key in self.reference:
                    self.check(answer == self.reference[key], f"{key}: answer changed")
                else:
                    self.reference[key] = answer

    def run_pass(self) -> None:
        self.record(closed_loop(self.clients, self.sequences, self.tracer, self.tracer.current()))

    def direct_sessions(self) -> dict[str, MiningSession]:
        if self.direct is None:
            self.direct = {
                name: open_session(self.tracer, path) for name, path in self.paths.items()
            }
        return self.direct

    def verify(self) -> None:
        sessions = self.direct_sessions()
        for spec in LIGHT + HEAVY:
            request = self.request(*spec)
            key, session = request_key(request), sessions[spec[1]]
            self.check(self.reference.get(key) == direct_answer(session, request),
                       f"{key}: HTTP answer differs from a direct MiningSession")
            if request["verb"] == "approx_count":
                exact = int(session.count(parse_pattern_spec(request["pattern"])))
                self.check(abs(self.reference[key] - exact) <= 2 * request["rel_err"] * exact,
                           f"{key}: more than 2x rel_err from {exact}")
        self.covered_by.append("cross-path: every HTTP answer vs a direct MiningSession verb")
        exact = {k: v for k, v in self.reference.items() if not k.startswith("approx_count")}
        self.golden_check("service_answers", exact)

    def golden(self) -> dict:
        """Exact answers only: an estimate may legitimately change with the estimator."""
        sessions = self.direct_sessions()
        answers = {}
        for spec in LIGHT + HEAVY:
            request = self.request(*spec)
            if request["verb"] != "approx_count":
                slow = MiningSession(sessions[spec[1]].graph, engine="accel-batch")
                answers[request_key(request)] = direct_answer(slow, request)
        return {"service_answers": answers}

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.check(self.server.stop(), "server did not exit 0 with its stop banner on SIGINT")

    def abort(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.kill()

    def probes(self, wall_s: float) -> dict[str, float]:
        stats = self.clients[0].get_json("/stats")["result"]
        batching, registry = stats["batching"], stats["registry"]
        lookups = registry["hits"] + registry["misses"]
        served = stats["latency_ms"].values()

        sessions = self.direct_sessions()
        light = [self.request(*spec) for spec in LIGHT]
        one_client = closed_loop(self.clients[:1], [light * 3], self.tracer, self.tracer.current())
        http_ms = median(seconds * 1e3 for _, seconds, _, _ in one_client[0])
        with self.tracer.span("service.handlers.handle", batching=True):
            handle_ms = asyncio.run(handle_ms_p50(ServiceConfig(workers=2), light))
        with self.tracer.span("service.handlers.handle", batching=False):
            solo_ms = asyncio.run(handle_ms_p50(ServiceConfig(workers=2, batching=False), light))
        direct_ms = median(
            self.timed_ms("core.session.verb", direct_answer, sessions[spec[1]], request)
            for _ in range(3)
            for spec, request in zip(LIGHT, light)
        )
        probe_ms = [
            self.timed_ms("runtime.guards.estimate_cost", estimate_cost,
                          sessions[spec[1]], parse_pattern_spec(spec[2]))
            for spec in LIGHT + HEAVY
        ]
        return {
            "service.http.overhead_ms_p50": http_ms - handle_ms,
            "service.handlers.overhead_ms_p50": handle_ms - direct_ms,
            "service.batching.window_cost_ms_p50": handle_ms - solo_ms,
            "service.batching.fusion_batch_rate": batching["fusion_batch_rate"],
            "service.batching.mean_batch_size": batching["batched_requests"]
            / batching["batches"] if batching["batches"] else 0.0,
            "service.batching.deduped_requests": batching["deduped_requests"],
            "service.registry.hit_share": registry["hits"] / lookups if lookups else 0.0,
            "service.metrics.server_p50_ms": stats["latency_ms"]["count"]["p50_ms_le"],
            "service.metrics.server_mean_ms": sum(row["sum_ms"] for row in served)
            / sum(row["count"] for row in served),
            "service.http.response_bytes_p50": median(self.response_bytes),
            "service.heavy_ms_p50": median(self.heavy_latencies) * 1e3,
            "service.http.latency_ms_p50": median(self.latencies) * 1e3,
            "service.http.latency_ms_p95": percentile(self.latencies, 0.95) * 1e3,
            "runtime.guards.probe_ms_p50": median(probe_ms),
            **self.plan_metrics([parse_pattern_spec(spec[2]) for spec in LIGHT + HEAVY]),
            **self.session_metrics(sessions["small"]),
        }


async def handle_ms_p50(config: ServiceConfig, requests: list[dict]) -> float:
    """Median ``MiningService.handle`` time of ``requests``, one at a time, warm."""
    async with MiningService(config) as service:
        for request in requests:
            await service.handle(request)
        times = []
        for request in requests * 3:
            begin = time.perf_counter()
            reply = await service.handle(request)
            times.append((time.perf_counter() - begin) * 1e3)
            if not reply["ok"]:
                raise RuntimeError(f"in-process service failed {request}: {reply}")
    return median(times)


WORKLOADS = {
    cls.name: cls
    for cls in (Census4, Fig9Constrained, Fsm3Labeled, ApproxCensus4, Fanout2Census4, ServiceMix)
}
