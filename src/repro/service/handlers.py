"""Verb handlers: JSON requests in, JSON responses out, errors structured.

One dispatch surface (:func:`dispatch`) serves every front — the HTTP
server, the in-process :class:`~repro.service.service.MiningService`
API, and the CLI smoke path all hand it the same plain-dict request::

    {"verb": "count", "graph": "web.rgx", "pattern": "clique:3",
     "options": {"edge_induced": false, "guard": "refuse"},
     "budget": {"deadline": 2.0}, "timeout_ms": 500}

and get back either ``{"ok": true, "verb": ..., "result": {...}}`` or a
structured error envelope ``{"ok": false, "error": {"code": ...,
"message": ...}}`` — guardrail refusals carry the probe's cost estimate,
budget stops carry the :class:`~repro.errors.PartialResult`, so a client
can distinguish "too expensive, don't retry" from "ran out of time,
retry with a bigger budget" without parsing prose.

Execution options are whitelisted (:data:`ALLOWED_OPTIONS`) to the
scalar knobs whose values are hashable — the batching queue keys its
buckets on them — and anything else in ``options`` is an
``invalid_request``, not a silent drop.  Per-request deadlines ride the
budget: ``timeout_ms`` tightens the request's
:class:`~repro.core.callbacks.Budget` deadline on ``count``, ``match``
and ``exists`` (forcing the solo path — a deadline is a per-request
contract), and the run's one stop token polls it with every other limit,
so a trip answers ``budget_exceeded`` with the partial and a run that
finished answers in full however late.  ``approx_count`` and ``motifs``
cannot honour a budget and refuse one as ``invalid_request``.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING

from ..core.callbacks import Budget
from ..core.session import ExecOptions
from ..errors import (
    BudgetExceededError,
    GraphError,
    MatchingError,
    PatternError,
    PlanError,
    QueryCancelledError,
    QueryRefusedError,
    ReproError,
    WorkerCrashError,
)
from ..cli.parsing import parse_pattern_spec
from ..mining.motifs import motif_counts
from ..pattern.pattern import Pattern
from .batching import QueryJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import MiningService

__all__ = [
    "dispatch",
    "InvalidRequestError",
    "ALLOWED_OPTIONS",
    "DEFAULT_MATCH_LIMIT",
    "VERBS",
]

# Rows a ``match`` response returns unless the client asks for fewer.
# The count is always exact; the row list is the capped sample.
DEFAULT_MATCH_LIMIT = 1_000
MAX_MATCH_LIMIT = 100_000

# ExecOptions overrides a request may set: name -> accepted types.
# Hashable scalars only — the batching queue buckets on their values.
ALLOWED_OPTIONS: dict[str, tuple] = {
    "edge_induced": (bool,),
    "symmetry_breaking": (bool,),
    "engine": (str,),
    "frontier_chunk": (int,),
    "label_index": (bool,),
    "guard": (str,),
    "approx": (int, float),
    "confidence": (int, float),
    "max_samples": (int,),
    "latency_budget": (int, float),
    "seed": (int,),
}

_BUDGET_FIELDS = (
    "deadline",
    "max_matches",
    "max_frontier_rows",
    "max_expanded_partials",
)

MOTIF_SIZES = (3, 4, 5)


class InvalidRequestError(ReproError):
    """The request envelope itself is malformed (before any mining)."""


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------


def _require_dict(payload) -> dict:
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _parse_options(payload: dict) -> dict:
    """The request's validated option overrides.

    Names and types are checked against :data:`ALLOWED_OPTIONS`; values
    by the one option-resolution path
    (:meth:`~repro.core.session.ExecOptions.merged`), so a bad value is
    ``invalid_request`` on every verb, before any mining.
    """
    raw = payload.get("options", {})
    if not isinstance(raw, dict):
        raise InvalidRequestError("'options' must be an object")
    options: dict = {}
    for name, value in raw.items():
        accepted = ALLOWED_OPTIONS.get(name)
        if accepted is None:
            raise InvalidRequestError(
                f"unknown option {name!r}; allowed: "
                f"{', '.join(sorted(ALLOWED_OPTIONS))}"
            )
        # bool is an int subclass; reject True for int-typed knobs.
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and bool not in accepted
        ):
            raise InvalidRequestError(
                f"option {name!r} expects "
                f"{' or '.join(t.__name__ for t in accepted)}, "
                f"got {value!r}"
            )
        options[name] = value
    _check_values(options)
    return options


def _check_values(options: dict) -> None:
    try:
        ExecOptions().merged(options)
    except ValueError as exc:
        raise InvalidRequestError(f"bad option value: {exc}") from exc


def _parse_budget(payload: dict) -> Budget | None:
    """The request's budget, with ``timeout_ms`` folded into the deadline."""
    raw = payload.get("budget")
    fields: dict = {}
    if raw is not None:
        if not isinstance(raw, dict):
            raise InvalidRequestError("'budget' must be an object")
        for name, value in raw.items():
            if name not in _BUDGET_FIELDS:
                raise InvalidRequestError(
                    f"unknown budget field {name!r}; allowed: "
                    f"{', '.join(_BUDGET_FIELDS)}"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidRequestError(
                    f"budget field {name!r} must be a number, got {value!r}"
                )
            fields[name] = value
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) or isinstance(
            timeout_ms, bool
        ) or timeout_ms <= 0:
            raise InvalidRequestError(
                f"'timeout_ms' must be a positive number, got {timeout_ms!r}"
            )
        seconds = timeout_ms / 1e3
        fields["deadline"] = min(fields.get("deadline", seconds), seconds)
    if not fields:
        return None
    try:
        return Budget(**fields)
    except ValueError as exc:
        raise InvalidRequestError(str(exc)) from exc


def _refuse_budget(payload: dict, verb: str) -> None:
    """A verb that cannot honour a budget refuses one instead of dropping it."""
    for name in ("budget", "timeout_ms"):
        if name in payload:
            raise InvalidRequestError(f"{name!r} is not supported by the {verb} verb")


def _parse_pattern(payload: dict) -> Pattern:
    spec = payload.get("pattern")
    if not isinstance(spec, str) or not spec:
        raise InvalidRequestError("'pattern' must be a non-empty spec string")
    return parse_pattern_spec(spec)


def _parse_graph_key(payload: dict) -> str:
    key = payload.get("graph")
    if not isinstance(key, str) or not key:
        raise InvalidRequestError("'graph' must be a non-empty string")
    return key


def _parse_limit(payload: dict) -> int:
    limit = payload.get("limit", DEFAULT_MATCH_LIMIT)
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise InvalidRequestError(
            f"'limit' must be a non-negative integer, got {limit!r}"
        )
    return min(limit, MAX_MATCH_LIMIT)


def _edge_spec(pattern: Pattern) -> str:
    """CLI-grammar spec for a pattern (JSON-friendly motif table key)."""
    return "edges:" + ",".join(f"{u}-{v}" for u, v in pattern.edges())


def _plan_echo(service: "MiningService", result) -> dict:
    """The plan of the stage the job ran in, for the response.

    The chosen engine is also folded into
    :class:`~repro.service.metrics.ServiceMetrics` so the ``stats`` verb
    shows what the planner has been deciding fleet-wide.
    """
    plan = result.plan.as_dict()
    service.metrics.record_plan(plan["engine"])
    return plan


# ----------------------------------------------------------------------
# Verb handlers
# ----------------------------------------------------------------------


async def _handle_count(service: "MiningService", payload: dict) -> dict:
    key = _parse_graph_key(payload)
    pattern = _parse_pattern(payload)
    options = _parse_options(payload)
    budget = _parse_budget(payload)
    resolved = service.registry.resolve_key(key)
    session = service.registry.get(resolved)
    job = QueryJob("count", pattern, options=options, budget=budget)
    result = await service.queue.submit(resolved, session, job)
    response = {
        "graph": key,
        "pattern": payload["pattern"],
        "count": result.count,
    }
    if result.approx is not None:
        # The sampling tier answered — either the caller passed the
        # "approx" option, or the planner/guard auto-routed an exact
        # request under a latency budget (the downgrades-to-approx
        # gauge).
        response["approx"] = result.approx
        service.metrics.record_approx(auto="approx" not in options)
    response["plan"] = _plan_echo(service, result)
    return response


async def _handle_match(service: "MiningService", payload: dict) -> dict:
    key = _parse_graph_key(payload)
    pattern = _parse_pattern(payload)
    options = _parse_options(payload)
    budget = _parse_budget(payload)
    limit = _parse_limit(payload)
    resolved = service.registry.resolve_key(key)
    session = service.registry.get(resolved)
    job = QueryJob(
        "match", pattern, options=options, limit=limit, budget=budget
    )
    result = await service.queue.submit(resolved, session, job)
    rows = result.rows if result.rows is not None else []
    response = {
        "graph": key,
        "pattern": payload["pattern"],
        "count": result.count,
        "matches": rows,
        "returned": len(rows),
        "limit": limit,
        "plan": _plan_echo(service, result),
    }
    return response


def _parse_approx_field(payload: dict, name: str, integral: bool = False):
    value = payload.get(name)
    if value is None:
        return None
    if integral:
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidRequestError(
                f"{name!r} must be an integer, got {value!r}"
            )
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidRequestError(f"{name!r} must be a number, got {value!r}")
    return value


async def _handle_approx_count(service: "MiningService", payload: dict) -> dict:
    """The first-class approximate verb: estimate with a CI envelope.

    Top-level fields ``rel_err`` (default 0.05), ``confidence`` (default
    0.95), ``max_samples`` and ``seed`` tune the estimator; the response
    carries the full :class:`~repro.mining.sampling.ApproxCount`
    envelope (``estimate``, ``stderr``, ``ci_low``/``ci_high``,
    ``rel_err_achieved``, ``samples``, ``early_stop``) alongside the
    rounded ``count``.  It is a ``count`` job with ``approx`` set, so
    it runs alone — the estimator samples for this one request.
    """
    from ..mining import sampling

    key = _parse_graph_key(payload)
    pattern = _parse_pattern(payload)
    options = _parse_options(payload)
    _refuse_budget(payload, "approx_count")
    for name in ("approx", "latency_budget", "max_samples", "confidence", "seed"):
        if name in options:
            raise InvalidRequestError(
                f"option {name!r} conflicts with the approx_count verb; "
                "pass the estimator knobs as top-level request fields"
            )
    rel_err = _parse_approx_field(payload, "rel_err")
    if rel_err is None:
        rel_err = sampling.DEFAULT_REL_ERR
    confidence = _parse_approx_field(payload, "confidence")
    if confidence is None:
        confidence = sampling.DEFAULT_CONFIDENCE
    options.update(
        approx=rel_err,
        confidence=confidence,
        max_samples=_parse_approx_field(payload, "max_samples", integral=True),
        seed=_parse_approx_field(payload, "seed", integral=True),
    )
    _check_values(options)
    resolved = service.registry.resolve_key(key)
    session = service.registry.get(resolved)
    job = QueryJob("count", pattern, options=options)
    result = await service.queue.submit(resolved, session, job)
    service.metrics.record_approx(auto=False)
    return {
        "graph": key,
        "pattern": payload["pattern"],
        "count": result.count,
        **result.approx,
    }


async def _handle_exists(service: "MiningService", payload: dict) -> dict:
    key = _parse_graph_key(payload)
    pattern = _parse_pattern(payload)
    options = _parse_options(payload)
    budget = _parse_budget(payload)
    resolved = service.registry.resolve_key(key)
    session = service.registry.get(resolved)

    def probe() -> dict:
        found = session.exists(pattern, budget=budget, **options)
        return {
            "graph": key,
            "pattern": payload["pattern"],
            "exists": bool(found),
        }

    return await service.queue.solo(probe)


async def _handle_motifs(service: "MiningService", payload: dict) -> dict:
    key = _parse_graph_key(payload)
    size = payload.get("size")
    if size not in MOTIF_SIZES:
        raise InvalidRequestError(
            f"'size' must be one of {MOTIF_SIZES}, got {size!r}"
        )
    options = _parse_options(payload)
    _refuse_budget(payload, "motifs")
    for name in options:
        if name not in ("symmetry_breaking", "engine"):
            raise InvalidRequestError(
                f"option {name!r} is not supported by the motifs verb"
            )
    resolved = service.registry.resolve_key(key)
    session = service.registry.get(resolved)

    def census() -> dict:
        table = motif_counts(session, size, **options)
        return {
            "graph": key,
            "size": size,
            "counts": {
                _edge_spec(pattern): count for pattern, count in table.items()
            },
        }

    return await service.queue.solo(census)


async def _handle_stats(service: "MiningService", payload: dict) -> dict:
    return service.stats()


VERBS = {
    "count": _handle_count,
    "approx_count": _handle_approx_count,
    "match": _handle_match,
    "exists": _handle_exists,
    "motifs": _handle_motifs,
    "stats": _handle_stats,
}


# ----------------------------------------------------------------------
# Error mapping and dispatch
# ----------------------------------------------------------------------

# exception -> (error code, HTTP status the front should use)
_ERROR_CODES: tuple[tuple[type, str, int], ...] = (
    (InvalidRequestError, "invalid_request", 400),
    (QueryRefusedError, "query_refused", 429),
    (BudgetExceededError, "budget_exceeded", 504),
    (QueryCancelledError, "query_cancelled", 499),
    (WorkerCrashError, "worker_crash", 500),
    (PatternError, "invalid_pattern", 400),
    (PlanError, "plan_error", 400),
    (MatchingError, "invalid_query", 400),
    (FileNotFoundError, "unknown_graph", 404),
    (GraphError, "graph_error", 400),
)


def error_response(verb: str, exc: BaseException) -> dict:
    """The structured error envelope for ``exc`` (never raises)."""
    code, status = "internal_error", 500
    for exc_type, exc_code, exc_status in _ERROR_CODES:
        if isinstance(exc, exc_type):
            code, status = exc_code, exc_status
            break
    error: dict = {"code": code, "message": str(exc), "status": status}
    partial = getattr(exc, "partial", None)
    if partial is not None:
        error["partial"] = partial.as_dict()
    estimate = getattr(exc, "estimate", None)
    if estimate is not None:
        error["estimate"] = estimate.as_dict()
    return {"ok": False, "verb": verb, "error": error}


async def dispatch(service: "MiningService", payload) -> dict:
    """Serve one request end to end; always returns an envelope.

    Every path — success, guardrail refusal, malformed request, even an
    unexpected internal failure — produces a response dict and a metrics
    record; only event-loop cancellation propagates.
    """
    started = time.perf_counter()
    verb = None
    try:
        payload = _require_dict(payload)
        verb = payload.get("verb")
        handler = VERBS.get(verb) if isinstance(verb, str) else None
        if handler is None:
            # Metrics key on the verb: a client's unknown string must
            # not mint a key of its own.
            verb = None
            raise InvalidRequestError(
                f"unknown verb {payload.get('verb')!r}; expected one of "
                f"{', '.join(sorted(VERBS))}"
            )
        result = await handler(service, payload)
    except BaseException as exc:
        if isinstance(
            exc, (KeyboardInterrupt, SystemExit, asyncio.CancelledError)
        ):
            raise
        response = error_response(verb or "invalid", exc)
        service.metrics.record_request(
            verb or "invalid",
            time.perf_counter() - started,
            error=response["error"]["code"],
        )
        return response
    service.metrics.record_request(verb, time.perf_counter() - started)
    return {"ok": True, "verb": verb, "result": result}
