"""Versioned JSON wire schemas for the sweep service.

One request shape covers both job kinds the service runs::

    {
      "version": 1,
      "kind": "sweep",                 # or "predict"
      "trace": "canned-serving",       # a server-registered bundle name ...
      "bundle": {...},                 # ... or an inline uploaded bundle
      "spec": {...},                   # sweep: full SweepSpec JSON, or
      "targets": ["2x2x8", "batch=16"],#        inline axes + what-ifs
      "whatif": ["gemm:2"],
      "slo_ms": 250.0,
      "target": "batch=16",            # predict: one prediction target
      "base": {"micro_batch_size": 1}, # optional base-config overrides
      "reuse": false,                  # return a completed identical job
      "webhook": "http://host/done"    # POSTed the terminal job record
    }

Responses always carry either a ``job`` object (see
:meth:`repro.service.jobs.JobRecord.public_json`) or a typed error::

    {"error": {"code": "invalid-spec", "message": "..."}}

Error ``code``\\ s are stable machine-readable strings; the HTTP status
each maps to lives in :data:`HTTP_STATUS`.  Library errors translate via
:func:`error_for_exception`: :class:`~repro.sweep.SweepSpecError` →
``invalid-spec``, :class:`~repro.api.PredictError` →
``unsupported-target``, :class:`~repro.api.StudyError` → ``study-error``
— all HTTP 400, never a traceback.

Result payloads (:func:`sweep_result_payload`,
:func:`predict_result_payload`) are built from the same
:mod:`repro.sweep` objects the CLI prints, including the ranked order and
Pareto frontier from ``sweep.analysis``; :func:`validate_result_payload`
schema-checks one (tests and the CI smoke run every fetched result
through it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.errors import PredictError, StudyError
from repro.sweep.analysis import pareto_frontier
from repro.sweep.cache import CacheStats
from repro.sweep.runner import ScenarioResult, SweepResult, rank_results
from repro.sweep.spec import SweepSpecError
from repro.trace.kineto import KinetoTrace, TraceBundle

#: The one protocol version this server speaks.
PROTOCOL_VERSION = 1
#: Schema tag of the result payloads served by ``GET /v1/jobs/{id}/result``.
RESULT_SCHEMA = 1

# -- stable error codes -------------------------------------------------------

CODE_BAD_REQUEST = "bad-request"
CODE_UNSUPPORTED_VERSION = "unsupported-version"
CODE_INVALID_SPEC = "invalid-spec"
CODE_UNSUPPORTED_TARGET = "unsupported-target"
CODE_STUDY_ERROR = "study-error"
CODE_UNKNOWN_TRACE = "unknown-trace"
CODE_UNKNOWN_JOB = "unknown-job"
CODE_JOB_NOT_DONE = "job-not-done"
CODE_JOB_FAILED = "job-failed"
CODE_JOB_STATE = "job-state"
CODE_WORKER_LOST = "worker-lost"
CODE_INTERNAL = "internal"

#: HTTP status for each error code (unknown codes fall back to 500).
HTTP_STATUS: dict[str, int] = {
    CODE_BAD_REQUEST: 400,
    CODE_UNSUPPORTED_VERSION: 400,
    CODE_INVALID_SPEC: 400,
    CODE_UNSUPPORTED_TARGET: 400,
    CODE_STUDY_ERROR: 400,
    CODE_UNKNOWN_TRACE: 404,
    CODE_UNKNOWN_JOB: 404,
    CODE_JOB_NOT_DONE: 409,
    CODE_JOB_FAILED: 409,
    CODE_JOB_STATE: 409,
    CODE_WORKER_LOST: 500,
    CODE_INTERNAL: 500,
}


class ProtocolError(Exception):
    """A request the service refuses, carrying its wire error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def status(self) -> int:
        return HTTP_STATUS.get(self.code, 500)

    def to_json(self) -> dict[str, Any]:
        return error_payload(self.code, self.message)


def error_payload(code: str, message: str) -> dict[str, Any]:
    """The uniform JSON error body."""
    return {"error": {"code": code, "message": message}}


def error_for_exception(error: Exception) -> ProtocolError:
    """Map a library exception onto its typed wire error.

    The order matters: ``SweepSpecError`` and ``PredictError`` both derive
    from ``ValueError``/``StudyError``, so the most specific class wins.
    """
    if isinstance(error, ProtocolError):
        return error
    if isinstance(error, SweepSpecError):
        return ProtocolError(CODE_INVALID_SPEC, str(error))
    if isinstance(error, PredictError):
        return ProtocolError(CODE_UNSUPPORTED_TARGET, str(error))
    if isinstance(error, StudyError):
        return ProtocolError(CODE_STUDY_ERROR, str(error))
    return ProtocolError(CODE_INTERNAL, f"{type(error).__name__}: {error}")


# -- submit requests ----------------------------------------------------------

_KINDS = ("sweep", "predict")


@dataclass(frozen=True)
class SubmitRequest:
    """One parsed ``POST /v1/jobs`` body."""

    kind: str
    trace: str | None = None
    bundle: Mapping[str, Any] | None = None
    spec: Mapping[str, Any] | None = None
    targets: tuple[str, ...] = ()
    whatif: tuple[str, ...] = ()
    slo_ms: float | None = None
    target: str | None = None
    base: Mapping[str, Any] = field(default_factory=dict)
    reuse: bool = False
    webhook: str | None = None

    @classmethod
    def parse(cls, payload: Any) -> "SubmitRequest":
        """Validate a request body; raises :class:`ProtocolError` on refusal."""
        if not isinstance(payload, Mapping):
            raise ProtocolError(CODE_BAD_REQUEST, "request body must be a JSON object")
        version = payload.get("version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                CODE_UNSUPPORTED_VERSION,
                f"unsupported protocol version {version!r} "
                f"(this server speaks version {PROTOCOL_VERSION})")
        kind = payload.get("kind")
        if kind not in _KINDS:
            raise ProtocolError(
                CODE_BAD_REQUEST, f"job kind must be one of {_KINDS}, got {kind!r}")
        trace = payload.get("trace")
        bundle = payload.get("bundle")
        if (trace is None) == (bundle is None):
            raise ProtocolError(
                CODE_BAD_REQUEST,
                "exactly one of 'trace' (a registered bundle name) or "
                "'bundle' (an inline upload) is required")
        if trace is not None and not isinstance(trace, str):
            raise ProtocolError(CODE_BAD_REQUEST, "'trace' must be a string name")
        if bundle is not None and not isinstance(bundle, Mapping):
            raise ProtocolError(CODE_BAD_REQUEST, "'bundle' must be an object")
        spec = payload.get("spec")
        if spec is not None and not isinstance(spec, Mapping):
            raise ProtocolError(CODE_BAD_REQUEST, "'spec' must be an object")
        base = payload.get("base") or {}
        if not isinstance(base, Mapping):
            raise ProtocolError(CODE_BAD_REQUEST, "'base' must be an object")
        targets = payload.get("targets") or ()
        whatif = payload.get("whatif") or ()
        for name, axis in (("targets", targets), ("whatif", whatif)):
            if not isinstance(axis, (list, tuple)) \
                    or not all(isinstance(item, str) for item in axis):
                raise ProtocolError(CODE_BAD_REQUEST, f"'{name}' must be a list of strings")
        slo_ms = payload.get("slo_ms")
        if slo_ms is not None:
            try:
                slo_ms = float(slo_ms)
            except (TypeError, ValueError):
                raise ProtocolError(CODE_BAD_REQUEST, "'slo_ms' must be a number") from None
            if not 0 < slo_ms < math.inf:
                raise ProtocolError(CODE_BAD_REQUEST,
                                    "'slo_ms' must be a positive finite number")
        target = payload.get("target")
        if kind == "predict":
            if not isinstance(target, str) or not target.strip():
                raise ProtocolError(
                    CODE_BAD_REQUEST, "a predict job requires a 'target' string")
        elif spec is None and not targets and not whatif:
            raise ProtocolError(
                CODE_BAD_REQUEST,
                "a sweep job requires a 'spec' object or inline "
                "'targets'/'whatif' axes")
        webhook = payload.get("webhook")
        if webhook is not None:
            # Syntax only: whether this server POSTs anywhere at all is
            # an operator decision — ServiceApp refuses webhooks unless
            # started with an allowlist (``--allow-webhooks`` /
            # ``--webhook-host``), which is the SSRF gate.
            if not isinstance(webhook, str) or not (
                    webhook.startswith("http://")
                    or webhook.startswith("https://")):
                raise ProtocolError(
                    CODE_BAD_REQUEST,
                    "'webhook' must be an http:// or https:// URL")
        return cls(kind=str(kind), trace=trace, bundle=bundle, spec=spec,
                   targets=tuple(targets), whatif=tuple(whatif), slo_ms=slo_ms,
                   target=target, base=dict(base),
                   reuse=bool(payload.get("reuse", False)), webhook=webhook)


# -- trace bundle transport ---------------------------------------------------

def bundle_to_json(bundle: TraceBundle) -> dict[str, Any]:
    """Serialise a bundle for inline upload (per-rank chrome-trace JSON)."""
    return {
        "metadata": dict(bundle.metadata),
        "traces": {str(rank): bundle[rank].to_json() for rank in bundle.ranks()},
    }


def bundle_from_json(payload: Mapping[str, Any]) -> TraceBundle:
    """Rebuild an uploaded bundle; malformed payloads are ``bad-request``."""
    try:
        bundle = TraceBundle(metadata=dict(payload.get("metadata", {})))
        traces = payload.get("traces", {})
        if not isinstance(traces, Mapping) or not traces:
            raise ValueError("bundle upload carries no per-rank traces")
        for rank, trace in traces.items():
            bundle.add(KinetoTrace.from_json(trace, rank=int(rank)))
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise ProtocolError(
            CODE_BAD_REQUEST, f"malformed bundle upload: {error}") from error
    return bundle


# -- result payloads ----------------------------------------------------------

def cache_stats_json(stats: CacheStats) -> dict[str, Any]:
    """The cache-counter block attached to finished jobs."""
    return {"hits": stats.hits, "misses": stats.misses,
            "lookups": stats.lookups, "hit_rate": stats.hit_rate}


def _scenario_row(result: ScenarioResult) -> dict[str, Any]:
    # ``from_cache`` is runtime state, not part of the cached payload —
    # the wire row carries it explicitly so clients can see which rows a
    # warm resubmission served from the shared cache.
    return dict(result.to_json(), from_cache=result.from_cache)


def sweep_result_payload(result: SweepResult) -> dict[str, Any]:
    """The ``GET /v1/jobs/{id}/result`` body of a finished sweep job."""
    return {
        "schema": RESULT_SCHEMA,
        "kind": "sweep",
        "workload": result.spec.workload,
        "base_time_us": result.base_time_us,
        "elapsed_seconds": result.elapsed_seconds,
        "workers": result.workers,
        "cache": cache_stats_json(result.cache_stats),
        "scenarios": [_scenario_row(r) for r in result.results],
        "ranked": [_scenario_row(r) for r in rank_results(result.results)],
        "pareto": [_scenario_row(r) for r in pareto_frontier(result.results)],
    }


def predict_result_payload(prediction: Any, *,
                           slo_ms: float | None = None) -> dict[str, Any]:
    """The result body of a finished single-prediction job."""
    metrics = prediction.serving_metrics(deadline_ms=slo_ms)
    return {
        "schema": RESULT_SCHEMA,
        "kind": "predict",
        "label": prediction.label,
        "target": {"kind": prediction.kind, "label": prediction.target},
        "world_size": prediction.world_size,
        "iteration_time_us": prediction.iteration_time_us,
        "base_time_us": prediction.base_time_us,
        "speedup_vs_base": prediction.speedup_vs_base,
        "serving": metrics.to_json() if metrics is not None else None,
    }


def validate_result_payload(payload: Any) -> dict[str, Any]:
    """Schema-check one job-result body; raises ``ValueError`` on violation."""
    if not isinstance(payload, Mapping):
        raise ValueError("result payload must be an object")
    if payload.get("schema") != RESULT_SCHEMA:
        raise ValueError(f"unsupported result schema {payload.get('schema')!r}")
    kind = payload.get("kind")
    if kind == "sweep":
        cache = payload.get("cache")
        if not isinstance(cache, Mapping) or not isinstance(
                cache.get("hit_rate"), (int, float)):
            raise ValueError("sweep result without a cache-stats block")
        scenarios = payload.get("scenarios")
        for section in ("scenarios", "ranked", "pareto"):
            rows = payload.get(section)
            if not isinstance(rows, list):
                raise ValueError(f"sweep result without a '{section}' list")
            for position, row in enumerate(rows):
                where = f"{section}[{position}]"
                if not isinstance(row, Mapping):
                    raise ValueError(f"{where} is not an object")
                for column in ("label", "kind", "target", "world_size",
                               "iteration_time_us", "base_time_us", "from_cache"):
                    if column not in row:
                        raise ValueError(f"{where} misses '{column}'")
        if len(payload["ranked"]) != len(scenarios):
            raise ValueError("ranked section must permute the scenarios")
    elif kind == "predict":
        for column in ("label", "target", "iteration_time_us",
                       "base_time_us", "speedup_vs_base"):
            if column not in payload:
                raise ValueError(f"predict result misses '{column}'")
    else:
        raise ValueError(f"unknown result kind {kind!r}")
    return dict(payload)
