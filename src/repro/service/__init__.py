"""Sweep-as-a-service: an HTTP API + worker queue over the shared cache.

The service front end turns the what-if platform into a multi-user
system: clients submit a sweep (or single prediction) against an
uploaded or server-registered trace bundle, poll job status, and fetch
ranked / Pareto results — while worker threads (or separate worker
processes sharing the same job root) drain the queue through the
memoized :class:`~repro.api.Study` machinery and the content-addressed
on-disk :class:`~repro.sweep.cache.SweepCache`, so popular scenario
grids are answered from cache across users.

Layers (each its own module):

:mod:`repro.service.protocol`
    Versioned JSON request/response schemas and the stable typed error
    codes (4xx for spec/target/study refusals, never a traceback).
:mod:`repro.service.jobs`
    The persistent job store (JSON snapshots + journal + ``O_EXCL``
    claim *leases* with heartbeats and crash recovery — an expired
    lease requeues its job, capped by ``max_attempts``) with
    content-hash job ids — identical submissions dedupe to one job —
    and the named trace registry.
:mod:`repro.service.worker`
    Queue-draining workers (woken by in-process submits, polling for
    jobs other processes queue), per-bundle study memoization, per-job
    cache stats, the always-on thread-safe service metrics, webhook
    delivery, and :class:`WorkerFleet` — the dedicated ``repro-lumos
    work`` process draining a shared root.
:mod:`repro.service.server`
    The zero-new-dependency ``ThreadingHTTPServer`` front end
    (``/v1/jobs``, ``/v1/healthz``, ``/v1/metricz``) with graceful
    SIGTERM/SIGINT drain.
:mod:`repro.service.client`
    The stdlib ``urllib`` client used by tests, examples and the
    ``repro-lumos serve`` / ``submit`` CLI subcommands.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobRecord, JobStore, TraceRegistry, job_id_for
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SubmitRequest,
    bundle_from_json,
    bundle_to_json,
    error_for_exception,
    predict_result_payload,
    sweep_result_payload,
    validate_result_payload,
)
from repro.service.server import ServiceApp
from repro.service.worker import ServiceMetrics, Worker, WorkerFleet, deliver_webhook

__all__ = [
    "PROTOCOL_VERSION",
    "JobRecord",
    "JobStore",
    "ProtocolError",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SubmitRequest",
    "TraceRegistry",
    "Worker",
    "WorkerFleet",
    "bundle_from_json",
    "bundle_to_json",
    "deliver_webhook",
    "error_for_exception",
    "job_id_for",
    "predict_result_payload",
    "sweep_result_payload",
    "validate_result_payload",
]
