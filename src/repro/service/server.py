"""Zero-new-dependency HTTP front end for the sweep service.

:class:`ServiceApp` wires a stdlib ``ThreadingHTTPServer`` to the job
store, the trace registry, in-process worker threads and the service
metrics; the handler is a thin JSON layer over the app's methods.

Endpoints (all JSON):

``POST /v1/jobs``
    Submit a sweep or single-prediction job
    (:class:`~repro.service.protocol.SubmitRequest`).  Responds 202 with
    ``{"job": {...}, "deduped": bool}``; duplicate submissions of an
    identical (bundle, spec) pair dedupe to one queued/running job.
``GET /v1/jobs/{id}``
    Job status (states ``queued → running → done/failed/cancelled``).
``GET /v1/jobs/{id}/result``
    The finished job's result payload — for sweeps the expansion-order
    rows plus the ranked order and Pareto frontier from
    ``sweep.analysis``.  409 ``job-not-done`` / ``job-failed`` before
    then.
``GET /v1/healthz``
    Liveness plus queue/worker/registered-trace summary.
``GET /v1/metricz``
    The always-on :class:`~repro.service.worker.ServiceMetrics` registry
    snapshot.

Every refusal is a typed 4xx JSON body with a stable machine-readable
``code`` (:mod:`repro.service.protocol`); unexpected exceptions map to
one 500 ``internal`` body, never a traceback over the wire.

Admission resolves a job's base by the rule every entry point shares
(:func:`repro.api.study.resolve_base`): the spec's ``base``, the request's
``base``, the trace metadata, the defaults.  Inline ``targets`` and
``whatif`` axes make a JSON spec (:func:`repro.sweep.spec.inline_spec`).
Admission then opens the study its worker will open
(:func:`repro.sweep.runner.open_study`), so a guessed base or a model the
study cannot resolve is refused with a ``study-error`` before anything is
queued.

Shutdown is graceful: SIGTERM/SIGINT (or :meth:`ServiceApp.stop`) stops
accepting connections, signals the workers and joins them — a job mid-run
finishes and persists before the process exits.
"""

from __future__ import annotations

import json
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.api.target import parse_target, resolve_target
from repro.api.errors import StudyError
from repro.observability import tracing as observability
from repro.service.jobs import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    STATE_DONE,
    STATE_FAILED,
    JobRecord,
    JobStore,
    TraceRegistry,
    job_id_for,
)
from repro.service.protocol import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_JOB_FAILED,
    CODE_JOB_NOT_DONE,
    CODE_UNKNOWN_JOB,
    PROTOCOL_VERSION,
    ProtocolError,
    SubmitRequest,
    error_for_exception,
)
from repro.service.worker import CACHE_DIRNAME, ServiceMetrics, Worker, deliver_webhook_async
from repro.sweep.runner import open_study
from repro.sweep.spec import SweepSpec, inline_spec
from repro.trace.kineto import TraceBundle
from repro.version import __version__

#: Ceiling on one ``GET /v1/jobs/{id}?wait=`` long-poll, so a client
#: typo cannot park a handler thread for hours.
MAX_WAIT_SECONDS = 60.0


class _Handler(BaseHTTPRequestHandler):
    """JSON request plumbing; all logic lives on the app."""

    protocol_version = "HTTP/1.1"
    server: "_Server"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, *args: Any) -> None:
        pass  # requests are counted in metrics, not printed to stderr

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: ProtocolError) -> None:
        self._send(error.status, error.to_json())

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(
                CODE_BAD_REQUEST, f"request body is not valid JSON: {error}") from error

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # http.server handler API
        app = self.server.app
        app.metrics.count("service.requests")
        try:
            raw_path, _, query = self.path.partition("?")
            path = raw_path.rstrip("/")
            if path == "/v1/healthz":
                self._send(200, app.health())
            elif path == "/v1/metricz":
                self._send(200, app.metricz())
            elif path.startswith("/v1/jobs/") and path.endswith("/result"):
                job_id = path[len("/v1/jobs/"):-len("/result")]
                self._send(200, app.job_result(job_id))
            elif path.startswith("/v1/jobs/"):
                params = urllib.parse.parse_qs(query)
                wait = params.get("wait", [None])[-1]
                self._send(200, app.job_status(path[len("/v1/jobs/"):],
                                               wait=wait))
            else:
                raise ProtocolError(CODE_BAD_REQUEST, f"no route for GET {path}")
        except ProtocolError as error:
            self._send_error(error)
        except Exception as error:  # one 500 body, never a traceback
            self._send_error(ProtocolError(CODE_INTERNAL, str(error)))

    def do_POST(self) -> None:  # http.server handler API
        app = self.server.app
        app.metrics.count("service.requests")
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/v1/jobs":
                self._send(202, app.submit(self._read_json()))
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/"):-len("/cancel")]
                self._send(200, app.cancel(job_id))
            else:
                raise ProtocolError(CODE_BAD_REQUEST, f"no route for POST {path}")
        except ProtocolError as error:
            self._send_error(error)
        except Exception as error:
            self._send_error(ProtocolError(CODE_INTERNAL, str(error)))


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    app: "ServiceApp"


class ServiceApp:
    """The sweep service: HTTP front end + job store + worker threads."""

    def __init__(self, root: str | Path, *, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 1,
                 traces: Mapping[str, str | Path] | None = None,
                 cache_root: str | Path | None = None,
                 poll_interval: float = 0.05,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 webhook_hosts: Sequence[str] | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.root, lease_seconds=lease_seconds,
                              max_attempts=max_attempts)
        spool = self.root / "bundles"
        spool.mkdir(parents=True, exist_ok=True)
        self.registry = TraceRegistry(spool_dir=spool)
        for name, path in (traces or {}).items():
            self.registry.register(name, path)
        self.cache_root = str(cache_root if cache_root is not None
                              else self.root / CACHE_DIRNAME)
        self.metrics = ServiceMetrics()
        # Webhooks are POSTs *from the service's network* to a
        # submitter-chosen URL — an SSRF vector unless the operator opts
        # in.  ``None`` (the default) refuses webhook submissions
        # outright; ``("*",)`` allows any host; anything else is an
        # exact-hostname allowlist.  The same policy gates delivery, so
        # a strict server never POSTs records admitted elsewhere on a
        # shared root.
        self.webhook_hosts = (tuple(webhook_hosts)
                              if webhook_hosts is not None else None)
        self.store.on_terminal = self._notify_terminal
        self.worker_count = max(0, int(workers))
        self.poll_interval = poll_interval
        self._server = _Server((host, port), _Handler)
        self._server.app = self
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.workers: list[Worker] = [
            Worker(self.store, self.registry, self.cache_root,
                   metrics=self.metrics, worker_id=f"worker-{index}",
                   poll_interval=poll_interval)
            for index in range(self.worker_count)]

    # -- addresses -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port 0 resolves at construction."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- webhooks ------------------------------------------------------------

    def _webhook_allowed(self, url: str) -> bool:
        if self.webhook_hosts is None:
            return False
        if "*" in self.webhook_hosts:
            return True
        host = (urllib.parse.urlsplit(url).hostname or "").lower()
        return host in {allowed.lower() for allowed in self.webhook_hosts}

    def _check_webhook(self, url: str) -> None:
        """Refuse a webhook URL the operator's policy does not allow."""
        if self._webhook_allowed(url):
            return
        if self.webhook_hosts is None:
            raise ProtocolError(
                CODE_BAD_REQUEST,
                "this server does not accept webhooks; start it with "
                "--allow-webhooks (any host) or --webhook-host HOST")
        host = urllib.parse.urlsplit(url).hostname or ""
        raise ProtocolError(
            CODE_BAD_REQUEST,
            f"webhook host {host!r} is not in this server's allowlist "
            f"({', '.join(self.webhook_hosts)})")

    def _notify_terminal(self, record: JobRecord) -> None:
        """The store's ``on_terminal`` hook: deliver the webhook, gated
        by the same policy that admitted it (defense in depth against
        records a *different*, laxer server wrote to a shared root)."""
        if record.webhook and self._webhook_allowed(record.webhook):
            deliver_webhook_async(self.store, record, metrics=self.metrics)

    # -- request handling (shared by the HTTP layer and tests) ---------------

    def submit(self, payload: Any) -> dict[str, Any]:
        """Admit one ``POST /v1/jobs`` body; returns the response body."""
        request = SubmitRequest.parse(payload)
        if request.webhook is not None:
            self._check_webhook(request.webhook)
        with observability.trace_span("service.admit", stage="admit",
                                      kind=request.kind):
            if request.bundle is not None:
                trace_name = self.registry.store_inline(request.bundle)
            else:
                trace_name = request.trace
            bundle, bundle_hash = self.registry.resolve(trace_name)
            try:
                job_payload = self._job_payload(request, bundle)
            except (StudyError, ValueError) as error:
                raise error_for_exception(error) from error
            job_id = job_id_for(bundle_hash, request.kind, job_payload)
            # The webhook rides on the record, *not* in the hashed
            # payload — identical (bundle, spec) submissions still dedupe
            # to one job id; a deduped submission keeps the first webhook.
            record = JobRecord(job_id=job_id, kind=request.kind,
                               trace=trace_name, bundle_hash=bundle_hash,
                               payload=job_payload, webhook=request.webhook)
            record, deduped = self.store.submit(record, reuse=request.reuse)
        self.metrics.count("service.jobs.submitted")
        if deduped:
            self.metrics.count("service.jobs.deduped")
        self.metrics.gauge("service.queue_depth", self.store.queue_depth())
        return {"job": record.public_json(), "deduped": deduped}

    def _job_payload(self, request: SubmitRequest,
                     bundle: TraceBundle) -> dict[str, Any]:
        """Canonicalize and validate the job payload at admission.

        Validation runs here so malformed specs and unsupported targets
        refuse with a 4xx at submit time instead of failing the job later
        — the job id then hashes a *canonical* payload, which is what
        makes dedupe robust to equivalent spellings.  Targets are judged
        by the manipulation layer's resolve walk, as a study judges them,
        except for memory: admission does not know the profiled GPU.  The
        last check opens the job's study, as its worker will.
        """
        named = dict(request.base)
        if request.kind == "predict":
            # Parsing canonicalises the target (and refuses malformed
            # ones with the PredictError → 4xx mapping); str(Target)
            # round-trips, including composite workload+hardware targets,
            # so every spelling of one configuration hashes to one job.
            target = parse_target(request.target)
            spec = SweepSpec.coerce({}, bundle.metadata, named)
            resolve_target(target, spec.base_configuration())
            payload: dict[str, Any] = {"base": spec.base_json(),
                                       "target": str(target)}
            if request.slo_ms is not None:
                payload["slo_ms"] = request.slo_ms
        else:
            source = request.spec
            if source is None:
                source = inline_spec(request.targets, request.whatif)
                named["slo_ms"] = request.slo_ms
            spec = SweepSpec.coerce(source, bundle.metadata, named)
            spec.validate()
            payload = {"base": spec.base_json(), "spec": spec.to_json()}
        open_study(bundle, spec)
        return payload

    def job_status(self, job_id: str,
                   wait: str | float | None = None) -> dict[str, Any]:
        """Job status; with ``wait=`` seconds, long-poll for a terminal.

        The long-poll parks on the store's per-job epoch — an
        in-process worker's terminal transition answers immediately; a
        fleet worker's transition is observed by the store's bounded
        refresh loop.  The response is the same body either way: clients
        inspect ``job.state`` to see whether the wait was satisfied.
        """
        if wait is not None:
            try:
                seconds = float(wait)
            except (TypeError, ValueError):
                raise ProtocolError(
                    CODE_BAD_REQUEST,
                    f"'wait' must be a number of seconds, got {wait!r}") from None
            seconds = min(max(0.0, seconds), MAX_WAIT_SECONDS)
            record = self.store.wait_for_terminal(job_id, seconds)
        else:
            record = self.store.get(job_id)
        if record is None:
            raise ProtocolError(CODE_UNKNOWN_JOB, f"no job {job_id!r}")
        return {"job": record.public_json()}

    def job_result(self, job_id: str) -> dict[str, Any]:
        record = self.store.get(job_id)
        if record is None:
            raise ProtocolError(CODE_UNKNOWN_JOB, f"no job {job_id!r}")
        if record.state == STATE_FAILED:
            error = record.error or {}
            raise ProtocolError(
                CODE_JOB_FAILED,
                f"job {job_id} failed "
                f"[{error.get('code', 'unknown')}]: {error.get('message', '')}")
        if record.state != STATE_DONE or record.result is None:
            raise ProtocolError(
                CODE_JOB_NOT_DONE, f"job {job_id} is {record.state}")
        return {"job": record.public_json(), "result": record.result}

    def cancel(self, job_id: str) -> dict[str, Any]:
        record = self.store.cancel(job_id)
        self.metrics.count("service.jobs.cancelled")
        self.metrics.gauge("service.queue_depth", self.store.queue_depth())
        # Cancellation is a terminal transition like any other: the
        # store's on_terminal hook notifies the webhook subscriber.
        return {"job": record.public_json()}

    def health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": self.store.queue_depth(),
            "workers": self.worker_count,
            "traces": self.registry.names(),
        }

    def metricz(self) -> dict[str, Any]:
        snapshot = self.metrics.snapshot()
        # Fleet-truthful gauges come straight from the store: the queue
        # depth and lease counters reflect every process on the shared
        # root, not just this server's own workers.
        self.store.refresh()
        snapshot["gauges"]["service.queue_depth"] = float(self.store.queue_depth())
        snapshot["gauges"]["service.leases.active"] = float(
            len(self.store.active_leases()))
        counters = snapshot.setdefault("counters", {})
        counters["service.leases.expired"] = float(
            counters.get("service.leases.expired", 0.0)
            + self.store.lease_expirations)
        return snapshot

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceApp":
        """Run the HTTP server and worker threads in the background."""
        server_thread = threading.Thread(
            target=self._server.serve_forever, name="service-http", daemon=True)
        server_thread.start()
        self._threads = [server_thread]
        for worker in self.workers:
            thread = threading.Thread(target=worker.run_forever,
                                      args=(self._stop,),
                                      name=worker.worker_id, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain: stop accepting, finish running jobs, join."""
        self._stop.set()
        # Wake idle workers so they see the stop flag now, not after
        # their poll interval.
        self.store.queued.bump()
        self._server.shutdown()
        self._server.server_close()
        for thread in self._threads[1:]:
            thread.join(timeout=timeout)
        if self._threads:
            self._threads[0].join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "ServiceApp":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def serve_forever(self, install_signals: bool = True) -> int:
        """The blocking CLI loop: serve until SIGTERM/SIGINT, then drain."""
        if install_signals:
            def _drain(signum: int, frame: Any) -> None:
                # shutdown() blocks until serve_forever returns, so it
                # must run off the signal-handling (main) thread.
                threading.Thread(target=self._server.shutdown,
                                 daemon=True).start()

            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        for worker in self.workers:
            thread = threading.Thread(target=worker.run_forever,
                                      args=(self._stop,),
                                      name=worker.worker_id, daemon=True)
            thread.start()
            self._threads.append(thread)
        try:
            self._server.serve_forever()
        finally:
            self._stop.set()
            self.store.queued.bump()
            for thread in self._threads:
                thread.join(timeout=30.0)
            self._threads = []
            self._server.server_close()
        return 0
