"""Queue-draining workers that evaluate service jobs.

A :class:`Worker` drains the :class:`~repro.service.jobs.JobStore`:
claim the oldest queued job, rebuild its :class:`~repro.api.Study`, run
the sweep (:meth:`Study.sweep <repro.api.Study.sweep>`, the one sweep
path) or single prediction with the *shared* on-disk
:class:`~repro.sweep.cache.SweepCache`, and write the result payload
plus the job's own :class:`~repro.sweep.cache.CacheStats` back to the
job record.  Admission resolved the job's whole base and opened its
study once already, so a worker opens it with
:func:`~repro.sweep.runner.open_study` and never reads the trace metadata
or the defaults.  Studies are memoized per (bundle hash, base
configuration):
the first job against a bundle pays for replay, calibration and the
bundle's content digest, every later job against the same bundle reuses
them — and because the sweep cache is content-addressed and shared
across workers and users, popular scenario grids are answered entirely
from cache (a warm identical resubmission reports ``cache_hit_rate ==
1.0`` and costs only its cache reads).

Pickup is event-driven for workers in the process that queued the job:
an idle worker parks on the store's queued epoch, which every submit,
re-enqueue and lease-expiry requeue bumps.  Jobs queued by other
processes on a shared root are found by polling every ``poll_interval``.

While a job runs, the worker heartbeats its claim lease on a side
thread (interval = a quarter of the lease), so a *healthy* slow job is
never reclaimed, while a SIGKILLed worker stops heartbeating and its
job is requeued by any surviving store once the lease expires.  A
worker whose lease *was* reclaimed (e.g. it stalled past the deadline)
finishes its run normally — the store's stale-attempt guard discards
the late result instead of clobbering the retry.

:class:`WorkerFleet` hosts N workers as a dedicated process over a
shared ``--root`` (the ``repro-lumos work`` subcommand): every state
transition goes through atomic snapshot writes and ``O_EXCL`` lease
files, so fleets on NFS-style shared roots coexist with the serving
process without coordination.  SIGTERM drains gracefully — the in-flight
job finishes, its lease is released, the process exits 0.

Library errors become typed job failures through
:func:`~repro.service.protocol.error_for_exception` — an invalid spec or
an unsupported target fails *that job* with a stable code; the worker
itself never dies on a bad submission.

Observability follows the ``stage`` span convention
(:func:`~repro.observability.tracing.trace_span`): each processed job
records a ``service.queue_wait`` span (via
:func:`~repro.observability.tracing.record_span` — the wait elapsed
before the worker could open a span) and a ``service.run`` span, plus
queue-wait / job-latency / cache-hit-rate histograms on the service's
own always-on :class:`ServiceMetrics` registry.  The busy-worker gauge
moves only when a job is actually claimed — an idle polling fleet
truthfully reports ``service.busy_workers == 0``.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Mapping

from repro.api.study import Study
from repro.observability import tracing as observability
from repro.observability.metrics import MetricsRegistry
from repro.service.jobs import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    JobRecord,
    JobStore,
    TraceRegistry,
)
from repro.service.protocol import (
    cache_stats_json,
    error_for_exception,
    predict_result_payload,
    sweep_result_payload,
)
from repro.sweep.cache import SweepCache
from repro.sweep.hashing import hash_json
from repro.sweep.runner import open_study
from repro.sweep.spec import SweepSpec


class ServiceMetrics:
    """Always-on metrics for the service.

    Handler and worker threads write one thread-safe
    :class:`~repro.observability.metrics.MetricsRegistry`; every update is
    mirrored into the profile-gated tracing module, so a
    ``repro-lumos serve --profile`` run reports the same numbers
    ``GET /v1/metricz`` serves.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._busy_lock = threading.Lock()
        self._busy = 0
        # Seed the fleet gauges so an idle service *reports* idle instead
        # of omitting the gauge entirely.
        self.registry.gauge("service.busy_workers", 0.0)
        self.registry.gauge("service.queue_depth", 0.0)

    def count(self, name: str, n: float = 1.0) -> None:
        self.registry.count(name, n)
        observability.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name, value)
        observability.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)
        observability.observe(name, value)

    def worker_busy(self, delta: int) -> None:
        """Track the busy-worker gauge as a count (N workers, one gauge)."""
        with self._busy_lock:
            self._busy += delta
            busy = self._busy
            self.registry.gauge("service.busy_workers", busy)
        observability.gauge("service.busy_workers", busy)

    def snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()


# -- webhooks -----------------------------------------------------------------

def deliver_webhook(store: JobStore, record: JobRecord, *,
                    metrics: ServiceMetrics | None = None, tries: int = 3,
                    backoff: float = 0.2, timeout: float = 10.0) -> bool:
    """POST one terminal job record to its webhook URL.

    Bounded retries with exponential backoff; the outcome — delivered or
    exhausted — is journaled either way, so a dead receiver is a
    post-mortem line, never a worker stall.
    """
    if not record.webhook or not record.terminal:
        return False
    body = json.dumps({"job": record.public_json()}).encode("utf-8")
    last_error: Exception | None = None
    for attempt in range(1, max(1, tries) + 1):
        if attempt > 1:
            time.sleep(backoff * (2 ** (attempt - 2)))
        request = urllib.request.Request(
            record.webhook, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with contextlib.closing(
                    urllib.request.urlopen(request, timeout=timeout)):
                pass
        except (urllib.error.URLError, OSError, ValueError) as error:
            last_error = error
            continue
        store.journal_event("webhook_delivered", record,
                            url=record.webhook, attempt=attempt)
        if metrics is not None:
            metrics.count("service.webhooks.delivered")
        return True
    store.journal_event("webhook_failed", record, url=record.webhook,
                        error=str(last_error))
    if metrics is not None:
        metrics.count("service.webhooks.failed")
    return False


def deliver_webhook_async(store: JobStore, record: JobRecord, *,
                          metrics: ServiceMetrics | None = None,
                          tries: int = 3, backoff: float = 0.2,
                          timeout: float = 10.0) -> threading.Thread | None:
    """Fire-and-forget :func:`deliver_webhook` on a daemon thread."""
    if not record.webhook or not record.terminal:
        return None
    thread = threading.Thread(
        target=deliver_webhook, args=(store, record),
        kwargs={"metrics": metrics, "tries": tries, "backoff": backoff,
                "timeout": timeout},
        name=f"webhook-{record.job_id[:8]}", daemon=True)
    thread.start()
    return thread


class Worker:
    """One queue-draining evaluation loop (thread- or process-hosted)."""

    def __init__(self, store: JobStore, registry: TraceRegistry,
                 cache_root: str, *, metrics: ServiceMetrics | None = None,
                 worker_id: str = "worker-0",
                 poll_interval: float = 0.05) -> None:
        self.store = store
        self.registry = registry
        self.cache_root = cache_root
        self.metrics = metrics or ServiceMetrics()
        self.worker_id = worker_id
        self.poll_interval = poll_interval
        self.jobs_processed = 0
        self._studies: dict[tuple[str, str], Study] = {}

    # -- study memoization ---------------------------------------------------

    def _study_for(self, record: JobRecord) -> Study:
        """The memoized study of one (bundle hash, base configuration)."""
        base = record.payload.get("base")
        if base is None:
            base = (record.payload.get("spec") or {}).get("base") or {}
        # A sweep's base carries its SLO deadline, which scoring reads from
        # the spec and the study never does: jobs that differ only in
        # ``slo_ms`` share one study.
        base = {name: value for name, value in base.items() if name != "slo_ms"}
        key = (record.bundle_hash, hash_json(base)[:16])
        study = self._studies.get(key)
        if study is None:
            bundle, _ = self.registry.resolve(record.trace)
            study = self._studies[key] = open_study(
                bundle, SweepSpec.from_json({"base": base}))
        return study

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, record: JobRecord) -> tuple[dict[str, Any], dict[str, Any]]:
        """Run one claimed job; returns (result payload, cache stats)."""
        study = self._study_for(record)
        # A fresh cache handle per job keeps hit/miss counters per-job
        # while the entries themselves live in the shared on-disk root.
        cache = SweepCache(self.cache_root)
        if record.kind == "predict":
            prediction = study.predict(record.payload["target"])
            result = predict_result_payload(
                prediction, slo_ms=record.payload.get("slo_ms"))
        else:
            swept = study.sweep(SweepSpec.from_json(record.payload["spec"]), cache=cache)
            result = sweep_result_payload(swept)
        return result, cache_stats_json(cache.stats)

    def _heartbeat_loop(self, record: JobRecord, stop: threading.Event) -> None:
        interval = max(0.05, self.store.lease_seconds / 4.0)
        while not stop.wait(interval):
            if not self.store.heartbeat(record, self.worker_id):
                # The lease was reclaimed out from under us; stop
                # extending it — the stale-attempt guard in the store
                # will discard our (now superseded) result.
                return

    def run_once(self) -> bool:
        """Claim and process one job; False when the queue was empty."""
        record = self.store.claim_next(self.worker_id)
        if record is None:
            return False
        # Busy only now that a job is actually in hand — polling an
        # empty queue is idleness, not work.
        self.metrics.worker_busy(+1)
        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(record, heartbeat_stop),
            name=f"heartbeat-{record.job_id[:8]}", daemon=True)
        heartbeat.start()
        claimed = time.time()
        wait_ms = max(0.0, (claimed - record.submitted_unix) * 1000.0)
        observability.record_span(
            "service.queue_wait", start_unix=record.submitted_unix,
            end_unix=claimed, stage="queue_wait", job=record.job_id)
        self.metrics.observe("service.queue_wait_ms", wait_ms)
        self.metrics.gauge("service.queue_depth", self.store.queue_depth())
        try:
            with observability.trace_span("service.run", stage="run",
                                          job=record.job_id, kind=record.kind,
                                          trace=record.trace):
                result, cache = self._evaluate(record)
        except Exception as error:  # every failure becomes a typed record
            refusal = error_for_exception(error)
            self.store.mark_failed(record, refusal.to_json()["error"])
            self.metrics.count("service.jobs.failed")
        else:
            self.store.mark_done(record, result, cache)
            self.metrics.count("service.jobs.completed")
            self.metrics.observe("service.cache_hit_rate", cache["hit_rate"])
        finally:
            heartbeat_stop.set()
            heartbeat.join(timeout=1.0)
            # Release per-target sessions after every job so a long-lived
            # worker's memory is bounded by the calibrated cores, not by
            # every scenario grid it ever evaluated.
            for study in self._studies.values():
                study.release()
            self.jobs_processed += 1
            self.metrics.worker_busy(-1)
            self.metrics.gauge("service.queue_depth", self.store.queue_depth())
            self.metrics.observe(
                "service.job_latency_ms",
                max(0.0, (time.time() - record.submitted_unix) * 1000.0))
        # Webhook delivery rides on the store's ``on_terminal`` hook
        # (set by the app/fleet): it fires only when a finish actually
        # *applied* — a stale retry's discarded result notifies nobody —
        # and also covers worker-lost failures no worker produced.
        return True

    def run_forever(self, stop: threading.Event) -> None:
        """Drain the queue until ``stop`` is set (the serve loop's body).

        An idle worker parks on the store's queued epoch for at most
        ``poll_interval``: a job queued through this process's store
        wakes it at once, while jobs other processes queue on a shared
        root are found by the next poll.
        """
        while not stop.is_set():
            self.metrics.gauge(
                f"service.worker.{self.worker_id}.alive_unix", time.time())
            # Read before claiming, so a submit that lands after the
            # claim found nothing has already moved the epoch.
            queued = self.store.queued.value
            if not self.run_once():
                self.store.queued.wait_past(queued, self.poll_interval)


#: The sweep cache directory, under a service root, that every server and
#: fleet on the root shares unless given another.
CACHE_DIRNAME = "sweep-cache"


class WorkerFleet:
    """A dedicated worker process draining a shared service root.

    This is what ``repro-lumos work --root DIR`` runs: N worker threads
    over one :class:`JobStore`, sharing the root's sweep cache and
    bundle spool with every server and fleet on the same root.  Bundles
    resolve from ``--trace NAME=DIR`` registrations plus the root's
    ``bundles/`` spool (where servers park inline uploads), so a fleet
    started before an upload still picks the job up.
    """

    def __init__(self, root: str | Path, *,
                 traces: Mapping[str, str | Path] | None = None,
                 cache_root: str | Path | None = None, workers: int = 1,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 poll_interval: float = 0.05,
                 metrics: ServiceMetrics | None = None) -> None:
        self.root = Path(root)
        self.store = JobStore(self.root, lease_seconds=lease_seconds,
                              max_attempts=max_attempts)
        self.registry = TraceRegistry(spool_dir=self.root / "bundles")
        for name, path in (traces or {}).items():
            self.registry.register(name, path)
        self.cache_root = str(cache_root if cache_root is not None
                              else self.root / CACHE_DIRNAME)
        self.metrics = metrics or ServiceMetrics()
        # Terminal records this fleet's store writes — its own finishes
        # and worker-lost reclaims — notify webhook subscribers.  The
        # URLs were vetted at admission by the server that accepted the
        # submission, so the fleet trusts what is on the shared root.
        self.store.on_terminal = lambda record: deliver_webhook_async(
            self.store, record, metrics=self.metrics)
        prefix = f"{socket.gethostname()}:{os.getpid()}"
        self.workers = [
            Worker(self.store, self.registry, self.cache_root,
                   metrics=self.metrics, worker_id=f"{prefix}:{index}",
                   poll_interval=poll_interval)
            for index in range(max(1, int(workers)))
        ]

    @property
    def jobs_processed(self) -> int:
        return sum(worker.jobs_processed for worker in self.workers)

    def run(self, stop: threading.Event | None = None, *,
            install_signals: bool = False) -> int:
        """Drain until ``stop`` — or SIGTERM/SIGINT with signals installed.

        The drain is graceful: workers finish (and release the lease of)
        their in-flight job before exiting; only *then* does this return
        0, so ``kill -TERM`` never strands a ``running`` record.
        """
        stop = stop or threading.Event()
        if install_signals:
            def _drain(signum: int, frame: Any) -> None:
                stop.set()
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        threads = [
            threading.Thread(target=worker.run_forever, args=(stop,),
                             name=worker.worker_id)
            for worker in self.workers
        ]
        for thread in threads:
            thread.start()
        try:
            while not stop.is_set():
                stop.wait(0.2)
        finally:
            stop.set()
            # Wake idle workers so they see the stop flag now, not after
            # their poll interval.
            self.store.queued.bump()
            for thread in threads:
                thread.join()
        return 0
