"""Persistent job store and trace registry for the sweep service.

Jobs are content-addressed the same way the sweep cache is: a job id is
the (truncated) :func:`~repro.sweep.hashing.hash_json` of the bundle
hash plus the canonical job payload, so two clients submitting the
identical (bundle, spec) pair compute the identical id and dedupe to one
queued/running job.  Resubmitting after completion re-enqueues by
default — the rerun is answered from the shared on-disk sweep cache —
while ``reuse: true`` returns the finished record without a rerun.

Persistence is one JSON snapshot per job under ``<root>/jobs/`` (written
with the same tmp-file + ``os.replace`` idiom as the sweep cache, so
snapshots are never torn) plus an append-only ``journal.jsonl`` of state
transitions for post-mortems.  :meth:`JobStore.refresh` rescans the
directory; a terminal record already indexed is only *re-read* when the
snapshot file's stat identity (mtime/size/inode) changed since it was
indexed — which is how a re-enqueue written by another process (a
resubmission rewrites the same ``jobs/{id}.json`` path back to
``queued``) is observed by every store sharing the root.  Unchanged
terminal snapshots cost one ``stat()``, so fleet polling parses JSON
only for the *non-terminal* jobs, not the store's full history.

Claims are **leases**, not bare markers: the ``O_EXCL`` claim file under
``<root>/claims/`` carries ``{worker, pid, hostname, deadline_unix}``
JSON, and the claiming worker extends the deadline mid-job via
:meth:`JobStore.heartbeat` (an atomic tmp + ``os.replace`` rewrite).
``O_EXCL`` creation still makes *claiming* exclusive across worker
threads and worker processes alike; the deadline is what makes the claim
*recoverable*: a worker that dies without releasing its claim stops
heartbeating, the lease expires, and the next ``claim_next``/``refresh``
on any store sharing the root reclaims the job — requeued with
``attempts`` bumped (journal event ``lease_expired``), or failed with
the typed ``worker-lost`` code once ``max_attempts`` is exhausted.
Reclaim itself is arbitrated by an atomic rename of the expired claim
file, so concurrent reapers requeue a lost job exactly once.

States move ``queued → running → done/failed/cancelled``; a terminal
record never mutates *in place* — a re-enqueue replaces the snapshot
wholesale with a fresh ``queued`` record (``attempts`` bumped), which
the stat check above makes visible to every store, and a late finisher
whose job was meanwhile requeued or terminally failed is discarded
(journal ``stale_finish``) instead of overwriting the newer record.
Every terminal transition bumps a per-job :class:`Epoch`, which is what
``GET /v1/jobs/{id}?wait=`` long-polls on, and every transition into
``queued`` bumps the store-wide :attr:`JobStore.queued` epoch, which is
what idle in-process workers park on; both fall back to a bounded poll
(via ``refresh``) for transitions written by other processes on a shared
root.  A store's optional ``on_terminal`` callback fires for every
terminal record *this* store wrote — worker finishes, cancels, and
lease-expiry ``worker-lost`` failures alike — which is how webhook
subscribers hear about terminal transitions no worker produced.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.service.protocol import (
    CODE_BAD_REQUEST,
    CODE_JOB_STATE,
    CODE_UNKNOWN_JOB,
    CODE_UNKNOWN_TRACE,
    CODE_WORKER_LOST,
    ProtocolError,
    bundle_from_json,
)
from repro.sweep.hashing import hash_json, hash_trace_bundle
from repro.trace.kineto import TraceBundle

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)

#: Journal event written when an expired lease requeues (or fails) a job.
EVENT_LEASE_EXPIRED = "lease_expired"

_RECORD_SCHEMA = 1

#: Default seconds a claim lease lives without a heartbeat.
DEFAULT_LEASE_SECONDS = 30.0
#: Default attempts (initial + lease-expiry requeues) before ``worker-lost``.
DEFAULT_MAX_ATTEMPTS = 3


class Epoch:
    """A transition counter with a condition to wait for it to move.

    A waiter reads :attr:`value` *before* it checks the state it waits
    on, then waits for the value to move past what it read: a transition
    that lands between the check and the wait has already moved it, so
    no wakeup is lost.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self.value = 0

    def bump(self) -> None:
        """Count one transition and wake every waiter."""
        with self._condition:
            self.value += 1
            self._condition.notify_all()

    def wait_past(self, value: int, timeout: float) -> bool:
        """Block until the count moves past ``value``; False on timeout."""
        with self._condition:
            return self._condition.wait_for(lambda: self.value != value,
                                            timeout)


def job_id_for(bundle_hash: str, kind: str, payload: Mapping[str, Any]) -> str:
    """The deterministic job id of one (bundle, job payload) pair."""
    return hash_json({"schema": _RECORD_SCHEMA, "bundle": bundle_hash,
                      "kind": kind, "payload": payload})[:32]


@dataclass
class JobRecord:
    """One job's full persisted state."""

    job_id: str
    kind: str
    trace: str
    bundle_hash: str
    payload: dict[str, Any]
    state: str = STATE_QUEUED
    submitted_unix: float = 0.0
    started_unix: float | None = None
    finished_unix: float | None = None
    worker: str | None = None
    attempts: int = 1
    error: dict[str, Any] | None = None
    result: dict[str, Any] | None = None
    cache: dict[str, Any] | None = None
    webhook: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": _RECORD_SCHEMA,
            "job_id": self.job_id,
            "kind": self.kind,
            "trace": self.trace,
            "bundle_hash": self.bundle_hash,
            "payload": self.payload,
            "state": self.state,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "worker": self.worker,
            "attempts": self.attempts,
            "error": self.error,
            "result": self.result,
            "cache": self.cache,
            "webhook": self.webhook,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobRecord":
        return cls(
            job_id=str(payload["job_id"]),
            kind=str(payload["kind"]),
            trace=str(payload["trace"]),
            bundle_hash=str(payload["bundle_hash"]),
            payload=dict(payload["payload"]),
            state=str(payload["state"]),
            submitted_unix=float(payload["submitted_unix"]),
            started_unix=payload.get("started_unix"),
            finished_unix=payload.get("finished_unix"),
            worker=payload.get("worker"),
            attempts=int(payload.get("attempts", 1)),
            error=payload.get("error"),
            result=payload.get("result"),
            cache=payload.get("cache"),
            webhook=payload.get("webhook"),
        )

    def public_json(self) -> dict[str, Any]:
        """The status body ``GET /v1/jobs/{id}`` serves (no result bulk)."""
        body = {
            "job_id": self.job_id,
            "kind": self.kind,
            "trace": self.trace,
            "state": self.state,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "worker": self.worker,
            "attempts": self.attempts,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.cache is not None:
            body["cache"] = self.cache
        if self.webhook is not None:
            body["webhook"] = self.webhook
        return body


class JobStore:
    """On-disk JSON journal + in-memory index of every job."""

    def __init__(self, root: str | Path, *,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.journal_path = self.root / "journal.jsonl"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = max(1, int(max_attempts))
        #: Expired leases this store observed and reclaimed (requeue or
        #: worker-lost failure) — the ``service.leases.expired`` counter.
        self.lease_expirations = 0
        #: Called with every terminal record *this store* writes (worker
        #: finishes, cancels, and lease-expiry ``worker-lost`` failures).
        #: The server and fleet hook webhook delivery here; exceptions
        #: are swallowed so a bad subscriber never breaks a transition.
        self.on_terminal: Callable[[JobRecord], None] | None = None
        self._lock = threading.Lock()
        self._index: dict[str, JobRecord] = {}
        #: Stat identity of each indexed snapshot file, used to detect
        #: that a terminal record was replaced on disk (a re-enqueue by
        #: another process) without re-parsing unchanged snapshots.
        self._snapshot_stat: dict[str, tuple[int, int, int] | None] = {}
        #: Bumped on every transition into ``queued`` this store writes
        #: (a submit, a re-enqueue, a lease-expiry requeue) and on
        #: shutdown: idle in-process workers park on it instead of
        #: sleeping a poll interval out.
        self.queued = Epoch()
        #: Per-job transition counters the long-poll waits on.
        self._epochs: dict[str, Epoch] = {}
        self.refresh()

    # -- persistence ---------------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _claim_path(self, job_id: str) -> Path:
        return self.claims_dir / f"{job_id}.claim"

    @staticmethod
    def _signature(path: Path) -> tuple[int, int, int] | None:
        """The (mtime_ns, size, inode) identity of one snapshot file."""
        try:
            stat = path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def _write(self, record: JobRecord) -> None:
        path = self._record_path(record.job_id)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{record.job_id}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record.to_json()))
            # The tmp file's inode — and so its stat identity — survives
            # the rename, so this is *our* snapshot's signature even if
            # another process replaces the path right after us.
            signature = self._signature(Path(tmp_name))
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        self._index[record.job_id] = record
        self._snapshot_stat[record.job_id] = signature

    def _journal(self, event: str, record: JobRecord, **extra: Any) -> None:
        line = json.dumps({"event": event, "job_id": record.job_id,
                           "state": record.state, "unix": time.time(), **extra})
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def journal_event(self, event: str, record: JobRecord, **extra: Any) -> None:
        """Append one out-of-band journal line (e.g. webhook delivery)."""
        self._journal(event, record, **extra)

    def journal_events(self) -> list[dict[str, Any]]:
        """Every parseable journal line, oldest first (post-mortem helper)."""
        events = []
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                for line in handle:
                    with contextlib.suppress(ValueError):
                        events.append(json.loads(line))
        except OSError:
            pass
        return events

    def _read(self, path: Path) -> JobRecord | None:
        # Tolerant like the sweep cache: a torn or foreign file is simply
        # not a job (snapshot writes are atomic, so this is belt and
        # braces for external interference).
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("schema") != _RECORD_SCHEMA:
                return None
            return JobRecord.from_json(payload)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _load_locked(self, job_id: str) -> JobRecord | None:
        """Stat + read + index one snapshot (caller holds the lock)."""
        path = self._record_path(job_id)
        # Signature before content: if the file is replaced between the
        # two calls we store a stale signature and simply re-read next
        # time — conservative, never the other way around.
        signature = self._signature(path)
        record = self._read(path)
        if record is not None:
            self._index[record.job_id] = record
            self._snapshot_stat[record.job_id] = signature
        return record

    def _current_locked(self, job_id: str) -> JobRecord | None:
        """The up-to-date record (caller holds the lock).

        A terminal index entry whose snapshot file is stat-identical to
        when it was indexed is served from memory; anything else —
        non-terminal, never seen, or a replaced snapshot (a re-enqueue
        written by another process) — is re-read from disk.
        """
        cached = self._index.get(job_id)
        if cached is not None and cached.terminal \
                and self._snapshot_stat.get(job_id) == \
                self._signature(self._record_path(job_id)):
            return cached
        fresh = self._load_locked(job_id)
        return fresh if fresh is not None else cached

    def refresh(self) -> list[JobRecord]:
        """Rescan the jobs directory and reclaim expired leases.

        Terminal records already in the index are only re-read when
        their snapshot file changed on disk (stat mtime/size/inode) —
        fleet polling pays one ``stat()`` per terminal job but parses
        JSON only for non-terminal (or replaced) snapshots.  Running
        jobs whose lease deadline has passed are reclaimed (requeued, or
        failed with ``worker-lost``); the reclaimed records are
        returned.
        """
        with self._lock:
            for path in sorted(self.jobs_dir.glob("*.json")):
                self._current_locked(path.stem)
            running = [record for record in self._index.values()
                       if record.state == STATE_RUNNING]
        now = time.time()
        reclaimed = []
        for record in running:
            if self._lease_expired(record.job_id, now,
                                   fallback_unix=record.started_unix):
                out = self._reclaim(record)
                if out is not None:
                    reclaimed.append(out)
        return reclaimed

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        """The current record, re-read from disk unless the indexed
        record is terminal *and* its snapshot file is unchanged."""
        with self._lock:
            return self._current_locked(job_id)

    def jobs(self) -> list[JobRecord]:
        """Every known record, oldest submission first."""
        with self._lock:
            records = list(self._index.values())
        return sorted(records, key=lambda r: (r.submitted_unix, r.job_id))

    def queue_depth(self) -> int:
        return sum(1 for record in self.jobs() if record.state == STATE_QUEUED)

    # -- leases --------------------------------------------------------------

    def _lease_payload(self, worker: str, now: float) -> dict[str, Any]:
        return {"worker": worker, "pid": os.getpid(),
                "hostname": socket.gethostname(),
                "deadline_unix": now + self.lease_seconds}

    def read_lease(self, job_id: str) -> dict[str, Any] | None:
        """The claim file's lease JSON, or ``None`` when absent/unreadable."""
        try:
            payload = json.loads(
                self._claim_path(job_id).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def active_leases(self) -> list[dict[str, Any]]:
        """Every readable lease on the root (liveness introspection)."""
        leases = []
        for path in sorted(self.claims_dir.glob("*.claim")):
            lease = self.read_lease(path.stem)
            if lease is not None:
                leases.append(dict(lease, job_id=path.stem))
        return leases

    def _lease_expired(self, job_id: str, now: float, *,
                       fallback_unix: float | None = None) -> bool:
        """Whether the claim on ``job_id`` is past its deadline.

        An unreadable or legacy (non-JSON) claim falls back to a grace
        period from the claim file's mtime (or ``fallback_unix``), so a
        claim being written right now is never reclaimed mid-birth.
        """
        lease = self.read_lease(job_id)
        if lease is not None:
            with contextlib.suppress(KeyError, TypeError, ValueError):
                return now > float(lease["deadline_unix"])
        try:
            anchor = self._claim_path(job_id).stat().st_mtime
        except OSError:
            # No claim file at all: a crash landed between snapshot and
            # claim bookkeeping. Grace from the record's own timestamps.
            anchor = fallback_unix or 0.0
        if fallback_unix:
            anchor = max(anchor, fallback_unix)
        return now > anchor + self.lease_seconds

    def heartbeat(self, record: JobRecord, worker: str | None = None) -> bool:
        """Atomically extend this process's lease on a running job.

        Returns ``False`` — without touching anything — when the lease is
        no longer held by (``worker``, this pid): the job was reclaimed
        out from under a stalled worker, which should abandon the run.

        Known (tolerated) race: the ownership check and the
        ``os.replace`` are not one atomic step, so a stalled-but-alive
        worker can pass the check just before a reaper renames its
        expired claim away and then clobber the *new* owner's freshly
        written lease.  The fallout is bounded, not fatal: the new owner
        sees its heartbeats refused and abandons its (duplicate) run;
        the stalled worker keeps heartbeating and finishes, but its
        result is discarded by the stale-attempt guard in ``_finish``;
        the claim it leaves behind expires unheartbeated and is swept by
        the next ``claim_next``/``refresh``, so the job is requeued and
        completes.  Closing the window entirely would need an ``fcntl``
        lock or owner-named claim files with ``link()``-based
        compare-and-swap — not worth it for a file-based lease whose
        deadlines already bound every failure mode.
        """
        worker = worker if worker is not None else record.worker
        lease = self.read_lease(record.job_id)
        if lease is None or lease.get("worker") != worker \
                or lease.get("pid") != os.getpid():
            return False
        payload = dict(lease, deadline_unix=time.time() + self.lease_seconds)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.claims_dir, prefix=f".{record.job_id}-", suffix=".hb")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_name, self._claim_path(record.job_id))
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            return False
        return True

    def _take_claim(self, job_id: str, worker: str) -> bool:
        """Win the ``O_EXCL`` race and write the lease; False on loss."""
        try:
            fd = os.open(self._claim_path(job_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self._lease_payload(worker, time.time())))
        return True

    def _remove_claim_atomically(self, job_id: str) -> bool:
        """Remove a (stale) claim via rename — exactly one caller wins."""
        token = self.claims_dir / \
            f".{job_id}.reap-{os.getpid()}-{threading.get_ident()}"
        try:
            os.rename(self._claim_path(job_id), token)
        except OSError:
            return False
        with contextlib.suppress(OSError):
            os.unlink(token)
        return True

    def _reclaim(self, record: JobRecord) -> JobRecord | None:
        """Recover one running job whose lease expired.

        The atomic claim-file rename is the cross-process arbiter: of N
        stores observing the same expired lease, exactly one requeues the
        job (journal ``lease_expired``) or — once ``attempts`` reaches
        ``max_attempts`` — fails it with the typed ``worker-lost`` error.
        """
        claim = self._claim_path(record.job_id)
        token = self.claims_dir / \
            f".{record.job_id}.reap-{os.getpid()}-{threading.get_ident()}"
        try:
            os.rename(claim, token)
        except OSError:
            # No claim file: the worker crashed before the lease landed
            # (or an operator removed it). O_EXCL-creating the claim
            # ourselves is an equivalent one-winner arbiter.
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
            except OSError:
                return None
            token = claim
        try:
            with self._lock:
                current = self._read(self._record_path(record.job_id))
                if current is None or current.state != STATE_RUNNING \
                        or current.attempts != record.attempts:
                    return None  # finished or already reclaimed meanwhile
                self.lease_expirations += 1
                lost_worker = current.worker
                if current.attempts >= self.max_attempts:
                    reclaimed = replace(
                        current, state=STATE_FAILED,
                        finished_unix=time.time(), result=None,
                        error={"code": CODE_WORKER_LOST,
                               "message": f"worker {lost_worker!r} lost its "
                                          f"lease and the job exhausted "
                                          f"{current.attempts} of "
                                          f"{self.max_attempts} attempts"})
                    self._write(reclaimed)
                    self._journal(EVENT_LEASE_EXPIRED, reclaimed,
                                  worker=lost_worker)
                    self._journal(STATE_FAILED, reclaimed)
                else:
                    reclaimed = replace(
                        current, state=STATE_QUEUED, worker=None,
                        started_unix=None, finished_unix=None,
                        attempts=current.attempts + 1)
                    self._write(reclaimed)
                    self._journal(EVENT_LEASE_EXPIRED, reclaimed,
                                  worker=lost_worker)
            self._notify(record.job_id)
            if reclaimed.state == STATE_QUEUED:
                self.queued.bump()
            # A worker-lost failure is a terminal transition no worker
            # produced: this (winning) store tells the subscribers.
            self._fire_on_terminal(reclaimed)
            return reclaimed
        finally:
            with contextlib.suppress(OSError):
                os.unlink(token)

    # -- lifecycle -----------------------------------------------------------

    def submit(self, record: JobRecord, *, reuse: bool = False) -> tuple[JobRecord, bool]:
        """Admit one job; returns ``(record, deduped)``.

        An identical job already queued or running dedupes to the
        existing record.  A terminal identical job is returned as-is when
        ``reuse`` is set; otherwise it is re-enqueued (the rerun is
        served from the shared sweep cache) with ``attempts`` bumped.
        A deduped submission keeps the existing record's webhook (first
        webhook wins); a re-enqueue adopts the resubmission's.
        """
        with self._lock:
            existing = self._current_locked(record.job_id)
            if existing is not None and not existing.terminal:
                return existing, True
            if existing is not None and reuse:
                return existing, True
            if existing is not None:
                record = replace(
                    record, attempts=existing.attempts + 1,
                    submitted_unix=record.submitted_unix or time.time())
                self._release_claim(record.job_id)
            if not record.submitted_unix:
                record = replace(record, submitted_unix=time.time())
            self._write(record)
            self._journal("submit", record)
        self.queued.bump()
        return record, False

    def claim_next(self, worker: str) -> JobRecord | None:
        """Atomically claim the oldest queued job for ``worker``.

        The ``O_EXCL`` lease file is the cross-process arbiter; losing
        the race simply moves on to the next queued job.  A *stale* claim
        on a queued job (left by a reclaim/heartbeat race) is removed
        once its own lease expires, so no job is stuck forever behind an
        orphaned file.
        """
        self.refresh()
        now = time.time()
        for record in self.jobs():
            if record.state != STATE_QUEUED:
                continue
            claimed = self._take_claim(record.job_id, worker)
            if not claimed and self._lease_expired(record.job_id, now):
                if self._remove_claim_atomically(record.job_id):
                    claimed = self._take_claim(record.job_id, worker)
            if not claimed:
                continue
            with self._lock:
                current = self._index.get(record.job_id, record)
                if current.state != STATE_QUEUED:
                    # Cancelled (or otherwise moved on) between the scan
                    # and our claim: give the claim back and keep looking.
                    self._release_claim(record.job_id)
                    continue
                running = replace(current, state=STATE_RUNNING,
                                  started_unix=time.time(), worker=worker)
                self._write(running)
                self._journal("claim", running)
            return running
        return None

    def _release_claim(self, job_id: str, owner: str | None = None) -> None:
        """Drop the claim file; with ``owner``, only if we still hold it."""
        if owner is not None:
            lease = self.read_lease(job_id)
            if lease is not None and (lease.get("worker") != owner
                                      or lease.get("pid") != os.getpid()):
                return  # reclaimed and re-leased to someone else
        with contextlib.suppress(OSError):
            os.unlink(self._claim_path(job_id))

    def _epoch_for(self, job_id: str) -> Epoch:
        with self._lock:
            epoch = self._epochs.get(job_id)
            if epoch is None:
                epoch = self._epochs[job_id] = Epoch()
            return epoch

    def _notify(self, job_id: str) -> None:
        self._epoch_for(job_id).bump()

    def _fire_on_terminal(self, record: JobRecord) -> None:
        """Invoke the ``on_terminal`` hook for a record this store wrote."""
        callback = self.on_terminal
        if callback is not None and record.terminal:
            with contextlib.suppress(Exception):
                callback(record)

    def wait_for_terminal(self, job_id: str, timeout: float,
                          poll_interval: float = 0.25) -> JobRecord | None:
        """Block until the job reaches a terminal state (or ``timeout``).

        In-process transitions bump the per-job epoch and wake the waiter
        immediately — the epoch is read before the record, so a finish
        landing between the check and the wait is not missed.
        Transitions written by *other* processes (a worker fleet on the
        shared root) are observed by the bounded ``refresh`` poll, which
        also reclaims expired leases while waiting — a crashed worker
        cannot park a waiter for longer than lease expiry + one tick.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        epoch = self._epoch_for(job_id)
        while True:
            seen = epoch.value
            self.refresh()
            record = self.get(job_id)
            if record is None or record.terminal:
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return record
            epoch.wait_past(seen, min(poll_interval, remaining))

    def _finish(self, record: JobRecord, state: str, **updates: Any) -> JobRecord:
        with self._lock:
            current = self._read(self._record_path(record.job_id))
            if current is not None and (current.terminal
                                        or current.attempts != record.attempts):
                # The lease expired mid-run and the job was requeued
                # (attempts moved on) or already terminally failed as
                # worker-lost (attempts unchanged but the record is
                # final): this finisher is stale.  Leave the newer
                # record — and its claim — alone; terminal records never
                # mutate in place.
                self._journal("stale_finish", current, worker=record.worker)
                return current
            finished = replace(record, state=state,
                               finished_unix=time.time(), **updates)
            self._write(finished)
            self._journal(state, finished)
        self._release_claim(record.job_id, owner=record.worker)
        self._notify(record.job_id)
        self._fire_on_terminal(finished)
        return finished

    def mark_done(self, record: JobRecord, result: dict[str, Any],
                  cache: dict[str, Any] | None = None) -> JobRecord:
        return self._finish(record, STATE_DONE, result=result, cache=cache,
                            error=None)

    def mark_failed(self, record: JobRecord, error: dict[str, Any]) -> JobRecord:
        return self._finish(record, STATE_FAILED, error=error, result=None)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running/terminal jobs refuse with a code)."""
        record = self.get(job_id)
        if record is None:
            raise ProtocolError(CODE_UNKNOWN_JOB, f"no job {job_id!r}")
        if record.state != STATE_QUEUED:
            raise ProtocolError(
                CODE_JOB_STATE,
                f"job {job_id} is {record.state}; only queued jobs cancel")
        # Claim it so no worker picks it up mid-cancel, then finish it.
        if not self._take_claim(job_id, worker="__cancel__"):
            raise ProtocolError(
                CODE_JOB_STATE, f"job {job_id} was claimed by a worker")
        return self._finish(record, STATE_CANCELLED)


@dataclass
class TraceRegistry:
    """Named trace bundles the service accepts jobs against.

    Server-registered bundles (``repro-lumos serve --trace NAME=DIR``)
    load lazily and memoize together with their content hash — the hash
    walk is the expensive part worth paying once per bundle, not per
    job.  Admission reads the hash from here; a worker keys the sweep
    cache with its study's own memoized digest
    (:attr:`~repro.api.Study.trace_digest`, the same bytes), so a bundle
    is hashed once per registration plus once per worker study, and a
    warm resubmission hashes nothing.  Inline uploads are spooled to
    disk under the service root and registered under their own content
    hash, so workers (and restarted servers) reach them like any named
    bundle: an unknown ``upload-*`` name falls back to the spool
    directory, which is how a separate ``repro-lumos work`` fleet on the
    shared root resolves bundles a server spooled after the fleet
    started.
    """

    spool_dir: Path | None = None
    _paths: dict[str, Path] = field(default_factory=dict)
    _loaded: dict[str, tuple[TraceBundle, str]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def register(self, name: str, path: str | Path) -> None:
        """Register a saved bundle directory under ``name``."""
        with self._lock:
            self._paths[str(name)] = Path(path)
            self._loaded.pop(str(name), None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._paths)

    def resolve(self, name: str) -> tuple[TraceBundle, str]:
        """The (bundle, content hash) registered under ``name``."""
        with self._lock:
            cached = self._loaded.get(name)
            if cached is not None:
                return cached
            path = self._paths.get(name)
        if path is None and self.spool_dir is not None:
            spooled = self.spool_dir / name
            if spooled.is_dir():
                self.register(name, spooled)
                path = spooled
        if path is None:
            raise ProtocolError(
                CODE_UNKNOWN_TRACE,
                f"no trace {name!r} is registered with this server "
                f"(known: {', '.join(self.names()) or 'none'})")
        try:
            bundle = TraceBundle.load(path)
        except (OSError, ValueError, KeyError) as error:
            raise ProtocolError(
                CODE_UNKNOWN_TRACE,
                f"trace {name!r} failed to load from {path}: {error}") from error
        bundle_hash = hash_trace_bundle(bundle)
        with self._lock:
            self._loaded[name] = (bundle, bundle_hash)
        return bundle, bundle_hash

    def store_inline(self, payload: Mapping[str, Any]) -> str:
        """Spool one uploaded bundle; returns its registered name."""
        bundle = bundle_from_json(payload)
        bundle_hash = hash_trace_bundle(bundle)
        name = f"upload-{bundle_hash[:16]}"
        with self._lock:
            known = name in self._paths
        if not known:
            if self.spool_dir is None:
                raise ProtocolError(
                    CODE_BAD_REQUEST,
                    "this server accepts only registered trace names, "
                    "not inline bundle uploads")
            target = self.spool_dir / name
            if not target.is_dir():
                bundle.save(target)
            with self._lock:
                self._paths[name] = target
                self._loaded[name] = (bundle, bundle_hash)
        return name
