"""Stdlib HTTP client for the sweep service.

:class:`ServiceClient` wraps ``urllib`` — no new dependencies — and is
what the test suite, ``examples/service_client.py`` and the
``repro-lumos submit`` subcommand all use.  Server refusals raise
:class:`ServiceError` carrying the HTTP status and the stable
machine-readable ``code`` from the typed error body, so callers branch
on ``error.code`` instead of parsing messages (the CLI maps any
``ServiceError`` to exit 2, mirroring how typed library errors exit).

Transport failures on idempotent GETs retry with capped exponential
backoff before giving up — one dropped connection no longer kills a
long ``wait()``.  POSTs never retry (a retried submit is harmless
thanks to content-addressed dedupe, but a retried cancel is not, and
the client cannot tell whether the first attempt landed).

:meth:`ServiceClient.wait` prefers the server's
``GET /v1/jobs/{id}?wait=`` long-poll — one parked request instead of a
0.1s polling hammer — and degrades automatically to backed-off polling
against servers that ignore the parameter.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.service.jobs import TERMINAL_STATES
from repro.service.protocol import PROTOCOL_VERSION

#: GET retry schedule: attempts and the backoff before each retry.
_GET_TRIES = 3
_BACKOFF_BASE = 0.1
_BACKOFF_CAP = 0.8

#: Longest single long-poll leg ``wait()`` asks the server for (the
#: server itself caps ``wait=`` at 60s).
_WAIT_CHUNK_SECONDS = 30.0


class ServiceError(Exception):
    """A request the service refused (or a transport failure)."""

    def __init__(self, message: str, *, code: str = "unavailable",
                 status: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.status = status


class ServiceClient:
    """A minimal blocking client for one service base URL."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Mapping[str, Any] | None = None, *,
                 timeout: float | None = None) -> dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        tries = _GET_TRIES if method == "GET" else 1
        for attempt in range(1, tries + 1):
            if attempt > 1:
                time.sleep(min(_BACKOFF_CAP,
                               _BACKOFF_BASE * (4 ** (attempt - 2))))
            request = urllib.request.Request(
                self.base_url + path, data=body, method=method,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(
                        request,
                        timeout=timeout if timeout is not None
                        else self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                # The server answered: a typed refusal, never retried.
                raw = error.read().decode("utf-8", errors="replace")
                try:
                    wire = json.loads(raw)["error"]
                    code, message = str(wire["code"]), str(wire["message"])
                except (ValueError, KeyError, TypeError):
                    code, message = "internal", raw or str(error)
                raise ServiceError(message, code=code,
                                   status=error.code) from error
            except urllib.error.URLError as error:
                if attempt >= tries:
                    raise ServiceError(
                        f"service at {self.base_url} is unreachable: "
                        f"{error.reason}") from error
        raise AssertionError("unreachable")  # the loop always returns/raises

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/v1/metricz")

    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Submit one raw job body (``version`` defaults in when absent)."""
        body = dict(payload)
        body.setdefault("version", PROTOCOL_VERSION)
        return self._request("POST", "/v1/jobs", body)

    def job(self, job_id: str, *, wait: float | None = None) -> dict[str, Any]:
        """Job status; ``wait=`` seconds long-polls for a terminal state."""
        path = f"/v1/jobs/{job_id}"
        timeout = None
        if wait is not None:
            path += f"?wait={wait:g}"
            # The request must outlive the server-side park.
            timeout = max(self.timeout, wait + 10.0)
        return self._request("GET", path, timeout=timeout)["job"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")["job"]

    # -- convenience ---------------------------------------------------------

    def wait(self, job_id: str, *, timeout: float = 120.0,
             poll_interval: float = 0.1) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns the job.

        Each round trip asks the server to long-poll (``?wait=``) for up
        to 30s; a server that answers a non-terminal state immediately is
        treated as not supporting the parameter, and the client falls
        back to polling with exponential backoff on ``poll_interval``
        (capped at 2s) instead of hammering a fixed interval.
        """
        deadline = time.monotonic() + timeout
        interval = max(0.01, poll_interval)
        while True:
            remaining = deadline - time.monotonic()
            leg = min(_WAIT_CHUNK_SECONDS, max(0.0, remaining))
            started = time.monotonic()
            job = self.job(job_id, wait=leg if leg > 0 else None)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['state']} after {timeout:g}s",
                    code="timeout")
            if time.monotonic() - started < 0.05:
                # The server answered instantly without parking: degrade
                # to client-side polling with backoff.
                time.sleep(min(interval, max(0.0,
                                             deadline - time.monotonic())))
                interval = min(2.0, interval * 2)
