"""Request-arrival models and continuous-batching stream plans.

Real serving is a stream of requests, not one fixed batch.  This module
provides the two datatypes that make that stream a first-class, fully
deterministic input to the emulator:

* :class:`ArrivalConfig` — a seeded request-arrival process.  Three kinds
  are supported: ``poisson`` (exponential inter-arrival gaps at a mean
  rate), ``bursty`` (Gamma-distributed gaps with a configurable
  coefficient of variation, so the same mean rate arrives in clumps) and
  ``trace`` (explicit arrival offsets in milliseconds, for replaying a
  recorded request log).  Sampling uses :class:`random.Random` seeded
  from the config, so the same config always yields the same schedule —
  a requirement for golden snapshots and the content-addressed sweep
  cache.
* :class:`StreamPlan` — the deterministic output of the continuous-
  batching scheduler (see ``repro.emulator.inference_builder``): which
  requests were admitted in which prefill chunk, which requests
  participate in each decode step, and the exact emission order of
  prefill/decode/idle-wait program items.  A fixed-batch episode follows
  the same kind of plan, :meth:`StreamPlan.one_chunk`.  A stream's plan
  is JSON round-trippable and travels in trace metadata under the
  ``"serving_stream"`` key so that replayed graphs can be scored with
  per-request serving metrics and re-timed by the serving manipulation.

Arrival times are offsets in microseconds from the episode start; the
first arrival is always at offset 0 (the episode starts when the first
request shows up).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "ARRIVAL_BURSTY",
    "ARRIVAL_KINDS",
    "ARRIVAL_POISSON",
    "ARRIVAL_TRACE",
    "ArrivalConfig",
    "RequestSchedule",
    "STREAM_METADATA_KEY",
    "StreamPlan",
    "parse_arrival",
]

ARRIVAL_POISSON = "poisson"
ARRIVAL_BURSTY = "bursty"
ARRIVAL_TRACE = "trace"
ARRIVAL_KINDS = (ARRIVAL_POISSON, ARRIVAL_BURSTY, ARRIVAL_TRACE)

#: Trace-bundle / execution-graph metadata key carrying a serialized
#: :class:`StreamPlan` for continuous-batching serving episodes.
STREAM_METADATA_KEY = "serving_stream"

_US_PER_S = 1_000_000.0
_US_PER_MS = 1_000.0


def _fmt(value: float) -> str:
    return f"{value:g}"


@dataclass(frozen=True)
class ArrivalConfig:
    """A seeded, deterministic request-arrival process.

    ``rate_per_s`` and ``cv`` apply to the synthetic kinds; ``times_ms``
    is the explicit schedule for ``trace`` arrivals (offsets in
    milliseconds, normalised so the first arrival is at 0).
    """

    kind: str = ARRIVAL_POISSON
    num_requests: int = 8
    rate_per_s: float = 100.0
    cv: float = 2.0
    seed: int = 0
    times_ms: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.kind!r}; "
                             f"expected one of {', '.join(ARRIVAL_KINDS)}")
        object.__setattr__(self, "times_ms", tuple(float(t) for t in self.times_ms))
        if self.kind == ARRIVAL_TRACE:
            if not self.times_ms:
                raise ValueError("trace arrivals need at least one time in times_ms")
            if any(t < 0 for t in self.times_ms):
                raise ValueError("trace arrival offsets must be non-negative")
            object.__setattr__(self, "num_requests", len(self.times_ms))
        else:
            if self.times_ms:
                raise ValueError(f"times_ms is only valid for kind={ARRIVAL_TRACE!r}")
            if self.num_requests < 1:
                raise ValueError("num_requests must be >= 1")
            if self.rate_per_s <= 0:
                raise ValueError("rate_per_s must be > 0")
            if self.kind == ARRIVAL_BURSTY and self.cv <= 0:
                raise ValueError("cv (coefficient of variation) must be > 0")

    def arrival_times_us(self) -> tuple[float, ...]:
        """Arrival offsets in microseconds, non-decreasing, first at 0.

        Synthetic kinds draw inter-arrival gaps from a
        :class:`random.Random` seeded with ``seed``; the same config
        always produces the identical schedule.
        """
        if self.kind == ARRIVAL_TRACE:
            ordered = sorted(self.times_ms)
            base = ordered[0]
            return tuple((t - base) * _US_PER_MS for t in ordered)
        rng = random.Random(self.seed)
        if self.kind == ARRIVAL_POISSON:
            def gap_s() -> float:
                return rng.expovariate(self.rate_per_s)
        else:  # bursty: Gamma gaps with mean 1/rate and CV == cv
            shape = 1.0 / (self.cv * self.cv)
            scale = (self.cv * self.cv) / self.rate_per_s
            def gap_s() -> float:
                return rng.gammavariate(shape, scale)
        times = [0.0]
        for _ in range(self.num_requests - 1):
            times.append(times[-1] + gap_s() * _US_PER_S)
        return tuple(times)

    def label(self) -> str:
        """Compact parseable spelling, e.g. ``poisson:rate=100,n=8,seed=0``."""
        if self.kind == ARRIVAL_TRACE:
            return "trace:" + ",".join(_fmt(t) for t in self.times_ms)
        parts = [f"rate={_fmt(self.rate_per_s)}"]
        if self.kind == ARRIVAL_BURSTY:
            parts.append(f"cv={_fmt(self.cv)}")
        parts.append(f"n={self.num_requests}")
        parts.append(f"seed={self.seed}")
        return f"{self.kind}:" + ",".join(parts)

    def to_json(self) -> dict[str, Any]:
        if self.kind == ARRIVAL_TRACE:
            return {"kind": self.kind, "times_ms": list(self.times_ms)}
        payload = {"kind": self.kind, "num_requests": self.num_requests,
                   "rate_per_s": self.rate_per_s, "seed": self.seed}
        if self.kind == ARRIVAL_BURSTY:
            payload["cv"] = self.cv
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ArrivalConfig":
        kind = payload.get("kind", ARRIVAL_POISSON)
        if kind == ARRIVAL_TRACE:
            return cls(kind=kind, times_ms=tuple(payload.get("times_ms", ())))
        return cls(kind=kind,
                   num_requests=int(payload.get("num_requests", 8)),
                   rate_per_s=float(payload.get("rate_per_s", 100.0)),
                   cv=float(payload.get("cv", 2.0)),
                   seed=int(payload.get("seed", 0)))


def parse_arrival(text: str) -> ArrivalConfig:
    """Parse a compact arrival label.

    Forms::

        poisson:rate=100[,n=16][,seed=3]
        bursty:rate=100,cv=4[,n=16][,seed=3]
        trace:0,2.5,7.25        (arrival offsets in milliseconds)

    A bare kind (``poisson``) uses the defaults for that kind.
    """
    text = str(text).strip()
    if not text:
        raise ValueError("empty arrival spec")
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival kind {kind!r}; "
                         f"expected one of {', '.join(ARRIVAL_KINDS)}")
    rest = rest.strip()
    if kind == ARRIVAL_TRACE:
        if not rest:
            raise ValueError("trace arrivals need comma-separated offsets in ms, "
                             "e.g. trace:0,2.5,7")
        try:
            times = tuple(float(part) for part in rest.split(","))
        except ValueError as error:
            raise ValueError(f"bad trace arrival offsets {rest!r}: {error}") from None
        return ArrivalConfig(kind=kind, times_ms=times)
    fields: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip().lower()
            if not sep or not value.strip():
                raise ValueError(f"bad arrival field {part!r}; expected key=value")
            if key not in ("rate", "cv", "n", "seed"):
                raise ValueError(f"unknown arrival field {key!r}; "
                                 "expected rate=, cv=, n= or seed=")
            if key in fields:
                raise ValueError(f"duplicate arrival field {key!r}")
            fields[key] = value.strip()
    if "cv" in fields and kind != ARRIVAL_BURSTY:
        raise ValueError("cv= is only valid for bursty arrivals")
    try:
        return ArrivalConfig(
            kind=kind,
            num_requests=int(fields.get("n", ArrivalConfig.num_requests)),
            rate_per_s=float(fields.get("rate", ArrivalConfig.rate_per_s)),
            cv=float(fields.get("cv", ArrivalConfig.cv)),
            seed=int(fields.get("seed", ArrivalConfig.seed)))
    except ValueError:
        raise
    except Exception as error:  # pragma: no cover - defensive
        raise ValueError(f"bad arrival spec {text!r}: {error}") from None


@dataclass(frozen=True)
class RequestSchedule:
    """One request's place in a continuous-batching plan.

    ``arrival_us`` is the arrival offset from episode start;
    ``prefill_chunk`` indexes :attr:`StreamPlan.chunk_requests`;
    ``first_step``/``last_step`` are the inclusive range of global decode
    steps the request participates in.
    """

    request: int
    arrival_us: float
    prefill_chunk: int
    first_step: int
    last_step: int

    @property
    def num_decode_steps(self) -> int:
        return self.last_step - self.first_step + 1


@dataclass(frozen=True)
class StreamPlan:
    """The deterministic schedule of a continuous-batching episode.

    ``items`` records the emission order of the serving program:
    ``("prefill", chunk)``, ``("decode", step)`` and ``("wait", i)``
    entries, where waits model host idle time until the next arrival
    (duration ``waits_us[i]``).  ``chunk_requests[c]`` /
    ``step_requests[s]`` list the request ids admitted in prefill chunk
    ``c`` / decoding at global step ``s``.
    """

    arrival: ArrivalConfig
    requests: tuple[RequestSchedule, ...]
    chunk_requests: tuple[tuple[int, ...], ...]
    step_requests: tuple[tuple[int, ...], ...]
    items: tuple[tuple[str, int], ...]
    waits_us: tuple[float, ...]
    max_queue_depth: int = 0

    @classmethod
    def one_chunk(cls, batch_size: int, decode_length: int) -> "StreamPlan":
        """The schedule of a fixed-batch episode.

        All ``batch_size`` requests arrive at offset 0, are admitted as one
        prefill chunk and decode together for ``decode_length`` steps:
        what the continuous-batching scheduler plans for a stream whose
        requests all arrive at once.
        """
        everyone = tuple(range(batch_size))
        return cls(
            arrival=ArrivalConfig(kind=ARRIVAL_TRACE, times_ms=(0.0,) * batch_size),
            requests=tuple(RequestSchedule(r, 0.0, 0, 0, decode_length - 1)
                           for r in everyone),
            chunk_requests=(everyone,),
            step_requests=(everyone,) * decode_length,
            items=(("prefill", 0),) + tuple(("decode", s) for s in range(decode_length)),
            waits_us=(),
            max_queue_depth=batch_size,
        )

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_requests)

    @property
    def num_steps(self) -> int:
        return len(self.step_requests)

    @property
    def max_step_batch(self) -> int:
        return max((len(reqs) for reqs in self.step_requests), default=0)

    def schedule_for(self, request: int) -> RequestSchedule:
        return self.requests[request]

    def step_contexts(self, prompt_length: int, step: int) -> tuple[int, ...]:
        """KV context length of every request decoding at ``step``.

        A request whose first decode step is ``f`` attends over
        ``prompt_length + (step - f)`` tokens at global step ``step``: the
        prompt plus the tokens it decoded before.  In the fixed episode
        (:meth:`one_chunk`) every request's ``f`` is 0.
        """
        return tuple(prompt_length + (step - self.requests[r].first_step)
                     for r in self.step_requests[step])

    def to_json(self) -> dict[str, Any]:
        return {
            "arrival": self.arrival.to_json(),
            "requests": [[r.request, r.arrival_us, r.prefill_chunk,
                          r.first_step, r.last_step] for r in self.requests],
            "chunks": [list(chunk) for chunk in self.chunk_requests],
            "steps": [list(step) for step in self.step_requests],
            "items": [[kind, index] for kind, index in self.items],
            "waits_us": list(self.waits_us),
            "max_queue_depth": self.max_queue_depth,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "StreamPlan":
        return cls(
            arrival=ArrivalConfig.from_json(payload["arrival"]),
            requests=tuple(RequestSchedule(int(row[0]), float(row[1]), int(row[2]),
                                           int(row[3]), int(row[4]))
                           for row in payload["requests"]),
            chunk_requests=tuple(tuple(int(r) for r in chunk)
                                 for chunk in payload["chunks"]),
            step_requests=tuple(tuple(int(r) for r in step)
                                for step in payload["steps"]),
            items=tuple((str(kind), int(index)) for kind, index in payload["items"]),
            waits_us=tuple(float(w) for w in payload["waits_us"]),
            max_queue_depth=int(payload.get("max_queue_depth", 0)),
        )
