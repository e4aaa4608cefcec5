"""Per-request serving metrics for continuous-batching episodes.

A continuous-batching serving graph carries its :class:`StreamPlan` in
graph metadata (key ``"serving_stream"``); any simulation of that graph
— the base replay, a what-if duration swap, a serving re-timing — yields
per-request timings by reading the simulated end of each phase's
``sample_token`` kernel:

* a request's **first token** is sampled at the end of its prefill
  chunk's head (TTFT = that end minus the request's arrival);
* its **completion** is the sampled token of its last decode step.

:func:`sample_tokens` finds those kernels once per dense task order, so
scoring a row (:func:`metrics_from_task_times`) reads only its arrays.

Arrival offsets are anchored at the simulation's earliest task start, so
host-side setup (request batching, tokenisation) counts toward the first
batch's TTFT — deliberately: that latency is real.

From the per-request (arrival, first token, completion) triples,
:class:`ServingMetrics` derives the serving numbers engineers rank
deployments by: TTFT and end-to-end latency p50/p99, generation
throughput (tokens/s), and SLO attainment / goodput at a configurable
latency deadline.  Quantiles use deterministic linear interpolation so
golden snapshots are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.tasks import Task
from repro.observability import tracing as observability
from repro.workload.arrivals import STREAM_METADATA_KEY, StreamPlan

__all__ = [
    "DEFAULT_SLO_MS",
    "RequestMetrics",
    "ServingMetrics",
    "metrics_from_task_times",
    "sample_tokens",
    "stream_plan_of",
]

#: Default per-request end-to-end latency deadline for SLO attainment.
DEFAULT_SLO_MS = 500.0

_US_PER_MS = 1000.0
_US_PER_S = 1_000_000.0


@dataclass(frozen=True)
class RequestMetrics:
    """One request's simulated lifecycle (absolute simulation timestamps)."""

    request: int
    arrival_us: float
    first_token_us: float
    completion_us: float
    #: Tokens this request generated (its prefill token + one per decode step).
    tokens: int

    @property
    def ttft_us(self) -> float:
        """Time to first token: arrival until the prefill samples a token."""
        return self.first_token_us - self.arrival_us

    @property
    def ttft_ms(self) -> float:
        return self.ttft_us / _US_PER_MS

    @property
    def latency_us(self) -> float:
        """End-to-end request latency: arrival until the last token."""
        return self.completion_us - self.arrival_us

    @property
    def latency_ms(self) -> float:
        return self.latency_us / _US_PER_MS


def _percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (deterministic, numpy-free)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    position = (pct / 100.0) * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate serving quality of one simulated episode."""

    requests: tuple[RequestMetrics, ...]
    deadline_ms: float = DEFAULT_SLO_MS

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("serving metrics need at least one request")
        if not 0 < self.deadline_ms < math.inf:  # NaN fails too
            raise ValueError("deadline_ms must be a positive finite number")

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def tokens_generated(self) -> int:
        return sum(r.tokens for r in self.requests)

    @property
    def episode_us(self) -> float:
        """First arrival until last completion."""
        return (max(r.completion_us for r in self.requests)
                - min(r.arrival_us for r in self.requests))

    @property
    def tokens_per_s(self) -> float:
        return self.tokens_generated / (self.episode_us / _US_PER_S)

    @property
    def request_throughput_rps(self) -> float:
        return self.num_requests / (self.episode_us / _US_PER_S)

    @property
    def ttft_p50_ms(self) -> float:
        return _percentile([r.ttft_ms for r in self.requests], 50.0)

    @property
    def ttft_p99_ms(self) -> float:
        return _percentile([r.ttft_ms for r in self.requests], 99.0)

    @property
    def latency_p50_ms(self) -> float:
        return _percentile([r.latency_ms for r in self.requests], 50.0)

    @property
    def latency_p99_ms(self) -> float:
        return _percentile([r.latency_ms for r in self.requests], 99.0)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests whose end-to-end latency met the deadline."""
        met = sum(1 for r in self.requests if r.latency_ms <= self.deadline_ms)
        return met / self.num_requests

    @property
    def goodput_rps(self) -> float:
        """Deadline-meeting requests per second (the SLO-weighted throughput)."""
        return self.request_throughput_rps * self.slo_attainment

    def to_json(self) -> dict[str, Any]:
        """The summary payload sweeps cache and CLI reports print."""
        return {
            "num_requests": self.num_requests,
            "tokens_generated": self.tokens_generated,
            "deadline_ms": self.deadline_ms,
            "episode_us": self.episode_us,
            "ttft_p50_ms": self.ttft_p50_ms,
            "ttft_p99_ms": self.ttft_p99_ms,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "tokens_per_s": self.tokens_per_s,
            "request_throughput_rps": self.request_throughput_rps,
            "slo_attainment": self.slo_attainment,
            "goodput_rps": self.goodput_rps,
        }


def stream_plan_of(metadata: Mapping[str, Any]) -> StreamPlan | None:
    """Decode the continuous-batching plan from trace/graph metadata."""
    payload = metadata.get(STREAM_METADATA_KEY)
    if payload is None:
        return None
    return StreamPlan.from_json(payload)


#: Dense indices of the ``sample_token`` kernels among some tasks, and
#: the ``(phase, microbatch)`` each one samples for.
SampleTokens = tuple[np.ndarray, tuple[tuple[str, int], ...]]


def sample_tokens(tasks: Sequence[Task]) -> SampleTokens:
    """Find the prefill and decode ``sample_token`` kernels among ``tasks``."""
    indices: list[int] = []
    keys: list[tuple[str, int]] = []
    for index, task in enumerate(tasks):
        args = task.args
        phase = args.get("phase")
        if args.get("op_name") == "sample_token" and phase in ("prefill", "decode"):
            indices.append(index)
            keys.append((phase, int(args.get("microbatch", 0))))
    return np.array(indices, dtype=np.int64), tuple(keys)


def metrics_from_task_times(samples: SampleTokens, starts: np.ndarray,
                            durations: np.ndarray, plan: StreamPlan, *,
                            deadline_ms: float | None = None) -> ServingMetrics:
    """Score one row of dense-ordered task times against a stream plan.

    ``samples`` is :func:`sample_tokens` of the tasks the row times
    (``CompiledGraph.tasks``), and ``starts``/``durations`` one row of a
    (batched) session run, in the same dense order.  A key's sample ends
    when its last ``sample_token`` kernel (one per rank) does.
    """
    starts = np.asarray(starts, dtype=np.float64)
    if not len(starts):
        raise ValueError("serving metrics need a non-empty simulation")
    anchor = float(starts.min())
    indices, keys = samples
    ends = starts[indices] + np.asarray(durations, dtype=np.float64)[indices]
    sample_ends: dict[tuple[str, int], float] = {}
    for key, end in zip(keys, ends.tolist()):
        known = sample_ends.get(key)
        if known is None or end > known:
            sample_ends[key] = end

    requests = []
    for schedule in plan.requests:
        try:
            first = sample_ends[("prefill", schedule.prefill_chunk)]
            completion = sample_ends[("decode", schedule.last_step)]
        except KeyError as missing:
            raise ValueError(
                f"simulation has no sample_token task for {missing.args[0]!r}; "
                "the graph does not match the stream plan") from None
        requests.append(RequestMetrics(
            request=schedule.request,
            arrival_us=anchor + schedule.arrival_us,
            first_token_us=first,
            completion_us=completion,
            tokens=schedule.num_decode_steps + 1,
        ))
    metrics = ServingMetrics(
        requests=tuple(requests),
        deadline_ms=DEFAULT_SLO_MS if deadline_ms is None else float(deadline_ms))
    if observability.tracing_enabled():
        for request in metrics.requests:
            observability.observe("serving.ttft_ms", request.ttft_ms)
            observability.observe("serving.latency_ms", request.latency_ms)
        observability.gauge("serving.slo_attainment", metrics.slo_attainment)
        observability.gauge("serving.goodput_rps", metrics.goodput_rps)
    return metrics
