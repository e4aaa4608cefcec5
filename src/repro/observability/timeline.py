"""Chrome-trace / Perfetto export of simulated timelines and pipeline spans.

A predicted schedule is a *timeline*, not a scalar — the whole point of
replaying an execution graph is that every task has a start and an end on
a concrete rank and stream.  This module renders those timelines as
chrome-trace JSON (the ``chrome://tracing`` / Perfetto "JSON trace
format"), laying tasks out one process per rank and one track per CPU
thread / CUDA stream, so a predicted schedule can be loaded next to the
profiled Kineto trace and visually diffed.

Two export families share the format:

* :func:`timeline_json` — one or more labelled *sections* (the profiled
  bundle, the replayed bundle, a predicted target ...), each section's
  ranks offset into their own process-id block with ``process_name``
  metadata like ``"profiled · rank 0"``;
* :func:`pipeline_profile_json` — the tool's own
  :class:`~repro.observability.tracing.PipelineProfile` spans as one
  flame-graph track, so "where did the sweep's time go" opens in the
  same viewer as the schedules it produced.

Sections accept anything timeline-shaped: a
:class:`~repro.trace.kineto.TraceBundle`, a single
:class:`~repro.trace.kineto.KinetoTrace`, a
:class:`~repro.core.engine.SessionRun` (which renders its own bundle), a
replay/prediction result — see :func:`coerce_bundle`.

:func:`validate_chrome_trace` schema-checks a payload (every event a
complete ``"X"`` event or a ``"M"`` metadata record with the fields the
viewers require); the test suite and the CI smoke both run exports
through it before calling them loadable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.observability.tracing import PipelineProfile
from repro.trace.events import TraceEvent
from repro.trace.kineto import KinetoTrace, TraceBundle

#: Each section's ranks live in their own pid block: section ``i`` maps
#: rank ``r`` to pid ``i * _PID_STRIDE + r``.
_PID_STRIDE = 10_000
#: GPU tracks are offset past CPU thread ids so a stream id never merges
#: with a thread id sharing the same number.
_GPU_TID_BASE = 1_000


def coerce_bundle(source: Any) -> TraceBundle:
    """Coerce anything timeline-shaped into a :class:`TraceBundle`.

    Accepts a bundle, one per-rank trace, a ``SessionRun`` (or any object
    with ``to_trace_bundle``), a ``ReplayResult`` (``replayed_trace``) or
    a ``Prediction`` (``result``; both render their bundle on first
    read, then keep it).  Raises ``TypeError`` otherwise.
    """
    if isinstance(source, TraceBundle):
        return source
    if isinstance(source, KinetoTrace):
        bundle = TraceBundle()
        bundle.add(source)
        return bundle
    if hasattr(source, "to_trace_bundle"):
        return source.to_trace_bundle()
    if hasattr(source, "replayed_trace"):
        return coerce_bundle(source.replayed_trace)
    if hasattr(source, "result"):
        return coerce_bundle(source.result)
    raise TypeError(f"cannot render a timeline from {type(source).__name__}")


def _metadata_event(name: str, pid: int, tid: int, value: Any) -> dict[str, Any]:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": {"name": value}
            if name in ("process_name", "thread_name") else {"sort_index": value}}


def _track_identity(event: TraceEvent) -> tuple[int, str, int]:
    """(tid, track name, sort index) for one event's row in the viewer."""
    if event.is_gpu():
        stream = int(event.stream if event.stream is not None else event.tid)
        return (_GPU_TID_BASE + stream, f"cuda stream {stream}", _GPU_TID_BASE + stream)
    return (int(event.tid), f"cpu thread {event.tid}", int(event.tid))


def bundle_events(bundle: TraceBundle, *, label: str,
                  pid_base: int = 0) -> list[dict[str, Any]]:
    """Chrome-trace events of one bundle: ranks as processes, streams as tracks."""
    events: list[dict[str, Any]] = []
    for trace in bundle:
        if not 0 <= trace.rank < _PID_STRIDE:
            raise ValueError(f"rank {trace.rank} does not fit the timeline's "
                             f"per-section pid block of {_PID_STRIDE}")
        pid = pid_base + trace.rank
        events.append(_metadata_event("process_name", pid, 0, f"{label} · rank {trace.rank}"))
        events.append(_metadata_event("process_sort_index", pid, 0, pid))
        tracks: dict[int, tuple[str, int]] = {}
        for event in trace.events:
            tid, track_name, sort_index = _track_identity(event)
            tracks.setdefault(tid, (track_name, sort_index))
            payload = event.to_json()
            payload["pid"] = pid
            payload["tid"] = tid
            events.append(payload)
        for tid in sorted(tracks):
            track_name, sort_index = tracks[tid]
            events.append(_metadata_event("thread_name", pid, tid, track_name))
            events.append(_metadata_event("thread_sort_index", pid, tid, sort_index))
    return events


def serving_request_events(metrics: Any, *, label: str,
                           pid_base: int = 0) -> list[dict[str, Any]]:
    """Per-request lifecycle tracks of one serving episode.

    ``metrics`` is a :class:`repro.core.serving_metrics.ServingMetrics`
    (duck-typed through its ``requests`` tuple — the import would point
    against the dependency order).  Each request gets its own track with
    two complete events: ``queue+prefill`` (arrival until the first
    sampled token — the TTFT span) and ``decode`` (first token until the
    last), so a continuous-batching schedule reads as a per-request Gantt
    chart next to the rank/stream timelines.
    """
    pid = pid_base
    events = [_metadata_event("process_name", pid, 0, f"{label} · requests"),
              _metadata_event("process_sort_index", pid, 0, pid)]
    for request in metrics.requests:
        tid = int(request.request)
        events.append(_metadata_event("thread_name", pid, tid, f"request {tid}"))
        events.append(_metadata_event("thread_sort_index", pid, tid, tid))
        events.append({
            "name": "queue+prefill", "cat": "serving-request", "ph": "X",
            "ts": float(request.arrival_us), "dur": float(request.ttft_us),
            "pid": pid, "tid": tid,
            "args": {"request": tid, "ttft_ms": request.ttft_ms},
        })
        events.append({
            "name": "decode", "cat": "serving-request", "ph": "X",
            "ts": float(request.first_token_us),
            "dur": float(request.completion_us - request.first_token_us),
            "pid": pid, "tid": tid,
            "args": {"request": tid, "latency_ms": request.latency_ms,
                     "tokens": request.tokens},
        })
    return events


def timeline_json(sections: Sequence[tuple[str, Any]],
                  metadata: dict[str, Any] | None = None, *,
                  serving: Sequence[tuple[str, Any]] = ()) -> dict[str, Any]:
    """Render labelled timeline sections as one chrome-trace JSON object.

    ``sections`` is ``[(label, source), ...]`` — typically the profiled
    trace first, then the replayed or predicted timelines to diff against
    it.  Every section's ranks get their own process-id block and
    ``"<label> · rank <r>"`` process names, so Perfetto shows the
    schedules stacked and aligned on one time axis.

    ``serving`` is ``[(label, ServingMetrics), ...]``: each entry adds a
    per-request track block (:func:`serving_request_events`) after the
    schedule sections; the labels are recorded under
    ``otherData["request_tracks"]``.
    """
    if not sections:
        raise ValueError("timeline export needs at least one (label, source) section")
    events: list[dict[str, Any]] = []
    rendered: list[str] = []
    for index, (label, source) in enumerate(sections):
        bundle = coerce_bundle(source)
        events.extend(bundle_events(bundle, label=str(label),
                                    pid_base=index * _PID_STRIDE))
        rendered.append(str(label))
    request_tracks: list[str] = []
    for offset, (label, metrics) in enumerate(serving):
        events.extend(serving_request_events(
            metrics, label=str(label),
            pid_base=(len(sections) + offset) * _PID_STRIDE))
        request_tracks.append(str(label))
    other: dict[str, Any] = {"tool": "repro-lumos", "sections": rendered}
    if request_tracks:
        other["request_tracks"] = request_tracks
    other.update(metadata or {})
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def export_timeline(sections: Sequence[tuple[str, Any]], path: str | Path,
                    metadata: dict[str, Any] | None = None, *,
                    serving: Sequence[tuple[str, Any]] = ()) -> dict[str, Any]:
    """Write :func:`timeline_json` output to ``path`` and return the payload."""
    payload = timeline_json(sections, metadata=metadata, serving=serving)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return payload


def pipeline_profile_json(profile: PipelineProfile) -> dict[str, Any]:
    """Render a pipeline profile's spans as a chrome-trace flame graph.

    Spans land on one shared track (tid 0), with nesting reconstructed by
    the viewer from the span intervals; attributes ride along in
    ``args``.  Spans carrying a ``stage`` attribute (the service-span
    convention — ``admit`` / ``queue_wait`` / ``run``) are routed onto
    their own named ``stage: <name>`` track instead, so the queue-wait
    vs. run split of service jobs reads as parallel swimlanes without the
    exporter special-casing span names.
    """
    events: list[dict[str, Any]] = [
        _metadata_event("process_name", 0, 0,
                        f"repro pipeline ({profile.label or 'run'})"),
        _metadata_event("thread_name", 0, 0, "pipeline spans"),
    ]
    stage_tids: dict[str, int] = {}
    for span in sorted(profile.spans, key=lambda s: (s.start_us, s.span_id)):
        stage = span.attrs.get("stage")
        if stage is None:
            tid = 0
        else:
            stage = str(stage)
            tid = stage_tids.get(stage, 0)
            if tid == 0:
                tid = len(stage_tids) + 1
                stage_tids[stage] = tid
                events.append(_metadata_event("thread_name", 0, tid, f"stage: {stage}"))
                events.append(_metadata_event("thread_sort_index", 0, tid, tid))
        events.append({
            "name": span.name, "cat": "pipeline", "ph": "X",
            "ts": span.start_us, "dur": span.duration_us, "pid": 0, "tid": tid,
            "args": {"depth": span.depth, **span.attrs},
        })
    other: dict[str, Any] = {"tool": "repro-lumos", "label": profile.label}
    if stage_tids:
        other["stages"] = sorted(stage_tids)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def validate_chrome_trace(payload: Any) -> list[dict[str, Any]]:
    """Schema-check a chrome-trace JSON payload; returns its event list.

    Accepts the two shapes the viewers load — a top-level object with a
    ``traceEvents`` array, or a bare array — and checks every event is
    either a complete ``"X"`` event with numeric ``ts``/``dur`` and
    integer ``pid``/``tid``, or a ``"M"`` metadata record with an ``args``
    object.  Raises ``ValueError`` on the first violation.
    """
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
    else:
        events = payload
    if not isinstance(events, list):
        raise ValueError("chrome trace must be a list or carry a traceEvents list")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where} has no event name")
        phase = event.get("ph")
        if phase == "M":
            if not isinstance(event.get("args"), dict):
                raise ValueError(f"{where}: metadata event without args")
        elif phase == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(f"{where}: complete event without numeric {key}")
        else:
            raise ValueError(f"{where}: unsupported phase {phase!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: missing integer {key}")
    return events


def iter_section_labels(payload: dict[str, Any]) -> Iterable[str]:
    """The section labels recorded by :func:`timeline_json`."""
    return tuple(payload.get("otherData", {}).get("sections", ()))
