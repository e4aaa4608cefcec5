"""Tests for chrome-trace / Perfetto export of simulated timelines.

The exports must be loadable by the viewers, so every payload produced
here goes through :func:`validate_chrome_trace` (the same schema check CI
smoke runs), and the layout contracts are asserted directly: one process
block per section, pid = block + rank, GPU tracks remapped past the CPU
thread ids, and ``process_name``/``thread_name`` metadata on every track.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Study
from repro.observability import (
    coerce_bundle,
    export_timeline,
    pipeline_profile_json,
    profile,
    timeline_json,
    trace_span,
    validate_chrome_trace,
)
from repro.observability.timeline import (
    _GPU_TID_BASE,
    _PID_STRIDE,
    iter_section_labels,
)
from repro.trace.events import Category
from repro.workload.inference import InferenceConfig
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model


@pytest.fixture(scope="module")
def training_study(profiled_bundle, small_model, small_parallel, small_training):
    return Study.from_trace(profiled_bundle, model=small_model,
                            parallelism=small_parallel, training=small_training)


@pytest.fixture(scope="module")
def serving_study():
    return Study.from_emulation(
        tiny_model(n_layers=2, d_model=256), "2x1x1",
        inference=InferenceConfig(batch_size=4, prompt_length=128,
                                  decode_length=2),
        iterations=1, seed=13)


def _events_by_phase(payload):
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    return complete, metadata


class TestTimelineJson:
    def test_training_sections_are_valid_chrome_trace(self, training_study):
        replay = training_study.replay()
        payload = timeline_json([("profiled", training_study.trace),
                                 ("replayed", replay)])
        validate_chrome_trace(payload)
        assert tuple(iter_section_labels(payload)) == ("profiled", "replayed")

    def test_serving_sections_are_valid_chrome_trace(self, serving_study):
        prediction = serving_study.predict("serving:batch=8")
        payload = timeline_json([("profiled", serving_study.trace),
                                 ("batch=8", prediction)])
        validate_chrome_trace(payload)
        complete, _ = _events_by_phase(payload)
        assert complete

    def test_sections_get_disjoint_pid_blocks(self, training_study):
        payload = timeline_json([("profiled", training_study.trace),
                                 ("replayed", training_study.replay())])
        complete, _ = _events_by_phase(payload)
        first = {e["pid"] for e in complete if e["pid"] < _PID_STRIDE}
        second = {e["pid"] for e in complete if e["pid"] >= _PID_STRIDE}
        ranks = {trace.rank for trace in training_study.trace}
        assert first == ranks
        assert second == {_PID_STRIDE + rank for rank in ranks}

    def test_gpu_tracks_are_remapped_past_cpu_threads(self, training_study):
        payload = timeline_json([("profiled", training_study.trace)])
        complete, _ = _events_by_phase(payload)
        gpu = [e for e in complete if e.get("cat") in Category.GPU_CATEGORIES]
        cpu = [e for e in complete if e.get("cat") not in Category.GPU_CATEGORIES]
        assert gpu and cpu
        assert all(e["tid"] >= _GPU_TID_BASE for e in gpu)
        assert all(e["tid"] < _GPU_TID_BASE for e in cpu)

    def test_every_rank_and_track_is_named(self, training_study):
        payload = timeline_json([("profiled", training_study.trace)])
        complete, metadata = _events_by_phase(payload)
        process_names = {e["pid"]: e["args"]["name"] for e in metadata
                         if e["name"] == "process_name"}
        thread_names = {(e["pid"], e["tid"]) for e in metadata
                        if e["name"] == "thread_name"}
        for event in complete:
            assert event["pid"] in process_names
            assert (event["pid"], event["tid"]) in thread_names
        assert process_names[0] == "profiled · rank 0"
        stream_names = {e["args"]["name"] for e in metadata
                        if e["name"] == "thread_name" and e["tid"] >= _GPU_TID_BASE}
        assert all(name.startswith("cuda stream") for name in stream_names)

    def test_empty_sections_are_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            timeline_json([])

    def test_unrenderable_source_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot render"):
            timeline_json([("bad", object())])


class TestCoercion:
    def test_coerces_every_timeline_shape(self, training_study):
        replay = training_study.replay()
        prediction = training_study.predict("2x1x2")
        for source in (training_study.trace,
                       next(iter(training_study.trace)),
                       replay,
                       replay.run,
                       prediction):
            bundle = coerce_bundle(source)
            assert sum(len(trace.events) for trace in bundle) > 0


class TestExportAndProfileRendering:
    def test_export_timeline_writes_loadable_json(self, training_study, tmp_path):
        path = tmp_path / "timeline.json"
        payload = export_timeline([("profiled", training_study.trace)], path,
                                  metadata={"note": "unit"})
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == payload
        validate_chrome_trace(loaded)
        assert loaded["otherData"]["note"] == "unit"

    def test_pipeline_profile_renders_spans(self):
        with profile(label="render") as prof:
            with trace_span("outer"):
                with trace_span("inner", detail=1):
                    pass
        payload = pipeline_profile_json(prof)
        validate_chrome_trace(payload)
        complete, metadata = _events_by_phase(payload)
        assert [e["name"] for e in complete] == ["outer", "inner"]
        assert complete[1]["args"] == {"depth": 1, "detail": 1}
        assert any(e["name"] == "process_name" for e in metadata)

    def test_stage_spans_get_their_own_tracks(self):
        # The service-span convention: a `stage` attribute routes the
        # span to a named per-stage track so the queue-wait vs run split
        # is visible without any timeline special-casing.
        with profile(label="stages") as prof:
            with trace_span("service.run", stage="run", job="j1"):
                pass
            with trace_span("service.run", stage="run", job="j2"):
                pass
            with trace_span("service.admit", stage="admit"):
                pass
            with trace_span("plain"):
                pass
        payload = pipeline_profile_json(prof)
        validate_chrome_trace(payload)
        complete, metadata = _events_by_phase(payload)
        tids = {event["name"]: event["tid"] for event in complete}
        run_tids = {event["tid"] for event in complete
                    if event["name"] == "service.run"}
        assert len(run_tids) == 1
        assert run_tids != {tids["service.admit"]}
        assert tids["plain"] == 0
        track_names = {event["args"]["name"] for event in metadata
                       if event["name"] == "thread_name"}
        assert {"stage: run", "stage: admit", "pipeline spans"} <= track_names
        assert payload["otherData"]["stages"] == ["admit", "run"]


class TestChromeTraceValidation:
    def test_accepts_bare_event_lists(self):
        events = [{"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0}]
        assert validate_chrome_trace(events) == events

    @pytest.mark.parametrize("event,message", [
        ({"ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0}, "no event name"),
        ({"name": "x", "ph": "B", "ts": 0, "pid": 0, "tid": 0}, "unsupported phase"),
        ({"name": "x", "ph": "X", "dur": 1, "pid": 0, "tid": 0}, "numeric ts"),
        ({"name": "x", "ph": "X", "ts": 0, "dur": 1, "tid": 0}, "integer pid"),
        ({"name": "x", "ph": "M", "pid": 0, "tid": 0}, "without args"),
    ])
    def test_rejects_malformed_events(self, event, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace([event])

    def test_rejects_non_list_payloads(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})
