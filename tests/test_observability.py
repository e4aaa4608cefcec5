"""Tests for the pipeline span API, metrics registry and run reports.

Two contracts matter most:

* **enabled** — spans nest correctly, stages aggregate per name, the
  metrics registry snapshots into the structured report, and a profiled
  ``Study`` pipeline records the stage names the docs promise;
* **disabled** — instrumentation is an exact no-op: ``trace_span``
  returns one shared singleton, nothing is retained (gc object count is
  stable across instrumented loops), and study outputs are identical
  with tracing on and off (the golden snapshots of ``test_goldens.py``
  run with tracing off and lock the bytes).
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time

import pytest

from repro.api import Study
from repro.observability import (
    NOOP_SPAN,
    HistogramSummary,
    MetricsRegistry,
    empty_report,
    profile,
    start_profiling,
    stop_profiling,
    trace_span,
    tracing_enabled,
)
from repro.observability import tracing
from repro.workload.inference import InferenceConfig
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model


@pytest.fixture(autouse=True)
def no_leaked_profile():
    """Tests must never leak an active profile into the rest of the suite."""
    assert not tracing_enabled()
    yield
    if tracing_enabled():
        stop_profiling()
        pytest.fail("test leaked an active pipeline profile")


def _tiny_study(**kwargs) -> Study:
    return Study.from_emulation(
        tiny_model(n_layers=2, d_model=256),
        "2x1x1",
        TrainingConfig(micro_batch_size=1, num_microbatches=2,
                       sequence_length=128, gradient_bucket_layers=1),
        iterations=1, seed=5, **kwargs)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 4)
        registry.count("b", 0.5)
        assert registry.counters == {"a": 5.0, "b": 0.5}

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("x", 1)
        registry.gauge("x", 7.5)
        assert registry.gauges == {"x": 7.5}

    def test_histogram_summary(self):
        summary = HistogramSummary()
        for value in (2.0, -1.0, 5.0):
            summary.observe(value)
        assert summary.count == 3
        assert summary.minimum == -1.0
        assert summary.maximum == 5.0
        assert summary.mean == pytest.approx(2.0)

    def test_empty_histogram_serialises_to_zeros(self):
        payload = HistogramSummary().to_json()
        assert payload == {"count": 0, "total": 0.0, "min": 0.0,
                           "max": 0.0, "mean": 0.0}

    def test_concurrent_counts_are_not_lost(self):
        # The service's handler and worker threads all mirror into the
        # active profile's registry; an unlocked read-modify-write counter
        # drops updates whenever a thread switch lands mid-increment.
        threads, per_thread = 8, 20_000

        def hammer():
            for _ in range(per_thread):
                tracing.count("x")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with profile() as prof:
                workers = [threading.Thread(target=hammer) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert prof.metrics.counters["x"] == threads * per_thread

    def test_snapshot_is_sorted_and_json_able(self):
        registry = MetricsRegistry()
        registry.count("z")
        registry.count("a")
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot["histograms"]["h"]["count"] == 1
        json.dumps(snapshot)  # must be serialisable as-is


class TestSpanRecording:
    def test_nested_spans_record_parent_and_depth(self):
        with profile() as prof:
            with trace_span("outer"):
                with trace_span("inner", step=3):
                    pass
        spans = {span.name: span for span in prof.spans}
        assert spans["inner"].depth == 1
        assert spans["inner"].parent == spans["outer"].span_id
        assert spans["outer"].depth == 0
        assert spans["outer"].parent == -1
        assert spans["inner"].attrs == {"step": 3}
        # Children complete first; intervals nest.
        assert spans["outer"].start_us <= spans["inner"].start_us
        assert spans["inner"].duration_us <= spans["outer"].duration_us

    def test_span_set_attaches_attributes(self):
        with profile() as prof:
            with trace_span("work") as span:
                span.set(rows=7, path="fast")
        assert prof.spans[0].attrs == {"rows": 7, "path": "fast"}

    def test_exception_marks_the_span_and_propagates(self):
        with pytest.raises(ValueError):
            with profile() as prof:
                with trace_span("broken"):
                    raise ValueError("boom")
        assert prof.spans[0].attrs["error"] == "ValueError"

    def test_threads_have_independent_span_stacks(self):
        with profile() as prof:
            def work():
                with trace_span("thread-span"):
                    pass
            threads = [threading.Thread(target=work) for _ in range(3)]
            with trace_span("main-span"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        by_name = [span for span in prof.spans if span.name == "thread-span"]
        assert len(by_name) == 3
        # The main-thread span is not their parent: stacks are per-thread.
        assert all(span.depth == 0 and span.parent == -1 for span in by_name)

    def test_stages_aggregate_by_name(self):
        with profile() as prof:
            for _ in range(3):
                with trace_span("stage.a"):
                    pass
            with trace_span("stage.b"):
                pass
        stages = prof.stages()
        assert stages["stage.a"]["count"] == 3
        assert stages["stage.b"]["count"] == 1
        assert stages["stage.a"]["total_us"] >= stages["stage.a"]["max_us"]
        assert stages["stage.a"]["mean_us"] == pytest.approx(
            stages["stage.a"]["total_us"] / 3)


class TestRecordSpan:
    def test_wall_clock_interval_maps_onto_the_profile(self):
        with profile() as prof:
            start = time.time()
            time.sleep(0.02)
            tracing.record_span("service.queue_wait", start_unix=start,
                                end_unix=time.time(), stage="queue_wait",
                                job="j1")
        span = prof.spans[0]
        assert span.name == "service.queue_wait"
        assert span.attrs == {"stage": "queue_wait", "job": "j1"}
        assert span.start_us >= 0.0
        assert span.duration_us >= 15_000
        assert span.depth == 0
        assert span.parent == -1

    def test_intervals_clamp_to_the_profile_start(self):
        # A wait that began before profiling did still renders, clamped.
        with profile() as prof:
            tracing.record_span("early", start_unix=1.0, end_unix=0.5)
        span = prof.spans[0]
        assert span.start_us == 0.0
        assert span.duration_us == 0.0

    def test_noop_without_an_active_profile(self):
        tracing.record_span("ignored", start_unix=0.0, end_unix=1.0)
        assert not tracing_enabled()


class TestProfileLifecycle:
    def test_nested_profiles_are_rejected(self):
        with profile():
            with pytest.raises(RuntimeError, match="already active"):
                start_profiling()

    def test_stop_without_active_profile_raises(self):
        with pytest.raises(RuntimeError, match="no pipeline profile"):
            stop_profiling()

    def test_report_shape(self):
        with profile(label="unit") as prof:
            with trace_span("stage.a"):
                pass
            tracing.count("things", 2)
            tracing.gauge("level", 0.5)
            tracing.observe("sizes", 10.0)
        report = prof.report()
        assert report["schema"] == 1
        assert report["enabled"] is True
        assert report["label"] == "unit"
        assert report["wall_time_us"] > 0
        assert report["stages"]["stage.a"]["count"] == 1
        assert report["metrics"]["counters"] == {"things": 2.0}
        assert report["metrics"]["gauges"] == {"level": 0.5}
        assert report["metrics"]["histograms"]["sizes"]["count"] == 1
        assert [span["name"] for span in report["spans"]] == ["stage.a"]
        json.dumps(report)

    def test_module_report_serves_the_last_profile(self, monkeypatch):
        monkeypatch.setattr(tracing, "_ACTIVE", None)
        monkeypatch.setattr(tracing, "_LAST", None)
        assert tracing.report() == empty_report()
        assert tracing.report()["enabled"] is False
        with profile(label="latest"):
            with trace_span("only"):
                pass
        report = tracing.report()
        assert report["enabled"] is True
        assert report["label"] == "latest"


class TestDisabledPathIsNoOp:
    def test_disabled_trace_span_returns_the_shared_singleton(self):
        span = trace_span("anything", key="value")
        assert span is NOOP_SPAN
        assert span.set(more=1) is NOOP_SPAN
        with span as inner:
            assert inner is NOOP_SPAN

    def test_disabled_metrics_are_no_ops(self, monkeypatch):
        monkeypatch.setattr(tracing, "_LAST", None)
        tracing.count("never", 5)
        tracing.gauge("never", 1.0)
        tracing.observe("never", 1.0)
        assert tracing.report() == empty_report()

    def test_disabled_instrumentation_retains_nothing(self):
        def instrumented_loop():
            for index in range(200):
                with trace_span("loop", index=index) as span:
                    span.set(extra=index)
                tracing.count("loop.iterations")
                tracing.observe("loop.sizes", float(index))

        instrumented_loop()  # warm caches (bytecode, small ints)
        gc.collect()
        before = len(gc.get_objects())
        instrumented_loop()
        gc.collect()
        assert len(gc.get_objects()) == before

    def test_study_outputs_identical_with_tracing_on_and_off(self):
        def snapshot() -> dict:
            study = _tiny_study()
            prediction = study.predict("2x2x1")
            return {
                "replay_us": study.base_time_us,
                "predicted_us": prediction.iteration_time_us,
                "breakdown": study.breakdown().as_dict(),
            }

        plain = snapshot()
        with profile():
            traced = snapshot()
        assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)


class TestStudyPipelineInstrumentation:
    def test_profiled_study_records_the_pipeline_stages(self):
        with profile() as prof:
            study = _tiny_study()
            study.replay()
            study.predict("2x2x1")
        stages = prof.stages()
        for name in ("emulate.build_programs", "emulate.iteration",
                     "study.replay", "study.calibrate", "study.derive_graph",
                     "study.predict", "engine.compile_graph"):
            assert name in stages, name
        counters = prof.metrics.snapshot()["counters"]
        assert counters["study.predictions"] == 1.0
        assert counters["study.calibrations"] == 1.0
        # The replay's graph and the synthesized 2x2x1 graph, whose derive
        # step compiles it, are the two compiles.
        assert stages["engine.compile_graph"]["count"] == 2
        assert counters["engine.compile.full"] == 2.0

    def test_calibration_residuals_recorded_only_when_enabled(self):
        with profile() as prof:
            _tiny_study().prepare()
        histograms = prof.metrics.snapshot()["histograms"]
        residuals = [name for name in histograms
                     if name.startswith("calibration.residual.")]
        assert residuals, histograms
        for name in residuals:
            assert histograms[name]["count"] >= 1
        gauges = prof.metrics.snapshot()["gauges"]
        assert any(name.startswith("calibration.factor.") for name in gauges)

    def test_sweep_run_report_has_cache_and_batch_metrics(self, tmp_path):
        # The sweep spec resolves its base model through the GPT-3
        # registry, so this one uses a registry model at tiny parallelism.
        study = Study.from_emulation(
            "gpt3-15b", "2x1x1",
            TrainingConfig(micro_batch_size=1, num_microbatches=2),
            iterations=1, seed=5)
        with profile(label="sweep") as prof:
            result = study.sweep(whatif=("gemm:2", "comm:2"),
                                 cache_dir=tmp_path / "cache")
        report = study.report()
        assert report is prof.report() or report == prof.report()
        # Per-stage wall times for the sweep pipeline.
        for name in ("study.sweep", "sweep.hash", "sweep.cache.lookup",
                     "sweep.prepare", "sweep.group"):
            assert name in report["stages"], name
        counters = report["metrics"]["counters"]
        gauges = report["metrics"]["gauges"]
        assert counters["sweep.scenarios.total"] == len(result)
        assert counters["sweep.scenarios.evaluated"] == len(result)
        # The two what-if scenarios ride the batched fast path together.
        assert counters["batch.runs.fast_path"] >= 1.0
        assert counters["batch.scenarios.fast_path"] >= 2.0
        assert "batch.runs.fallback" not in counters
        assert gauges["sweep.cache.hits"] == 0.0
        assert gauges["sweep.cache.hit_rate"] == 0.0
        assert gauges["sweep.scenarios_per_sec"] > 0
        # A second, fully cached sweep flips the hit-rate to 1.
        with profile(label="cached"):
            study.sweep(whatif=("gemm:2", "comm:2"), cache_dir=tmp_path / "cache")
        cached = study.report()
        assert cached["metrics"]["gauges"]["sweep.cache.hit_rate"] == 1.0
        assert cached["metrics"]["counters"]["sweep.scenarios.cached"] == len(result)

    def test_report_shows_which_configurations_shared_a_topology(self):
        with profile() as prof:
            study = Study.from_emulation(
                "gpt3-15b", "2x1x1",
                TrainingConfig(micro_batch_size=1, num_microbatches=2),
                iterations=1, seed=5)
            study.sweep(parallelism=("2x1x2",), hardware=("H200-SXM",),
                        whatif=("gemm:2", "comm:2"))
        counters = prof.metrics.snapshot()["counters"]
        # The base (at replay) and 2x1x2 are the two topologies.  Both
        # gpu=H200-SXM retargets are views of their compiled source: they
        # compile nothing, reuse its batch plan and build no tasks.
        assert counters["engine.compile.full"] == 2.0
        assert "engine.compile.shared" not in counters
        assert counters["batch.plan.full"] == 2.0
        assert counters["batch.plan.shared"] == 2.0
        assert "engine.materialise" not in counters

    def test_serving_study_profiles_too(self):
        with profile() as prof:
            study = Study.from_emulation(
                tiny_model(n_layers=2, d_model=256), "2x1x1",
                inference=InferenceConfig(batch_size=4, prompt_length=128,
                                          decode_length=2),
                iterations=1, seed=6)
            study.predict("serving:batch=8")
        stages = prof.stages()
        assert "study.predict" in stages
        assert "emulate.build_programs" in stages

    def test_study_report_without_any_profile_is_the_disabled_marker(self, monkeypatch):
        monkeypatch.setattr(tracing, "_ACTIVE", None)
        monkeypatch.setattr(tracing, "_LAST", None)
        report = _tiny_study().report()
        assert report["enabled"] is False
        assert report["stages"] == {}
        assert report["spans"] == []
