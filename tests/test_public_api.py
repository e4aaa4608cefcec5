"""Public-surface snapshot tests.

These lock the exported names of ``repro``, ``repro.api``,
``repro.sweep`` and ``repro.observability``: CI's lint job runs this
module, so accidentally widening or shrinking the public API fails fast
and visibly.  When a change is intentional, update the snapshots here in
the same commit.
"""

import repro
import repro.api
import repro.observability
import repro.service
import repro.sweep

REPRO_ALL = [
    "ArrivalConfig",
    "InferenceConfig",
    "PredictError",
    "Prediction",
    "ServingMetrics",
    "ServingTarget",
    "Study",
    "StudyError",
    "SweepResult",
    "SweepSpec",
    "Target",
    "__version__",
    "parse_arrival",
    "parse_target",
    "predict",
    "replay",
    "run_sweep",
    "sweep",
]

REPRO_API_ALL = [
    "KIND_ARCHITECTURE",
    "KIND_BASELINE",
    "KIND_HARDWARE",
    "KIND_PARALLELISM",
    "KIND_SERVING",
    "PredictError",
    "Prediction",
    "Study",
    "StudyError",
    "Target",
    "WhatIfBuilder",
    "parse_target",
    "predict",
]

REPRO_OBSERVABILITY_ALL = [
    "HistogramSummary",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PipelineProfile",
    "SpanRecord",
    "active_profile",
    "coerce_bundle",
    "count",
    "empty_report",
    "export_timeline",
    "gauge",
    "last_profile",
    "observe",
    "pipeline_profile_json",
    "profile",
    "record_span",
    "report",
    "serving_request_events",
    "start_profiling",
    "stop_profiling",
    "timeline_json",
    "trace_span",
    "tracing_enabled",
    "validate_chrome_trace",
]

REPRO_SERVICE_ALL = [
    "JobRecord",
    "JobStore",
    "PROTOCOL_VERSION",
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

REPRO_SWEEP_ALL = [
    "CacheStats",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepCache",
    "SweepResult",
    "SweepSpec",
    "SweepSpecError",
    "WhatIfSpec",
    "format_pareto_table",
    "format_ranked_table",
    "format_report",
    "hash_json",
    "hash_trace_bundle",
    "pareto_frontier",
    "rank_results",
    "run_sweep",
    "sweep",
]


class TestSurfaceSnapshots:
    def test_repro_all(self):
        assert sorted(repro.__all__) == REPRO_ALL

    def test_repro_api_all(self):
        assert sorted(repro.api.__all__) == REPRO_API_ALL

    def test_repro_sweep_all(self):
        assert sorted(repro.sweep.__all__) == REPRO_SWEEP_ALL

    def test_repro_observability_all(self):
        assert sorted(repro.observability.__all__) == REPRO_OBSERVABILITY_ALL

    def test_repro_service_all(self):
        assert sorted(repro.service.__all__) == REPRO_SERVICE_ALL


class TestSurfaceResolves:
    def test_every_exported_name_exists(self):
        for module in (repro, repro.api, repro.sweep, repro.observability,
                       repro.service):
            for name in module.__all__:
                assert getattr(module, name) is not None, f"{module.__name__}.{name}"

    def test_facade_names_are_shared_objects(self):
        # The top-level re-exports must be the same objects as the
        # subpackage definitions (no parallel copies to drift apart).
        assert repro.Study is repro.api.Study
        assert repro.PredictError is repro.api.PredictError
        assert repro.predict is repro.api.predict
        assert repro.SweepSpec is repro.sweep.SweepSpec

    def test_sweep_module_is_callable(self):
        assert callable(repro.sweep)
