"""Tests for the sweep service: protocol, job store, workers, HTTP API.

The acceptance-critical end-to-end property lives here: two concurrent
clients submitting the identical (bundle, spec) pair dedupe to one job
and one evaluation, both read identical ranked results, and an identical
resubmission after completion is served entirely from the shared on-disk
sweep cache (``cache_hit_rate == 1.0``).  Every refusal surfaces as a
typed error with a stable machine-readable code, never a traceback.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.emulator.api import emulate
from repro.service import (
    PROTOCOL_VERSION,
    JobRecord,
    JobStore,
    ProtocolError,
    ServiceApp,
    ServiceClient,
    ServiceError,
    SubmitRequest,
    TraceRegistry,
    Worker,
    WorkerFleet,
    bundle_from_json,
    bundle_to_json,
    deliver_webhook,
    error_for_exception,
    job_id_for,
    validate_result_payload,
)
from repro.service.jobs import (
    EVENT_LEASE_EXPIRED,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
)
from repro.service.protocol import (
    CODE_BAD_REQUEST,
    CODE_INTERNAL,
    CODE_INVALID_SPEC,
    CODE_JOB_FAILED,
    CODE_JOB_NOT_DONE,
    CODE_JOB_STATE,
    CODE_STUDY_ERROR,
    CODE_UNKNOWN_JOB,
    CODE_UNKNOWN_TRACE,
    CODE_UNSUPPORTED_TARGET,
    CODE_UNSUPPORTED_VERSION,
    CODE_WORKER_LOST,
)
from repro.api.errors import PredictError, StudyError
from repro.sweep.hashing import hash_trace_bundle
from repro.sweep.spec import SweepSpecError
from repro.workload.arrivals import parse_arrival
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from tests.conftest import H100_BASE_TIME_US


@pytest.fixture(scope="module")
def serving_trace_dir(tmp_path_factory):
    """One tiny saved gpt3-15b serving bundle every service test reuses."""
    bundle = emulate(
        gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x1x1"),
        inference=InferenceConfig(batch_size=2, prompt_length=64, decode_length=8),
        iterations=1, seed=7).profiled
    directory = tmp_path_factory.mktemp("service-traces") / "serving"
    bundle.save(directory)
    return directory


@pytest.fixture(scope="module")
def stream_trace_dir(tmp_path_factory):
    """A tiny saved gpt3-15b continuous-batching stream (batch cap 2)."""
    bundle = emulate(
        gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x1x1"),
        inference=InferenceConfig(batch_size=2, prompt_length=64, decode_length=2,
                                  arrival=parse_arrival("poisson:rate=400,n=3,seed=1")),
        iterations=1, seed=7).profiled
    directory = tmp_path_factory.mktemp("service-traces") / "stream"
    bundle.save(directory)
    return directory


@pytest.fixture
def manual_app(serving_trace_dir, tmp_path):
    """A running HTTP front end with NO workers: tests drain the queue.

    Webhooks are opted in (any host) so the webhook tests can point the
    server at local receivers; the default-off policy has its own tests.
    """
    with ServiceApp(tmp_path / "svc", workers=0, webhook_hosts=("*",),
                    traces={"canned": serving_trace_dir}) as app:
        yield app


def _drain(app: ServiceApp, jobs: int = 1) -> Worker:
    """Process ``jobs`` queued jobs with one manually driven worker."""
    worker = Worker(app.store, app.registry, app.cache_root, metrics=app.metrics)
    for _ in range(jobs):
        assert worker.run_once()
    return worker


SWEEP_BODY = {"kind": "sweep", "trace": "canned",
              "targets": ["serving:batch=4"], "whatif": ["gemm:2"]}


class TestSubmitRequest:
    def _parse_error(self, payload) -> ProtocolError:
        with pytest.raises(ProtocolError) as excinfo:
            SubmitRequest.parse(payload)
        return excinfo.value

    def test_parses_a_full_sweep_body(self):
        request = SubmitRequest.parse({
            "version": 1, "kind": "sweep", "trace": "canned",
            "targets": ["2x2x8"], "whatif": ["gemm:2"], "slo_ms": 250,
            "base": {"micro_batch_size": 1}, "reuse": True})
        assert request.kind == "sweep"
        assert request.targets == ("2x2x8",)
        assert request.slo_ms == 250.0
        assert request.reuse is True

    def test_rejects_non_object_body(self):
        assert self._parse_error([1, 2]).code == CODE_BAD_REQUEST

    def test_rejects_wrong_version(self):
        error = self._parse_error({"version": 99, "kind": "sweep", "trace": "t",
                                   "targets": ["2x2x8"]})
        assert error.code == CODE_UNSUPPORTED_VERSION
        assert error.status == 400

    def test_rejects_unknown_kind(self):
        error = self._parse_error({"version": 1, "kind": "train", "trace": "t"})
        assert error.code == CODE_BAD_REQUEST

    def test_requires_exactly_one_trace_source(self):
        neither = self._parse_error({"version": 1, "kind": "sweep",
                                     "targets": ["2x2x8"]})
        both = self._parse_error({"version": 1, "kind": "sweep", "trace": "t",
                                  "bundle": {}, "targets": ["2x2x8"]})
        assert neither.code == CODE_BAD_REQUEST
        assert both.code == CODE_BAD_REQUEST

    def test_predict_requires_target(self):
        error = self._parse_error({"version": 1, "kind": "predict", "trace": "t"})
        assert error.code == CODE_BAD_REQUEST
        assert "target" in error.message

    def test_sweep_requires_some_axis(self):
        error = self._parse_error({"version": 1, "kind": "sweep", "trace": "t"})
        assert "spec" in error.message

    def test_rejects_non_string_targets(self):
        error = self._parse_error({"version": 1, "kind": "sweep", "trace": "t",
                                   "targets": [1]})
        assert error.code == CODE_BAD_REQUEST

    def test_rejects_non_numeric_slo(self):
        error = self._parse_error({"version": 1, "kind": "sweep", "trace": "t",
                                   "targets": ["2x2x8"], "slo_ms": "fast"})
        assert error.code == CODE_BAD_REQUEST

    @pytest.mark.parametrize("kind", ["predict", "sweep"])
    @pytest.mark.parametrize("slo_ms", [-5, 0, "nan", float("nan"), "inf"])
    def test_rejects_non_positive_or_non_finite_slo(self, kind, slo_ms):
        # Predict jobs never reach SweepSpec.validate, so admission checks.
        error = self._parse_error({"version": 1, "kind": kind, "trace": "t",
                                   "target": "batch=4", "targets": ["batch=4"],
                                   "slo_ms": slo_ms})
        assert error.code == CODE_BAD_REQUEST
        assert "slo_ms" in error.message

    def test_webhook_must_be_an_http_url(self):
        request = SubmitRequest.parse({
            "version": 1, "kind": "sweep", "trace": "t", "targets": ["2x2x8"],
            "webhook": "https://hooks.example/done"})
        assert request.webhook == "https://hooks.example/done"
        for bad in ("ftp://x", "hooks.example/done", 7):
            error = self._parse_error({"version": 1, "kind": "sweep",
                                       "trace": "t", "targets": ["2x2x8"],
                                       "webhook": bad})
            assert error.code == CODE_BAD_REQUEST


class TestErrorMapping:
    def test_library_errors_map_to_stable_codes(self):
        assert error_for_exception(SweepSpecError("x")).code == CODE_INVALID_SPEC
        assert error_for_exception(PredictError("x")).code == CODE_UNSUPPORTED_TARGET
        assert error_for_exception(StudyError("x")).code == CODE_STUDY_ERROR
        assert error_for_exception(RuntimeError("x")).code == CODE_INTERNAL

    def test_protocol_errors_pass_through(self):
        original = ProtocolError(CODE_UNKNOWN_TRACE, "gone")
        assert error_for_exception(original) is original

    def test_status_codes_are_4xx_for_refusals(self):
        assert ProtocolError(CODE_INVALID_SPEC, "x").status == 400
        assert ProtocolError(CODE_UNKNOWN_JOB, "x").status == 404
        assert ProtocolError(CODE_JOB_NOT_DONE, "x").status == 409
        assert ProtocolError(CODE_INTERNAL, "x").status == 500
        assert ProtocolError("never-seen", "x").status == 500

    def test_wire_body_shape(self):
        body = ProtocolError(CODE_INVALID_SPEC, "broken").to_json()
        assert body == {"error": {"code": "invalid-spec", "message": "broken"}}


class TestBundleTransport:
    def test_roundtrip_preserves_hash(self, serving_trace_dir):
        from repro.trace.kineto import TraceBundle
        bundle = TraceBundle.load(serving_trace_dir)
        rebuilt = bundle_from_json(bundle_to_json(bundle))
        assert hash_trace_bundle(rebuilt) == hash_trace_bundle(bundle)
        assert rebuilt.metadata == bundle.metadata

    def test_malformed_upload_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            bundle_from_json({"metadata": {}, "traces": {}})
        assert excinfo.value.code == CODE_BAD_REQUEST
        with pytest.raises(ProtocolError):
            bundle_from_json({"traces": {"0": "not-a-trace"}})


class TestResultValidation:
    def _sweep_row(self) -> dict:
        return {"label": "base", "kind": "baseline", "target": "base",
                "whatif": None, "world_size": 2, "iteration_time_us": 1.0,
                "base_time_us": 1.0, "affected_tasks": 0, "from_cache": False}

    def _sweep_payload(self) -> dict:
        row = self._sweep_row()
        return {"schema": 1, "kind": "sweep", "workload": "serving",
                "base_time_us": 1.0, "elapsed_seconds": 0.1, "workers": 1,
                "cache": {"hits": 0, "misses": 1, "lookups": 1, "hit_rate": 0.0},
                "scenarios": [row], "ranked": [row], "pareto": [row]}

    def test_accepts_a_wellformed_sweep_result(self):
        assert validate_result_payload(self._sweep_payload())["kind"] == "sweep"

    def test_rejects_wrong_schema_and_kind(self):
        with pytest.raises(ValueError, match="schema"):
            validate_result_payload({"schema": 99, "kind": "sweep"})
        with pytest.raises(ValueError, match="kind"):
            validate_result_payload({"schema": 1, "kind": "mystery"})

    def test_rejects_missing_cache_block(self):
        payload = self._sweep_payload()
        del payload["cache"]
        with pytest.raises(ValueError, match="cache"):
            validate_result_payload(payload)

    def test_rejects_missing_columns(self):
        payload = self._sweep_payload()
        del payload["ranked"][0]["from_cache"]
        with pytest.raises(ValueError, match="from_cache"):
            validate_result_payload(payload)

    def test_rejects_ranked_not_permuting_scenarios(self):
        payload = self._sweep_payload()
        payload["ranked"] = []
        with pytest.raises(ValueError, match="permute"):
            validate_result_payload(payload)

    def test_predict_result_columns(self):
        payload = {"schema": 1, "kind": "predict", "label": "batch=4",
                   "target": {"kind": "serving", "label": "batch=4"},
                   "world_size": 2, "iteration_time_us": 1.0,
                   "base_time_us": 2.0, "speedup_vs_base": 2.0, "serving": None}
        assert validate_result_payload(payload)["kind"] == "predict"
        del payload["speedup_vs_base"]
        with pytest.raises(ValueError, match="speedup_vs_base"):
            validate_result_payload(payload)


def _record(job_id: str = "j" * 32, payload: dict | None = None,
            submitted_unix: float = 0.0) -> JobRecord:
    return JobRecord(job_id=job_id, kind="sweep", trace="canned",
                     bundle_hash="b" * 64, payload=payload or {"x": 1},
                     submitted_unix=submitted_unix)


class TestJobStore:
    def test_job_ids_are_deterministic_content_hashes(self):
        one = job_id_for("b" * 64, "sweep", {"spec": {"a": 1, "b": 2}})
        two = job_id_for("b" * 64, "sweep", {"spec": {"b": 2, "a": 1}})
        assert one == two
        assert len(one) == 32
        assert job_id_for("c" * 64, "sweep", {"spec": {"a": 1, "b": 2}}) != one

    def test_submit_then_get_roundtrips(self, tmp_path):
        store = JobStore(tmp_path)
        record, deduped = store.submit(_record())
        assert not deduped
        assert record.state == STATE_QUEUED
        assert record.submitted_unix > 0
        assert store.get(record.job_id).to_json() == record.to_json()

    def test_identical_queued_submission_dedupes(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = store.submit(_record())
        second, deduped = store.submit(_record())
        assert deduped
        assert second.job_id == first.job_id
        assert store.queue_depth() == 1

    def test_terminal_resubmission_reenqueues_with_attempts(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())
        running = store.claim_next("w")
        store.mark_done(running, {"ok": True}, {"hit_rate": 1.0})
        again, deduped = store.submit(_record())
        assert not deduped
        assert again.state == STATE_QUEUED
        assert again.attempts == 2

    def test_terminal_resubmission_with_reuse_returns_done_record(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())
        store.mark_done(store.claim_next("w"), {"ok": True})
        reused, deduped = store.submit(_record(), reuse=True)
        assert deduped
        assert reused.state == STATE_DONE
        assert reused.result == {"ok": True}

    def test_claim_is_fifo_by_submission_time(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record("a" * 32, submitted_unix=200.0))
        store.submit(_record("b" * 32, submitted_unix=100.0))
        claimed = store.claim_next("w")
        assert claimed.job_id == "b" * 32
        assert claimed.state == STATE_RUNNING
        assert claimed.worker == "w"

    def test_excl_claim_file_blocks_double_claims(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())
        (store.claims_dir / f"{record.job_id}.claim").write_text("other")
        assert store.claim_next("w") is None

    def test_two_stores_on_one_root_claim_each_job_once(self, tmp_path):
        alpha, beta = JobStore(tmp_path), JobStore(tmp_path)
        alpha.submit(_record("a" * 32, submitted_unix=1.0))
        alpha.submit(_record("b" * 32, submitted_unix=2.0))
        claims = [alpha.claim_next("alpha"), beta.claim_next("beta"),
                  beta.claim_next("beta")]
        ids = [record.job_id for record in claims if record is not None]
        assert sorted(ids) == ["a" * 32, "b" * 32]

    def test_mark_failed_persists_typed_error(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        failed = store.mark_failed(store.claim_next("w"),
                                   {"code": "invalid-spec", "message": "no"})
        assert failed.state == STATE_FAILED
        reloaded = JobStore(tmp_path).get(failed.job_id)
        assert reloaded.error["code"] == "invalid-spec"

    def test_done_job_visible_to_a_fresh_store(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        store.mark_done(store.claim_next("w"), {"ok": 1})
        fresh = JobStore(tmp_path)
        assert fresh.get("j" * 32).state == STATE_DONE
        assert fresh.queue_depth() == 0

    def test_cancel_only_queued_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())
        assert store.cancel(record.job_id).state == STATE_CANCELLED
        with pytest.raises(ProtocolError) as excinfo:
            store.cancel(record.job_id)
        assert excinfo.value.code == CODE_JOB_STATE
        with pytest.raises(ProtocolError) as excinfo:
            store.cancel("f" * 32)
        assert excinfo.value.code == CODE_UNKNOWN_JOB

    def test_reenqueue_is_visible_to_a_peer_store(self, tmp_path):
        """Regression: a peer that already indexed the terminal record
        must observe a resubmission's queued snapshot (same path, new
        stat identity) — otherwise a fleet never claims the rerun."""
        alpha = JobStore(tmp_path)
        alpha.submit(_record())
        alpha.mark_done(alpha.claim_next("alpha"), {"ok": True})
        beta = JobStore(tmp_path)  # indexes the terminal record
        assert beta.get("j" * 32).state == STATE_DONE
        again, deduped = alpha.submit(_record())
        assert not deduped
        assert again.attempts == 2
        beta.refresh()
        assert beta.get("j" * 32).state == STATE_QUEUED
        claimed = beta.claim_next("beta")
        assert claimed is not None
        assert claimed.job_id == "j" * 32
        assert claimed.attempts == 2

    def test_foreign_files_in_jobs_dir_are_ignored(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(_record())
        (store.jobs_dir / "junk.json").write_text("{torn", encoding="utf-8")
        (store.jobs_dir / "old.json").write_text('{"schema": 99}', encoding="utf-8")
        store.refresh()
        assert [r.job_id for r in store.jobs()] == ["j" * 32]


class TestTraceRegistry:
    def test_resolve_memoizes_bundle_and_hash(self, serving_trace_dir):
        registry = TraceRegistry()
        registry.register("canned", serving_trace_dir)
        bundle, bundle_hash = registry.resolve("canned")
        assert registry.resolve("canned")[0] is bundle
        assert bundle_hash == hash_trace_bundle(bundle)
        assert registry.names() == ["canned"]

    def test_unknown_name_is_typed(self):
        registry = TraceRegistry()
        with pytest.raises(ProtocolError) as excinfo:
            registry.resolve("nope")
        assert excinfo.value.code == CODE_UNKNOWN_TRACE
        assert excinfo.value.status == 404

    def test_unloadable_path_is_typed(self, tmp_path):
        registry = TraceRegistry()
        registry.register("empty", tmp_path / "missing")
        with pytest.raises(ProtocolError) as excinfo:
            registry.resolve("empty")
        assert excinfo.value.code == CODE_UNKNOWN_TRACE

    def test_inline_upload_spools_under_content_hash(self, serving_trace_dir,
                                                     tmp_path):
        from repro.trace.kineto import TraceBundle
        bundle = TraceBundle.load(serving_trace_dir)
        registry = TraceRegistry(spool_dir=tmp_path / "spool")
        (tmp_path / "spool").mkdir()
        name = registry.store_inline(bundle_to_json(bundle))
        assert name.startswith("upload-")
        resolved, resolved_hash = registry.resolve(name)
        assert resolved_hash == hash_trace_bundle(bundle)
        # Re-uploading the identical bundle reuses the spooled copy.
        assert registry.store_inline(bundle_to_json(bundle)) == name

    def test_spooled_upload_resolves_in_a_fresh_registry(self, serving_trace_dir,
                                                         tmp_path):
        # A worker fleet started *before* a server spooled an upload must
        # still resolve it: unknown upload-* names fall back to the spool.
        from repro.trace.kineto import TraceBundle
        bundle = TraceBundle.load(serving_trace_dir)
        spool = tmp_path / "spool"
        spool.mkdir()
        name = TraceRegistry(spool_dir=spool).store_inline(bundle_to_json(bundle))
        fresh = TraceRegistry(spool_dir=spool)
        resolved, resolved_hash = fresh.resolve(name)
        assert resolved_hash == hash_trace_bundle(bundle)

    def test_uploads_refused_without_spool(self, serving_trace_dir):
        from repro.trace.kineto import TraceBundle
        bundle = TraceBundle.load(serving_trace_dir)
        registry = TraceRegistry(spool_dir=None)
        with pytest.raises(ProtocolError) as excinfo:
            registry.store_inline(bundle_to_json(bundle))
        assert excinfo.value.code == CODE_BAD_REQUEST


class TestServiceEndToEnd:
    def test_concurrent_identical_submissions_evaluate_once(self, manual_app):
        """The acceptance path: dedupe, one evaluation, shared warm cache."""
        app = manual_app
        responses = []
        lock = threading.Lock()

        def submit() -> None:
            response = ServiceClient(app.url).submit(SWEEP_BODY)
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Both clients were admitted to the same job; exactly one queued it.
        job_ids = {response["job"]["job_id"] for response in responses}
        assert len(job_ids) == 1
        assert sorted(r["deduped"] for r in responses) == [False, True]
        assert app.store.queue_depth() == 1

        worker = _drain(app)
        assert worker.jobs_processed == 1

        job_id = job_ids.pop()
        client = ServiceClient(app.url)
        first = client.result(job_id)
        second = client.result(job_id)
        assert first == second
        result = validate_result_payload(first["result"])
        assert result["cache"]["hit_rate"] == 0.0
        assert [row["label"] for row in result["ranked"]]

        # An identical resubmission after completion re-enqueues and is
        # answered entirely from the shared on-disk cache.
        rerun = client.submit(SWEEP_BODY)
        assert rerun["job"]["job_id"] == job_id
        assert not rerun["deduped"]
        _drain(app)
        warm = validate_result_payload(client.result(job_id)["result"])
        assert warm["cache"]["hit_rate"] == 1.0
        assert all(row["from_cache"] for row in warm["scenarios"])
        assert [row["label"] for row in warm["ranked"]] == \
            [row["label"] for row in result["ranked"]]

        # reuse=True short-circuits to the finished record without a rerun.
        reused = client.submit(dict(SWEEP_BODY, reuse=True))
        assert reused["deduped"]
        assert reused["job"]["state"] == STATE_DONE

    def test_equivalent_spellings_dedupe_to_one_job(self, manual_app):
        client = ServiceClient(manual_app.url)
        explicit = client.submit({"kind": "sweep", "trace": "canned",
                                  "targets": ["serving:batch=4"]})
        detected = client.submit({"kind": "sweep", "trace": "canned",
                                  "targets": ["batch=4"]})
        assert detected["job"]["job_id"] == explicit["job"]["job_id"]
        assert detected["deduped"]

    def test_hardware_spellings_dedupe_to_one_job(self, manual_app):
        # parse_target canonicalises before the payload is hashed, so the
        # prefixed and the bare spelling of one GPU are one job.
        client = ServiceClient(manual_app.url)
        explicit = client.submit({"kind": "predict", "trace": "canned",
                                  "target": "hardware:H200-SXM"})
        detected = client.submit({"kind": "predict", "trace": "canned",
                                  "target": "gpu=h200_sxm"})
        assert detected["job"]["job_id"] == explicit["job"]["job_id"]
        assert detected["deduped"]

    def test_sweep_hardware_spellings_dedupe_to_one_job(self, manual_app):
        # The sweep side of the same rule: targets decompose onto the
        # spec's axes with one canonical entry per GPU before hashing.
        client = ServiceClient(manual_app.url)
        composite = client.submit({"kind": "sweep", "trace": "canned",
                                   "targets": ["batch=8,gpu=H200-SXM",
                                               "gpu=h200_sxm"]})
        split = client.submit({"kind": "sweep", "trace": "canned",
                               "targets": ["batch=8", "hardware:H200-SXM"]})
        assert split["job"]["job_id"] == composite["job"]["job_id"]
        assert split["deduped"]

    def test_hardware_axis_sweeps_through_the_service(self, manual_app):
        client = ServiceClient(manual_app.url)
        submitted = client.submit({"kind": "sweep", "trace": "canned",
                                   "targets": ["batch=8", "gpu=H200-SXM",
                                               "batch=8,gpu=H200-SXM"]})
        _drain(manual_app)
        result = validate_result_payload(
            client.result(submitted["job"]["job_id"])["result"])
        labels = {row["label"] for row in result["scenarios"]}
        # The hardware axis crosses the grid: each workload config shows
        # up on the profiled part and on the hypothetical one.
        assert {"base", "batch=8", "gpu=H200-SXM",
                "batch=8+gpu=H200-SXM"} <= labels

    def test_profiled_gpu_sweep_folds_onto_the_base(self, h100_base_trace, tmp_path):
        # The retarget's memory bound refuses this base on any 80 GiB
        # part; naming its own H100 is the base, so the job completes.
        with ServiceApp(tmp_path / "svc", workers=0,
                        traces={"h100": h100_base_trace}) as app:
            client = ServiceClient(app.url)
            submitted = client.submit({"kind": "sweep", "trace": "h100",
                                       "targets": ["gpu=H100-SXM"],
                                       "base": {"micro_batch_size": 1}})
            job_id = submitted["job"]["job_id"]
            _drain(app)
            assert client.job(job_id)["state"] == STATE_DONE
            rows = validate_result_payload(client.result(job_id)["result"])["scenarios"]
        times = {row["label"]: row["iteration_time_us"] for row in rows}
        assert times == {"base": pytest.approx(H100_BASE_TIME_US, abs=0.005),
                         "gpu=H100-SXM": times["base"]}

    def test_live_workers_complete_a_predict_job(self, serving_trace_dir, tmp_path):
        with ServiceApp(tmp_path / "svc", workers=1,
                        traces={"canned": serving_trace_dir}) as app:
            client = ServiceClient(app.url)
            submitted = client.submit({"kind": "predict", "trace": "canned",
                                       "target": "batch=4", "slo_ms": 500})
            job = client.wait(submitted["job"]["job_id"], timeout=120.0)
            assert job["state"] == STATE_DONE
            result = validate_result_payload(
                client.result(job["job_id"])["result"])
            assert result["target"] == {"kind": "serving", "label": "batch=4"}
            # A fixed-batch serving episode has no continuous-batching
            # stream, so the per-request block is explicitly null.
            assert "serving" in result
            assert result["iteration_time_us"] > 0

    def test_inline_bundle_upload_runs_like_a_named_trace(self, serving_trace_dir,
                                                          manual_app):
        from repro.trace.kineto import TraceBundle
        bundle = TraceBundle.load(serving_trace_dir)
        client = ServiceClient(manual_app.url)
        submitted = client.submit({"kind": "sweep",
                                   "bundle": bundle_to_json(bundle),
                                   "targets": ["batch=4"]})
        assert submitted["job"]["trace"].startswith("upload-")
        _drain(manual_app)
        result = client.result(submitted["job"]["job_id"])["result"]
        assert validate_result_payload(result)["kind"] == "sweep"

    def test_cancel_and_status_lifecycle(self, manual_app):
        client = ServiceClient(manual_app.url)
        submitted = client.submit(SWEEP_BODY)
        job_id = submitted["job"]["job_id"]
        assert client.job(job_id)["state"] == STATE_QUEUED
        cancelled = client.cancel(job_id)
        assert cancelled["state"] == STATE_CANCELLED
        assert manual_app.store.queue_depth() == 0

    def test_health_and_metrics_endpoints(self, manual_app):
        client = ServiceClient(manual_app.url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["traces"] == ["canned"]
        client.submit(SWEEP_BODY)
        metrics = client.metrics()
        assert metrics["counters"]["service.jobs.submitted"] == 1.0
        assert metrics["gauges"]["service.queue_depth"] == 1.0
        _drain(manual_app)
        metrics = ServiceClient(manual_app.url).metrics()
        assert metrics["counters"]["service.jobs.completed"] == 1.0
        assert metrics["histograms"]["service.job_latency_ms"]["count"] == 1


class TestServiceErrors:
    def _submit_error(self, app: ServiceApp, body: dict) -> ServiceError:
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(app.url).submit(body)
        return excinfo.value

    def test_unknown_trace_is_404(self, manual_app):
        error = self._submit_error(manual_app, dict(SWEEP_BODY, trace="nope"))
        assert error.code == CODE_UNKNOWN_TRACE
        assert error.status == 404
        assert "canned" in str(error)

    def test_wrong_version_is_400(self, manual_app):
        error = self._submit_error(manual_app, dict(SWEEP_BODY, version=99))
        assert error.code == CODE_UNSUPPORTED_VERSION
        assert error.status == 400

    def test_invalid_spec_refused_at_admission(self, manual_app):
        # 4x1x1 needs more tensor parallelism than the traced base has.
        error = self._submit_error(
            manual_app, {"kind": "sweep", "trace": "canned",
                         "targets": ["4x1x1"]})
        assert error.code == CODE_INVALID_SPEC
        assert error.status == 400

    @pytest.mark.parametrize("body", [
        {"targets": ["batch=4"], "whatif": ["gemm:nan"]},
        {"spec": {"serving": ["batch=4"],
                  "whatif": [{"kind": "kernel_class", "op_class": "gemm",
                              "speedup": "nan"}]}},
        {"spec": {"base": {"slo_ms": "nan"}, "serving": ["batch=4"]}},
    ])
    def test_non_finite_spec_values_refused_at_admission(self, manual_app, body):
        # Admitted, they ran to NaN rows that were cached as results.
        error = self._submit_error(manual_app, {"kind": "sweep", "trace": "canned",
                                                **body})
        assert error.code == CODE_INVALID_SPEC
        assert manual_app.store.queue_depth() == 0

    def test_unsupported_predict_targets_refused_at_admission(self, h100_base_trace,
                                                              tmp_path):
        # A predict job is judged by the same resolve walk as the worker's
        # study: a TP change and an unknown model never reach the queue.
        with ServiceApp(tmp_path / "svc", workers=0,
                        traces={"h100": h100_base_trace}) as app:
            for target in ("4x2x2", "model:gpt9"):
                error = self._submit_error(app, {
                    "kind": "predict", "trace": "h100", "target": target,
                    "base": {"micro_batch_size": 1}})
                assert error.code == CODE_UNSUPPORTED_TARGET
            app.store.refresh()
            assert app.store.jobs() == []

    def test_stream_batch_change_refused_at_admission(self, stream_trace_dir, tmp_path):
        with ServiceApp(tmp_path / "svc", workers=0,
                        traces={"stream": stream_trace_dir}) as app:
            error = self._submit_error(app, {"kind": "sweep", "trace": "stream",
                                             "targets": ["batch=8"]})
            assert error.code == CODE_INVALID_SPEC
            assert "re-emulate" in str(error)
            app.store.refresh()
            assert app.store.jobs() == []

    def test_malformed_target_refused_at_admission(self, manual_app):
        error = self._submit_error(
            manual_app, {"kind": "predict", "trace": "canned",
                         "target": "serving:frobnicate"})
        assert error.code == CODE_UNSUPPORTED_TARGET

    def test_unknown_job_and_premature_result(self, manual_app):
        client = ServiceClient(manual_app.url)
        with pytest.raises(ServiceError) as excinfo:
            client.job("f" * 32)
        assert excinfo.value.code == CODE_UNKNOWN_JOB
        submitted = client.submit(SWEEP_BODY)
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job"]["job_id"])
        assert excinfo.value.code == CODE_JOB_NOT_DONE
        assert excinfo.value.status == 409

    def test_unroutable_paths_are_bad_request(self, manual_app):
        client = ServiceClient(manual_app.url)
        for method, path in (("GET", "/v2/anything"), ("POST", "/v1/nope")):
            with pytest.raises(ServiceError) as excinfo:
                client._request(method, path, {} if method == "POST" else None)
            assert excinfo.value.code == CODE_BAD_REQUEST

    def test_invalid_json_body_is_bad_request(self, manual_app):
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            manual_app.url + "/v1/jobs", data=b"{torn", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["code"] == CODE_BAD_REQUEST

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "unavailable"


class TestWorkerFailures:
    def _inject(self, app: ServiceApp, payload: dict, kind: str = "sweep"):
        """Enqueue a payload bypassing admission validation."""
        _, bundle_hash = app.registry.resolve("canned")
        record = JobRecord(
            job_id=job_id_for(bundle_hash, kind, payload), kind=kind,
            trace="canned", bundle_hash=bundle_hash, payload=payload)
        record, _ = app.store.submit(record)
        return record

    def _base(self, app: ServiceApp) -> dict:
        """The base block admission resolves for the canned trace."""
        from repro.sweep.spec import SweepSpec
        bundle, _ = app.registry.resolve("canned")
        return SweepSpec.coerce({}, bundle.metadata).base_json()

    def test_invalid_spec_fails_job_with_typed_code(self, manual_app):
        base = self._base(manual_app)
        record = self._inject(manual_app, {
            "base": base, "spec": {"base": base, "parallelism": ["4x1x1"]}})
        _drain(manual_app)
        failed = manual_app.store.get(record.job_id)
        assert failed.state == STATE_FAILED
        assert failed.error["code"] == CODE_INVALID_SPEC
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(manual_app.url).result(record.job_id)
        assert excinfo.value.code == CODE_JOB_FAILED
        assert excinfo.value.status == 409
        assert CODE_INVALID_SPEC in str(excinfo.value)

    def test_unknown_model_fails_predict_with_typed_code(self, manual_app):
        record = self._inject(
            manual_app, {"base": self._base(manual_app), "target": "model:gpt9"},
            kind="predict")
        _drain(manual_app)
        failed = manual_app.store.get(record.job_id)
        assert failed.state == STATE_FAILED
        assert failed.error["code"] == CODE_UNSUPPORTED_TARGET
        metrics = manual_app.metrics.snapshot()
        assert metrics["counters"]["service.jobs.failed"] == 1.0

    def test_worker_survives_a_failed_job(self, manual_app):
        self._inject(manual_app, {"base": self._base(manual_app),
                                  "target": "model:gpt9"}, kind="predict")
        ServiceClient(manual_app.url).submit(SWEEP_BODY)
        worker = _drain(manual_app, jobs=2)
        assert worker.jobs_processed == 2
        states = {record.state for record in manual_app.store.jobs()}
        assert states == {STATE_FAILED, STATE_DONE}


class TestWorkerCacheSharing:
    def test_studies_are_memoized_per_bundle_and_base(self, manual_app):
        client = ServiceClient(manual_app.url)
        client.submit(SWEEP_BODY)
        worker = _drain(manual_app)
        client.submit(dict(SWEEP_BODY, targets=["batch=8"]))
        for _ in range(1):
            assert worker.run_once()
        assert len(worker._studies) == 1
        assert worker.jobs_processed == 2

    def test_sweeps_differing_only_in_slo_share_one_study(self, stream_trace_dir,
                                                          tmp_path):
        with ServiceApp(tmp_path / "svc", workers=0,
                        traces={"stream": stream_trace_dir}) as app:
            client = ServiceClient(app.url)
            body = {"kind": "sweep", "trace": "stream", "targets": ["prompt=128"]}
            tight = client.submit(dict(body, slo_ms=1))["job"]["job_id"]
            loose = client.submit(dict(body, slo_ms=60_000))["job"]["job_id"]
            worker = _drain(app, jobs=2)
            assert len(worker._studies) == 1
            for job_id, deadline_ms, attainment in ((tight, 1.0, 0.0),
                                                    (loose, 60_000.0, 1.0)):
                rows = client.result(job_id)["result"]["scenarios"]
                assert len(rows) == 2
                assert {row["serving"]["deadline_ms"] for row in rows} == {deadline_ms}
                assert {row["serving"]["slo_attainment"] for row in rows} == {attainment}

    def test_corrupted_cache_entries_never_fail_a_job(self, manual_app):
        from pathlib import Path
        client = ServiceClient(manual_app.url)
        submitted = client.submit(SWEEP_BODY)
        _drain(manual_app)
        job_id = submitted["job"]["job_id"]
        entries = list(Path(manual_app.cache_root).glob("*/*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{torn", encoding="utf-8")
        client.submit(SWEEP_BODY)
        _drain(manual_app)
        result = validate_result_payload(client.result(job_id)["result"])
        assert result["cache"]["hit_rate"] == 0.0
        assert not any(row["from_cache"] for row in result["scenarios"])

    def test_fleet_and_server_share_one_cache_by_default(self, manual_app,
                                                         serving_trace_dir):
        # `serve` and `work` on one root default to one sweep cache: a job
        # a fleet ran is answered from cache by the server's own worker.
        fleet = WorkerFleet(manual_app.root, traces={"canned": serving_trace_dir})
        assert fleet.cache_root == manual_app.cache_root
        client = ServiceClient(manual_app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        assert fleet.workers[0].run_once()
        assert client.job(job_id)["cache"]["hit_rate"] == 0.0
        client.submit(SWEEP_BODY)
        _drain(manual_app)
        job = client.job(job_id)
        assert job["state"] == STATE_DONE
        assert job["attempts"] == 2
        assert job["cache"]["hit_rate"] == 1.0

    def test_cache_block_lands_on_the_job_status(self, manual_app):
        client = ServiceClient(manual_app.url)
        submitted = client.submit(SWEEP_BODY)
        _drain(manual_app)
        job = client.job(submitted["job"]["job_id"])
        assert job["cache"]["lookups"] == job["cache"]["hits"] + job["cache"]["misses"]


class TestServiceCli:
    def test_submit_round_trip_through_main(self, manual_app, capsys):
        from repro.cli import main
        worker_done = threading.Event()

        def drain_soon() -> None:
            worker = Worker(manual_app.store, manual_app.registry,
                            manual_app.cache_root, metrics=manual_app.metrics)
            while not worker_done.is_set():
                if worker.run_once():
                    worker_done.set()
                    return
                worker_done.wait(0.05)

        thread = threading.Thread(target=drain_soon)
        thread.start()
        try:
            code = main(["submit", "--url", manual_app.url, "--trace", "canned",
                         "--target", "serving:batch=4", "--whatif", "gemm:2"])
        finally:
            worker_done.set()
            thread.join()
        assert code == 0
        output = capsys.readouterr().out
        assert "evaluated" in output
        assert "rank" in output

    def test_submit_unknown_trace_exits_2(self, manual_app, capsys):
        from repro.cli import main
        code = main(["submit", "--url", manual_app.url, "--trace", "nope",
                     "--target", "batch=4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown-trace" in err

    def test_submit_unreachable_server_exits_2(self, capsys):
        from repro.cli import main
        code = main(["submit", "--url", "http://127.0.0.1:9", "--trace", "x",
                     "--target", "batch=4", "--timeout", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_submit_no_wait_returns_queued(self, manual_app, capsys):
        from repro.cli import main
        code = main(["submit", "--url", manual_app.url, "--trace", "canned",
                     "--target", "batch=4", "--no-wait"])
        assert code == 0
        assert "queued" in capsys.readouterr().out


class TestServeLifecycle:
    def test_serve_forever_drains_on_sigterm(self, tmp_path, serving_trace_dir):
        app = ServiceApp(tmp_path / "svc", workers=1,
                         traces={"canned": serving_trace_dir})
        old_term = signal.getsignal(signal.SIGTERM)
        old_int = signal.getsignal(signal.SIGINT)
        client = ServiceClient(app.url)

        def fire_once_serving() -> None:
            deadline = time.time() + 30.0
            while time.time() < deadline:
                try:
                    if client.health()["status"] == "ok":
                        break
                except ServiceError:
                    time.sleep(0.02)
            os.kill(os.getpid(), signal.SIGTERM)

        killer = threading.Thread(target=fire_once_serving)
        killer.start()
        try:
            # Blocks in the real CLI loop (signal handlers installed)
            # until the SIGTERM from the helper thread drains it.
            assert app.serve_forever() == 0
        finally:
            killer.join(timeout=30.0)
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)

    def test_cli_serve_wires_the_app(self, tmp_path, serving_trace_dir,
                                     monkeypatch, capsys):
        from repro.cli import main
        seen: dict[str, object] = {}

        def fake_serve_forever(self, install_signals=True):
            seen["workers"] = len(self.workers)
            seen["traces"] = self.registry.names()
            self._server.server_close()
            return 0

        monkeypatch.setattr(ServiceApp, "serve_forever", fake_serve_forever)
        code = main(["serve", "--root", str(tmp_path / "svc"), "--port", "0",
                     "--trace", f"canned={serving_trace_dir}", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "listening on" in out
        assert "traces=canned" in out
        assert seen == {"workers": 2, "traces": ["canned"]}

    def test_cli_serve_rejects_bad_trace_registration(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["serve", "--root", str(tmp_path / "svc"), "--port", "0",
                     "--trace", "no-equals-sign"])
        assert code == 2
        assert "expected NAME=DIR" in capsys.readouterr().err


def _journal_events(store: JobStore, event: str, job_id: str) -> list[dict]:
    return [line for line in store.journal_events()
            if line["event"] == event and line["job_id"] == job_id]


def _await_journal_event(store: JobStore, event: str, job_id: str,
                         timeout: float = 10.0) -> list[dict]:
    """The job's ``event`` journal lines, waiting up to ``timeout`` for one.

    Webhook delivery journals on its own thread, and only after the POST
    returns, so a receiver can hold the body before the line lands.
    """
    deadline = time.time() + timeout
    events = _journal_events(store, event, job_id)
    while not events and time.time() < deadline:
        time.sleep(0.02)
        events = _journal_events(store, event, job_id)
    return events


@pytest.fixture
def webhook_receiver():
    """A local HTTP sink recording every JSON body POSTed to it."""
    from http.server import BaseHTTPRequestHandler, HTTPServer

    received: list[dict] = []
    got_one = threading.Event()

    class Sink(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            received.append(json.loads(self.rfile.read(length)))
            got_one.set()
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Sink)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/hook"
    try:
        yield url, received, got_one
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)


class TestLeases:
    def test_claim_writes_a_lease_with_a_deadline(self, tmp_path):
        store = JobStore(tmp_path, lease_seconds=30.0)
        record, _ = store.submit(_record())
        store.claim_next("w")
        lease = store.read_lease(record.job_id)
        assert lease["worker"] == "w"
        assert lease["pid"] == os.getpid()
        assert lease["hostname"]
        assert lease["deadline_unix"] > time.time() + 20.0
        assert store.active_leases()[0]["job_id"] == record.job_id

    def test_heartbeat_extends_the_deadline(self, tmp_path):
        store = JobStore(tmp_path, lease_seconds=0.5)
        record, _ = store.submit(_record())
        running = store.claim_next("w")
        before = store.read_lease(record.job_id)["deadline_unix"]
        time.sleep(0.05)
        assert store.heartbeat(running)
        assert store.read_lease(record.job_id)["deadline_unix"] > before

    def test_heartbeat_refuses_a_lease_it_no_longer_owns(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())
        running = store.claim_next("w")
        # Another process re-leased the job out from under this worker.
        foreign = dict(store.read_lease(record.job_id),
                       worker="other", pid=os.getpid() + 1)
        (store.claims_dir / f"{record.job_id}.claim").write_text(
            json.dumps(foreign), encoding="utf-8")
        assert not store.heartbeat(running)
        assert store.read_lease(record.job_id)["worker"] == "other"

    def test_expired_lease_requeues_with_attempts_bumped(self, tmp_path):
        """The kill-the-worker core: a dead claimant's job is recovered."""
        zombie = JobStore(tmp_path, lease_seconds=0.2)
        record, _ = zombie.submit(_record())
        claimed = zombie.claim_next("zombie")
        assert claimed.state == STATE_RUNNING
        time.sleep(0.3)  # the zombie never heartbeats: the lease expires

        survivor = JobStore(tmp_path, lease_seconds=0.2)
        reclaimed = survivor.claim_next("survivor")
        assert reclaimed is not None
        assert reclaimed.job_id == record.job_id
        assert reclaimed.worker == "survivor"
        assert reclaimed.attempts == 2
        assert survivor.lease_expirations == 1
        expired = _journal_events(survivor, EVENT_LEASE_EXPIRED, record.job_id)
        assert expired and expired[0]["worker"] == "zombie"

        done = survivor.mark_done(reclaimed, {"ok": True})
        assert done.state == STATE_DONE
        assert done.attempts == 2

    def test_max_attempts_exhaustion_fails_as_worker_lost(self, tmp_path):
        store = JobStore(tmp_path, lease_seconds=0.1, max_attempts=2)
        record, _ = store.submit(_record())
        store.claim_next("w1")
        time.sleep(0.15)
        second = store.claim_next("w2")  # reclaim + re-claim: attempt 2 of 2
        assert second.attempts == 2
        time.sleep(0.15)
        store.refresh()  # second expiry exhausts max_attempts
        failed = store.get(record.job_id)
        assert failed.state == STATE_FAILED
        assert failed.error["code"] == CODE_WORKER_LOST
        assert "w2" in failed.error["message"]
        assert store.lease_expirations == 2
        assert len(_journal_events(store, EVENT_LEASE_EXPIRED,
                                   record.job_id)) == 2

    def test_stale_finisher_cannot_clobber_the_retry(self, tmp_path):
        stalled = JobStore(tmp_path, lease_seconds=0.1)
        record, _ = stalled.submit(_record())
        old_claim = stalled.claim_next("stalled")
        time.sleep(0.15)
        survivor = JobStore(tmp_path, lease_seconds=30.0)
        retry = survivor.claim_next("survivor")
        assert retry.attempts == 2
        # The stalled worker wakes up and tries to finish attempt 1.
        outcome = stalled.mark_done(old_claim, {"stale": True})
        assert outcome.state == STATE_RUNNING  # the retry, untouched
        assert outcome.attempts == 2
        # ... and it did not strip the survivor's lease.
        assert survivor.read_lease(record.job_id)["worker"] == "survivor"
        done = survivor.mark_done(retry, {"ok": True})
        assert done.result == {"ok": True}

    def test_stale_finisher_cannot_resurrect_a_worker_lost_job(self, tmp_path):
        """Regression: a worker-lost FAILED record keeps ``attempts``
        unchanged, so the attempts guard alone let a stalled-but-alive
        worker flip failed → done; terminal records must stay final."""
        store = JobStore(tmp_path, lease_seconds=0.1, max_attempts=1)
        record, _ = store.submit(_record())
        claimed = store.claim_next("stalled")
        time.sleep(0.15)
        store.refresh()  # the expiry exhausts max_attempts=1
        failed = store.get(record.job_id)
        assert failed.state == STATE_FAILED
        assert failed.error["code"] == CODE_WORKER_LOST
        # The stalled worker wakes up and completes its run anyway.
        outcome = store.mark_done(claimed, {"late": True})
        assert outcome.state == STATE_FAILED  # discarded, not applied
        current = store.get(record.job_id)
        assert current.state == STATE_FAILED
        assert current.result is None
        assert current.error["code"] == CODE_WORKER_LOST
        assert _journal_events(store, "stale_finish", record.job_id)

    def test_refresh_skips_rereading_terminal_records(self, tmp_path,
                                                      monkeypatch):
        store = JobStore(tmp_path)
        for tag in ("a", "b", "c"):
            store.submit(_record(tag * 32, submitted_unix=1.0))
            store.mark_done(store.claim_next("w"), {"ok": tag})
        store.submit(_record("d" * 32, submitted_unix=2.0))
        reads = []
        original = JobStore._read

        def counting_read(self, path):
            reads.append(path.name)
            return original(self, path)

        monkeypatch.setattr(JobStore, "_read", counting_read)
        # Fleet polling is O(non-terminal jobs): the three immutable done
        # records are served from the index, only the queued one re-reads.
        store.refresh()
        assert reads == ["d" * 32 + ".json"]

    def test_wait_for_terminal_returns_on_in_process_finish(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())

        def finish_soon() -> None:
            time.sleep(0.2)
            store.mark_done(store.claim_next("w"), {"ok": True})

        finisher = threading.Thread(target=finish_soon)
        started = time.monotonic()
        finisher.start()
        try:
            done = store.wait_for_terminal(record.job_id, timeout=30.0)
        finally:
            finisher.join()
        elapsed = time.monotonic() - started
        assert done.state == STATE_DONE
        assert 0.15 <= elapsed < 5.0

    def test_wait_for_terminal_sees_a_finish_between_check_and_wait(
            self, tmp_path, monkeypatch):
        """Regression: a finish that lands after the waiter read the
        record but before it parked used to cost a full poll tick."""
        store = JobStore(tmp_path)
        record, _ = store.submit(_record())
        running = store.claim_next("w")
        real_get = JobStore.get

        def get_then_finish(self, job_id):
            current = real_get(self, job_id)
            if current.state == STATE_RUNNING:
                store.mark_done(running, {"ok": True})
            return current

        monkeypatch.setattr(JobStore, "get", get_then_finish)
        started = time.monotonic()
        done = store.wait_for_terminal(record.job_id, timeout=5.0)
        elapsed = time.monotonic() - started
        assert done.state == STATE_DONE
        assert elapsed < 0.1


class TestWorkerFleetRecovery:
    @pytest.fixture
    def recovery_app(self, serving_trace_dir, tmp_path):
        """A no-worker app whose store reclaims after a 0.3s lease."""
        with ServiceApp(tmp_path / "svc", workers=0, lease_seconds=0.3,
                        traces={"canned": serving_trace_dir}) as app:
            yield app

    def test_killed_worker_job_is_rerun_to_completion(self, recovery_app):
        """Acceptance path: SIGKILLed claimant → survivor re-runs the job."""
        app = recovery_app
        client = ServiceClient(app.url)
        submitted = client.submit(SWEEP_BODY)
        job_id = submitted["job"]["job_id"]

        # A separate store on the same root claims the job and then "dies"
        # without heartbeating — exactly what a SIGKILLed `repro-lumos
        # work` process leaves behind: a running record and a stale lease.
        zombie = JobStore(app.root, lease_seconds=0.3)
        assert zombie.claim_next("zombie").job_id == job_id
        assert client.job(job_id)["state"] == STATE_RUNNING
        time.sleep(0.4)

        # The surviving in-process worker reclaims and completes it.
        _drain(app)
        job = client.job(job_id)
        assert job["state"] == STATE_DONE
        assert job["attempts"] == 2
        assert _journal_events(app.store, EVENT_LEASE_EXPIRED, job_id)
        metrics = client.metrics()
        assert metrics["counters"]["service.leases.expired"] >= 1.0
        result = validate_result_payload(client.result(job_id)["result"])
        assert result["kind"] == "sweep"

    def test_metricz_alone_recovers_an_expired_lease(self, recovery_app):
        # Even with every worker parked, scraping /v1/metricz refreshes
        # the store and requeues the abandoned job.
        app = recovery_app
        client = ServiceClient(app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        JobStore(app.root, lease_seconds=0.3).claim_next("zombie")
        time.sleep(0.4)
        metrics = client.metrics()
        assert metrics["counters"]["service.leases.expired"] >= 1.0
        job = client.job(job_id)
        assert job["state"] == STATE_QUEUED
        assert job["attempts"] == 2

    def test_fleet_process_drains_a_shared_root(self, recovery_app,
                                                serving_trace_dir):
        app = recovery_app
        client = ServiceClient(app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        fleet = WorkerFleet(app.root, traces={"canned": serving_trace_dir},
                            cache_root=app.cache_root, workers=1,
                            lease_seconds=30.0)
        stop = threading.Event()
        runner = threading.Thread(target=fleet.run, args=(stop,))
        runner.start()
        try:
            job = client.wait(job_id, timeout=120.0)
        finally:
            stop.set()
            runner.join(timeout=30.0)
        assert job["state"] == STATE_DONE
        assert fleet.jobs_processed == 1
        assert not runner.is_alive()

    def test_worker_lost_failure_delivers_the_webhook(
            self, serving_trace_dir, tmp_path, webhook_receiver):
        """Regression: the worker-lost terminal transition is produced by
        a reclaim, not a worker — subscribers must still hear about it."""
        url, received, got_one = webhook_receiver
        with ServiceApp(tmp_path / "svc", workers=0, lease_seconds=0.2,
                        max_attempts=1, webhook_hosts=("*",),
                        traces={"canned": serving_trace_dir}) as app:
            client = ServiceClient(app.url)
            job_id = client.submit(
                dict(SWEEP_BODY, webhook=url))["job"]["job_id"]
            zombie = JobStore(app.root, lease_seconds=0.2)
            assert zombie.claim_next("zombie").job_id == job_id
            time.sleep(0.3)
            client.metrics()  # the metricz refresh reclaims → worker-lost
            assert got_one.wait(timeout=30.0)
            delivered = received[0]["job"]
            assert delivered["job_id"] == job_id
            assert delivered["state"] == STATE_FAILED
            assert delivered["error"]["code"] == CODE_WORKER_LOST
            events = _await_journal_event(app.store, "webhook_delivered", job_id)
            assert events and events[0]["url"] == url

    def test_cli_work_wires_the_fleet(self, tmp_path, serving_trace_dir,
                                      monkeypatch, capsys):
        from repro.cli import main
        seen: dict[str, object] = {}

        def fake_run(self, stop=None, install_signals=False):
            seen["workers"] = len(self.workers)
            seen["lease"] = self.store.lease_seconds
            seen["signals"] = install_signals
            return 0

        monkeypatch.setattr(WorkerFleet, "run", fake_run)
        code = main(["work", "--root", str(tmp_path / "svc"),
                     "--trace", f"canned={serving_trace_dir}",
                     "--workers", "2", "--lease-seconds", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worker fleet draining" in out
        assert seen == {"workers": 2, "lease": 5.0, "signals": True}


class TestEventDrivenCompletion:
    def test_wait_param_long_polls_until_terminal(self, manual_app):
        client = ServiceClient(manual_app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]

        def drain_soon() -> None:
            time.sleep(0.3)
            _drain(manual_app)

        drainer = threading.Thread(target=drain_soon)
        started = time.monotonic()
        drainer.start()
        try:
            job = client.job(job_id, wait=30.0)
        finally:
            drainer.join()
        assert job["state"] == STATE_DONE
        assert time.monotonic() - started >= 0.25

    def test_wait_param_expires_with_the_job_still_queued(self, manual_app):
        client = ServiceClient(manual_app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        job = client.job(job_id, wait=0.2)
        assert job["state"] == STATE_QUEUED

    def test_bad_wait_param_is_bad_request(self, manual_app):
        client = ServiceClient(manual_app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{job_id}?wait=soon")
        assert excinfo.value.code == CODE_BAD_REQUEST

    def test_webhook_fires_on_completion(self, manual_app, webhook_receiver):
        url, received, got_one = webhook_receiver
        client = ServiceClient(manual_app.url)
        job_id = client.submit(dict(SWEEP_BODY, webhook=url))["job"]["job_id"]
        _drain(manual_app)
        assert got_one.wait(timeout=30.0)
        delivered = received[0]["job"]
        assert delivered["job_id"] == job_id
        assert delivered["state"] == STATE_DONE
        events = _await_journal_event(manual_app.store, "webhook_delivered",
                                      job_id)
        assert events and events[0]["url"] == url

    def test_webhook_fires_on_cancel(self, manual_app, webhook_receiver):
        url, received, got_one = webhook_receiver
        client = ServiceClient(manual_app.url)
        job_id = client.submit(dict(SWEEP_BODY, webhook=url))["job"]["job_id"]
        client.cancel(job_id)
        assert got_one.wait(timeout=30.0)
        assert received[0]["job"]["state"] == STATE_CANCELLED

    def test_webhook_failure_is_journaled_not_raised(self, manual_app):
        client = ServiceClient(manual_app.url)
        job_id = client.submit(
            dict(SWEEP_BODY, webhook="http://127.0.0.1:9/hook"))["job"]["job_id"]
        _drain(manual_app)
        record = manual_app.store.get(job_id)
        assert record.state == STATE_DONE
        assert not deliver_webhook(manual_app.store, record,
                                   metrics=manual_app.metrics,
                                   tries=2, backoff=0.01, timeout=1.0)
        events = _journal_events(manual_app.store, "webhook_failed", job_id)
        assert events and "error" in events[0]
        snapshot = manual_app.metrics.snapshot()
        assert snapshot["counters"]["service.webhooks.failed"] >= 1.0

    def test_webhook_survives_dedupe_with_first_one_winning(self, manual_app):
        client = ServiceClient(manual_app.url)
        first = client.submit(dict(SWEEP_BODY, webhook="http://a.example/h"))
        second = client.submit(dict(SWEEP_BODY, webhook="http://b.example/h"))
        assert second["deduped"]
        assert first["job"]["job_id"] == second["job"]["job_id"]
        record = manual_app.store.get(first["job"]["job_id"])
        assert record.webhook == "http://a.example/h"


class TestWebhookPolicy:
    """Webhooks are POSTs from the service's network: off by default."""

    @pytest.fixture
    def strict_app(self, serving_trace_dir, tmp_path):
        """A server with the default (no-webhooks) policy."""
        with ServiceApp(tmp_path / "svc", workers=0,
                        traces={"canned": serving_trace_dir}) as app:
            yield app

    def test_webhooks_are_refused_by_default(self, strict_app):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(strict_app.url).submit(
                dict(SWEEP_BODY, webhook="http://169.254.169.254/latest"))
        assert excinfo.value.code == CODE_BAD_REQUEST
        assert excinfo.value.status == 400
        assert "--allow-webhooks" in str(excinfo.value)
        # The submission was refused outright, never admitted.
        assert strict_app.store.queue_depth() == 0

    def test_webhook_host_allowlist(self, serving_trace_dir, tmp_path):
        with ServiceApp(tmp_path / "svc", workers=0,
                        webhook_hosts=("hooks.example",),
                        traces={"canned": serving_trace_dir}) as app:
            client = ServiceClient(app.url)
            admitted = client.submit(
                dict(SWEEP_BODY, webhook="https://HOOKS.example/done"))
            assert admitted["job"]["webhook"] == "https://HOOKS.example/done"
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    dict(SWEEP_BODY, webhook="http://127.0.0.1:9/hook"))
            assert excinfo.value.code == CODE_BAD_REQUEST
            assert "allowlist" in str(excinfo.value)

    def test_strict_server_skips_delivery_of_foreign_records(
            self, strict_app, webhook_receiver):
        # A laxer server sharing the root admitted a webhook-carrying
        # record; the strict server's own policy still gates delivery.
        url, received, got_one = webhook_receiver
        _, bundle_hash = strict_app.registry.resolve("canned")
        record = JobRecord(job_id="f" * 32, kind="sweep", trace="canned",
                           bundle_hash=bundle_hash, payload={"x": 1},
                           webhook=url)
        strict_app.store.submit(record)
        strict_app.store.cancel(record.job_id)
        assert not got_one.wait(timeout=0.5)
        assert not received
        assert not _journal_events(strict_app.store, "webhook_delivered",
                                   record.job_id)

    def test_cli_serve_webhook_flags(self, tmp_path, monkeypatch):
        from repro.cli import main
        seen: dict[str, object] = {}

        def fake_serve_forever(self, install_signals=True):
            seen["hosts"] = self.webhook_hosts
            self._server.server_close()
            return 0

        monkeypatch.setattr(ServiceApp, "serve_forever", fake_serve_forever)
        assert main(["serve", "--root", str(tmp_path / "a"), "--port", "0"]) == 0
        assert seen["hosts"] is None
        assert main(["serve", "--root", str(tmp_path / "b"), "--port", "0",
                     "--allow-webhooks"]) == 0
        assert seen["hosts"] == ("*",)
        assert main(["serve", "--root", str(tmp_path / "c"), "--port", "0",
                     "--webhook-host", "hooks.example",
                     "--webhook-host", "other.example"]) == 0
        assert seen["hosts"] == ("hooks.example", "other.example")


class TestClientRetries:
    def test_get_retries_a_transient_network_error(self, manual_app,
                                                   monkeypatch):
        import urllib.request as urllib_request
        from urllib.error import URLError
        real = urllib_request.urlopen
        failures = {"left": 2}

        def flaky(request, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise URLError("connection dropped")
            return real(request, **kwargs)

        monkeypatch.setattr(urllib_request, "urlopen", flaky)
        assert ServiceClient(manual_app.url).health()["status"] == "ok"
        assert failures["left"] == 0

    def test_get_gives_up_after_capped_retries(self, manual_app, monkeypatch):
        import urllib.request as urllib_request
        from urllib.error import URLError
        calls = {"n": 0}

        def dead(request, **kwargs):
            calls["n"] += 1
            raise URLError("still down")

        monkeypatch.setattr(urllib_request, "urlopen", dead)
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(manual_app.url).health()
        assert excinfo.value.code == "unavailable"
        assert calls["n"] == 3

    def test_post_is_never_retried(self, manual_app, monkeypatch):
        import urllib.request as urllib_request
        from urllib.error import URLError
        calls = {"n": 0}

        def dead(request, **kwargs):
            calls["n"] += 1
            raise URLError("still down")

        monkeypatch.setattr(urllib_request, "urlopen", dead)
        with pytest.raises(ServiceError):
            ServiceClient(manual_app.url).submit(SWEEP_BODY)
        assert calls["n"] == 1

    def test_wait_backs_off_against_a_non_longpoll_server(self, manual_app,
                                                          monkeypatch):
        client = ServiceClient(manual_app.url)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        # Simulate a server that ignores ?wait= by answering instantly.
        monkeypatch.setattr(
            ServiceClient, "job",
            lambda self, job_id, wait=None: {"state": STATE_QUEUED})
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(ServiceError) as excinfo:
            client.wait(job_id, timeout=0.2, poll_interval=0.05)
        assert excinfo.value.code == "timeout"
        # Poll intervals doubled instead of hammering a fixed 0.1s
        # (later sleeps are clamped to the remaining deadline).
        assert sleeps[0] == pytest.approx(0.05)
        assert sleeps[1] == pytest.approx(0.1)


class TestWarmPath:
    """A warm job costs only its cache reads, and pickup is event-driven."""

    def test_warm_resubmissions_hash_no_bundle(self, manual_app, bundle_hashes):
        client = ServiceClient(manual_app.url)
        worker = Worker(manual_app.store, manual_app.registry,
                        manual_app.cache_root, metrics=manual_app.metrics)
        job_id = client.submit(SWEEP_BODY)["job"]["job_id"]
        assert worker.run_once()
        # Admission hashes the registered bundle once, the worker's study
        # once; every later job of that (bundle, base) study hashes none.
        assert len(bundle_hashes) == 2
        bundle_hashes.clear()
        for _ in range(2):
            assert client.submit(SWEEP_BODY)["job"]["job_id"] == job_id
            assert worker.run_once()
            assert client.result(job_id)["result"]["cache"]["hit_rate"] == 1.0
        assert bundle_hashes == []

    def test_idle_worker_claims_a_submit_without_waiting_a_poll(
            self, serving_trace_dir, tmp_path):
        app = ServiceApp(tmp_path / "svc", workers=1, poll_interval=5.0,
                         traces={"canned": serving_trace_dir}).start()
        try:
            client = ServiceClient(app.url)
            time.sleep(0.2)  # the worker found the queue empty and parked
            job_id = client.submit({"kind": "predict", "trace": "canned",
                                    "target": "batch=4"})["job"]["job_id"]
            job = client.wait(job_id, timeout=120.0)
            assert job["state"] == STATE_DONE
            assert job["started_unix"] - job["submitted_unix"] < 1.0
        finally:
            started = time.monotonic()
            app.stop()
            stopped = time.monotonic() - started
        assert stopped < 5.0

    def test_many_workers_claim_every_job_exactly_once(self, tmp_path,
                                                       monkeypatch):
        """Stress: more worker threads than cores, frequent thread
        switches, concurrent submitters; no job is lost or run twice."""
        claims: list[str] = []
        claims_lock = threading.Lock()

        def evaluate(self, record):
            with claims_lock:
                claims.append(record.job_id)
            return {"ok": True}, {"hit_rate": 1.0}

        monkeypatch.setattr(Worker, "_evaluate", evaluate)
        store = JobStore(tmp_path / "svc")
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        workers = [Worker(store, TraceRegistry(), str(tmp_path / "cache"),
                          worker_id=f"worker-{index}", poll_interval=2.0)
                   for index in range(cores + 2)]
        job_ids = [f"{index:032x}" for index in range(120)]
        stop = threading.Event()
        threads = [threading.Thread(target=worker.run_forever, args=(stop,))
                   for worker in workers]

        def submit(ids: list[str]) -> None:
            for job_id in ids:
                store.submit(_record(job_id))

        submitters = [threading.Thread(target=submit, args=(job_ids[k::3],))
                      for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads + submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60.0)
            deadline = time.monotonic() + 60.0
            while len(claims) < len(job_ids) and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            stop.set()
            store.queued.bump()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + submitters)
        assert sorted(claims) == job_ids
        assert all(store.get(job_id).state == STATE_DONE for job_id in job_ids)
        claimed = [line["job_id"] for line in store.journal_events()
                   if line["event"] == "claim"]
        assert sorted(claimed) == job_ids


class TestIdleFleetMetrics:
    def test_idle_workers_report_zero_busy(self, serving_trace_dir, tmp_path):
        """Regression: polling an empty queue is idleness, not work."""
        with ServiceApp(tmp_path / "svc", workers=2,
                        traces={"canned": serving_trace_dir}) as app:
            time.sleep(0.3)  # plenty of empty poll cycles
            metrics = ServiceClient(app.url).metrics()
            assert metrics["gauges"]["service.busy_workers"] == 0.0
            assert metrics["gauges"]["service.queue_depth"] == 0.0

    def test_queue_depth_returns_to_zero_after_drain(self, manual_app):
        client = ServiceClient(manual_app.url)
        client.submit(SWEEP_BODY)
        assert client.metrics()["gauges"]["service.queue_depth"] == 1.0
        _drain(manual_app)
        metrics = client.metrics()
        assert metrics["gauges"]["service.queue_depth"] == 0.0
        # The worker's own gauge update agrees with the store-backed one.
        assert manual_app.metrics.snapshot()[
            "gauges"]["service.queue_depth"] == 0.0

    def test_busy_gauge_rises_only_while_a_job_runs(self, manual_app):
        client = ServiceClient(manual_app.url)
        client.submit(SWEEP_BODY)
        observed: list[float] = []
        worker = Worker(manual_app.store, manual_app.registry,
                        manual_app.cache_root, metrics=manual_app.metrics)
        original = worker._evaluate

        def spying_evaluate(record):
            observed.append(manual_app.metrics.snapshot()[
                "gauges"]["service.busy_workers"])
            return original(record)

        worker._evaluate = spying_evaluate
        assert worker.run_once()
        assert observed == [1.0]
        assert manual_app.metrics.snapshot()[
            "gauges"]["service.busy_workers"] == 0.0

    def test_worker_liveness_gauge_is_exported(self, serving_trace_dir,
                                               tmp_path):
        with ServiceApp(tmp_path / "svc", workers=1,
                        traces={"canned": serving_trace_dir}) as app:
            deadline = time.time() + 10.0
            name = "service.worker.worker-0.alive_unix"
            while time.time() < deadline:
                gauges = app.metrics.snapshot()["gauges"]
                if gauges.get(name, 0.0) > 0.0:
                    break
                time.sleep(0.02)
            assert app.metrics.snapshot()["gauges"][name] > 0.0
