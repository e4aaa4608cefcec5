"""End-to-end tests for continuous-batching serving realism.

The tentpole path: emulate a serving *stream* (seeded Poisson arrivals,
FCFS continuous batching) → the trace carries a :class:`StreamPlan` →
replay/predict score it with per-request :class:`ServingMetrics` (TTFT,
latency percentiles, tokens/s, SLO goodput) → what-ifs and sweeps thread
those metrics through, and the timeline export grows per-request tracks.

Scale note: the stream model is widened (``d_model=4096``) so prefill
kernels clear the launch overhead — at the default tiny scale the episode
is launch-bound and serving knobs cannot move the critical path.
"""

from __future__ import annotations

import pytest

from repro import ServingMetrics, Study
from repro.api import PredictError
from repro.core.manipulation.serving import REFUSE_STREAM_BATCH
from repro.core.serving_metrics import (
    RequestMetrics,
    metrics_from_task_times,
    sample_tokens,
    stream_plan_of,
)
from repro.core.whatif import evaluate_scenarios, scenario_for
from repro.emulator.inference_builder import InferenceProgramBuilder
from repro.observability import (
    serving_request_events,
    timeline_json,
    tracing,
    validate_chrome_trace,
)
from repro.workload.arrivals import STREAM_METADATA_KEY, StreamPlan, parse_arrival
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from tests.conftest import tiny_model

ARRIVAL = "poisson:rate=600,n=6,seed=3"
STREAM_INFERENCE = InferenceConfig(batch_size=4, prompt_length=512,
                                   decode_length=2,
                                   arrival=parse_arrival(ARRIVAL))


def stream_model():
    return tiny_model(n_layers=2, d_model=4096, name="tiny-stream")


@pytest.fixture(scope="module")
def stream_study():
    return Study.from_emulation(stream_model(), "2x1x1",
                                inference=STREAM_INFERENCE,
                                iterations=1, seed=7)


class TestStreamPlanInTrace:
    def test_plan_travels_in_graph_metadata(self, stream_study):
        plan = stream_study.stream_plan
        assert isinstance(plan, StreamPlan)
        assert plan.arrival == STREAM_INFERENCE.arrival
        assert stream_study.base_graph.metadata[STREAM_METADATA_KEY] == plan.to_json()

    def test_plan_survives_trace_save_and_load(self, stream_study, tmp_path):
        from repro.trace.kineto import TraceBundle

        stream_study.trace.save(tmp_path / "stream")
        reopened = Study.from_trace(TraceBundle.load(tmp_path / "stream"))
        assert reopened.stream_plan == stream_study.stream_plan

    def test_admission_respects_the_batch_cap(self, stream_study):
        plan = stream_study.stream_plan
        cap = STREAM_INFERENCE.batch_size
        assert all(len(chunk) <= cap for chunk in plan.chunk_requests)
        assert all(len(step) <= cap for step in plan.step_requests)
        assert plan.max_step_batch <= cap

    def test_step_batches_vary_over_the_episode(self, stream_study):
        # The point of continuous batching: the decode batch grows and
        # shrinks with arrivals/completions instead of staying fixed.
        sizes = {len(step) for step in stream_study.stream_plan.step_requests}
        assert len(sizes) > 1

    def test_every_request_decodes_its_full_horizon(self, stream_study):
        plan = stream_study.stream_plan
        for schedule in plan.requests:
            assert schedule.num_decode_steps == STREAM_INFERENCE.decode_length
            assert schedule.request in plan.chunk_requests[schedule.prefill_chunk]
            for step in range(schedule.first_step, schedule.last_step + 1):
                assert schedule.request in plan.step_requests[step]

    def test_same_seed_reproduces_the_episode(self, stream_study):
        again = Study.from_emulation(stream_model(), "2x1x1",
                                     inference=STREAM_INFERENCE,
                                     iterations=1, seed=7)
        assert again.stream_plan == stream_study.stream_plan
        assert again.base_time_us == stream_study.base_time_us


class TestFixedEpisodeIsOneChunk:
    """A fixed-batch episode is the stream whose requests all arrive at once."""

    @pytest.mark.parametrize("model,tp,batch,prompt,decode", [
        (tiny_model(), 1, 1, 16, 3),
        (tiny_model(), 2, 8, 512, 4),
        (stream_model(), 2, 3, 128, 2),
        (gpt3_model("gpt3-15b"), 4, 8, 256, 3),
    ], ids=["tiny-tp1-b1", "tiny-tp2-b8", "wide-tp2-b3", "gpt3-15b-tp4-b8"])
    def test_fixed_episode_equals_all_at_once_stream(self, model, tp, batch,
                                                     prompt, decode):
        fixed = InferenceConfig(batch_size=batch, prompt_length=prompt,
                                decode_length=decode)
        at_once = InferenceConfig(batch_size=batch, prompt_length=prompt,
                                  decode_length=decode,
                                  arrival=parse_arrival("trace:" + ",".join(["0"] * batch)))
        parallel = ParallelismConfig(tensor_parallel=tp)
        fixed_builder = InferenceProgramBuilder(model, parallel, fixed)
        stream_builder = InferenceProgramBuilder(model, parallel, at_once)

        plan = stream_builder.stream_plan
        assert plan == StreamPlan.one_chunk(batch, decode)
        assert [len(chunk) for chunk in plan.chunk_requests] == [batch]
        assert [plan.step_contexts(prompt, step) for step in range(plan.num_steps)] \
            == [(prompt + step,) * batch for step in range(decode)]
        assert plan.items == (("prefill", 0),) + tuple(
            ("decode", step) for step in range(decode))

        # The emitted programs are the same instructions in the same order;
        # only the tokenization charge differs (whole batch up front vs per
        # admitted request).
        def split(builder):
            instructions = builder.build()[0].instructions
            tokenize = [i.duration_us for i in instructions
                        if getattr(i, "name", None) == "tokenize_prompts"]
            rest = [i for i in instructions
                    if getattr(i, "name", None) != "tokenize_prompts"]
            return tokenize, rest

        fixed_tokenize, fixed_rest = split(fixed_builder)
        stream_tokenize, stream_rest = split(stream_builder)
        assert fixed_rest == stream_rest
        assert fixed_tokenize == [350.0]
        assert stream_tokenize == [45.0 * batch]


class TestServingMetricsMath:
    """Hand-computed two-request episode: every aggregate checked by hand."""

    @pytest.fixture()
    def metrics(self):
        return ServingMetrics(
            requests=(
                RequestMetrics(request=0, arrival_us=0.0, first_token_us=2000.0,
                               completion_us=4000.0, tokens=3),
                RequestMetrics(request=1, arrival_us=1000.0, first_token_us=5000.0,
                               completion_us=8000.0, tokens=3),
            ),
            deadline_ms=6.0)

    def test_per_request_derivations(self, metrics):
        first, second = metrics.requests
        assert first.ttft_ms == 2.0 and second.ttft_ms == 4.0
        assert first.latency_ms == 4.0 and second.latency_ms == 7.0

    def test_percentiles_interpolate_linearly(self, metrics):
        assert metrics.ttft_p50_ms == pytest.approx(3.0)
        assert metrics.ttft_p99_ms == pytest.approx(2.0 + 2.0 * 0.99)
        assert metrics.latency_p50_ms == pytest.approx(5.5)
        assert metrics.latency_p99_ms == pytest.approx(4.0 + 3.0 * 0.99)

    def test_throughput_and_goodput(self, metrics):
        # Episode: first arrival (0) to last completion (8000 µs) = 8 ms.
        assert metrics.episode_us == 8000.0
        assert metrics.tokens_per_s == pytest.approx(6 / 0.008)
        assert metrics.request_throughput_rps == pytest.approx(250.0)
        # Only request 0 (4 ms) meets the 6 ms deadline.
        assert metrics.slo_attainment == 0.5
        assert metrics.goodput_rps == pytest.approx(125.0)

    def test_json_payload_matches_properties(self, metrics):
        payload = metrics.to_json()
        assert payload["num_requests"] == 2
        assert payload["goodput_rps"] == pytest.approx(metrics.goodput_rps)
        assert payload["deadline_ms"] == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingMetrics(requests=())
        with pytest.raises(ValueError):
            ServingMetrics(requests=(RequestMetrics(0, 0.0, 1.0, 2.0, 1),),
                           deadline_ms=0.0)

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf")])
    def test_deadline_must_be_finite(self, deadline_ms):
        with pytest.raises(ValueError, match="positive finite"):
            ServingMetrics(requests=(RequestMetrics(0, 0.0, 1.0, 2.0, 1),),
                           deadline_ms=deadline_ms)


class TestBaseServingMetrics:
    def test_episode_summary(self, stream_study):
        metrics = stream_study.base_serving_metrics()
        assert metrics.num_requests == 6
        # prefill token + one per decode step, per request.
        assert metrics.tokens_generated == 6 * (STREAM_INFERENCE.decode_length + 1)
        assert all(r.ttft_us > 0 for r in metrics.requests)
        assert all(r.latency_us >= r.ttft_us for r in metrics.requests)
        assert metrics.goodput_rps == pytest.approx(
            metrics.request_throughput_rps * metrics.slo_attainment)

    def test_deadline_changes_attainment_not_timings(self, stream_study):
        loose = stream_study.base_serving_metrics()
        tight = stream_study.base_serving_metrics(deadline_ms=0.001)
        assert tight.requests == loose.requests
        assert tight.slo_attainment == 0.0
        assert tight.goodput_rps == 0.0

    def test_dense_array_path_is_bit_identical(self, stream_study):
        # Every path scores the run's dense (tasks, starts, durations)
        # arrays; scoring them in scheduling order instead must agree
        # exactly.
        run = stream_study.replay().run
        plan = stream_study.stream_plan
        order = run.finalize_order.tolist()
        from_schedule = metrics_from_task_times(
            sample_tokens([run.compiled.tasks[index] for index in order]),
            run.starts[order], run.durations[order], plan)
        from_arrays = metrics_from_task_times(
            sample_tokens(run.compiled.tasks), run.starts, run.durations, plan)
        assert from_arrays == from_schedule

    def test_sample_index_matches_a_walk_over_every_task(self, stream_study):
        # The scores read the sample_token kernels found once; a walk over
        # every task's args, row by row, must give the same requests.
        run = stream_study.replay().run
        plan = stream_study.stream_plan
        anchor, sample_ends = None, {}
        for task, start, end in zip(run.compiled.tasks, run.starts.tolist(),
                                    run.ends.tolist()):
            anchor = start if anchor is None or start < anchor else anchor
            args = task.args
            if (args.get("op_name") == "sample_token"
                    and args.get("phase") in ("prefill", "decode")):
                key = (args["phase"], int(args.get("microbatch", 0)))
                sample_ends[key] = max(end, sample_ends.get(key, end))
        metrics = metrics_from_task_times(sample_tokens(run.compiled.tasks),
                                          run.starts, run.durations, plan)
        assert [(r.arrival_us, r.first_token_us, r.completion_us)
                for r in metrics.requests] == [
            (anchor + s.arrival_us, sample_ends[("prefill", s.prefill_chunk)],
             sample_ends[("decode", s.last_step)]) for s in plan.requests]

    def test_training_study_has_no_stream(self):
        study = Study.from_emulation(tiny_model(), "2x1x1", iterations=1, seed=5)
        assert study.stream_plan is None
        assert study.base_serving_metrics() is None
        assert stream_plan_of(study.base_graph.metadata) is None


class TestStreamPredictions:
    def test_serving_retiming_rescales_the_stream(self, stream_study):
        base = stream_study.base_serving_metrics()
        prediction = stream_study.predict("serving:prompt=1024")
        assert prediction.is_stream
        metrics = prediction.serving_metrics()
        assert metrics is not None
        # Longer prompts: slower prefill, so strictly worse TTFT.
        assert metrics.ttft_p99_ms > base.ttft_p99_ms
        assert metrics.latency_p99_ms != base.latency_p99_ms

    def test_tp_retiming_differs_from_base(self, stream_study):
        metrics = stream_study.predict("serving:tp=1").serving_metrics()
        base = stream_study.base_serving_metrics()
        assert metrics.latency_p99_ms != base.latency_p99_ms

    def test_batch_cap_change_is_refused_with_code(self, stream_study):
        # The cap drives the admission schedule: re-timing cannot hold the
        # program fixed, so the manipulation refuses with a typed code.
        with pytest.raises(PredictError) as excinfo:
            stream_study.predict("serving:batch=2")
        assert excinfo.value.code == REFUSE_STREAM_BATCH
        assert "re-emulate" in str(excinfo.value)

    def test_training_targets_refused_on_stream_base(self, stream_study):
        with pytest.raises(PredictError, match="serving episode"):
            stream_study.predict("2x1x2")

    def test_non_stream_prediction_has_no_serving_metrics(self):
        study = Study.from_emulation(tiny_model(), "2x1x1", iterations=1, seed=5)
        prediction = study.predict("2x1x2")
        assert not prediction.is_stream
        assert prediction.serving_metrics() is None


class TestStreamWhatIf:
    def test_whatif_results_carry_serving_metrics(self, stream_study):
        fast, slow = (stream_study.whatif()
                      .kernel_class("gemm", 2.0)
                      .kernel_class("gemm", 0.5)
                      .run())
        assert fast.serving is not None and slow.serving is not None
        assert fast.serving.latency_p99_ms <= slow.serving.latency_p99_ms
        assert fast.serving.goodput_rps >= slow.serving.goodput_rps

    def test_whatif_serving_matches_direct_scoring(self, stream_study):
        # An everything-at-1.0 scenario reproduces the base episode.
        result = stream_study.whatif().kernel_class("gemm", 1.0).run()[0]
        assert result.serving == stream_study.base_serving_metrics()

    def test_evaluate_scenarios_scores_against_the_deadline(self, stream_study):
        # evaluate_scenarios attaches the metrics itself, against deadline_ms.
        graph, _, session = stream_study.config_state(None)
        scenarios = [scenario_for("kernel_class", op_class="gemm", speedup=1.0)] * 2
        loose, tight = (evaluate_scenarios(graph, scenarios[:1], session=session,
                                           deadline_ms=deadline)[0]
                        for deadline in (None, 0.001))
        assert loose.serving == stream_study.base_serving_metrics()
        assert tight.serving == stream_study.base_serving_metrics(deadline_ms=0.001)
        batched = evaluate_scenarios(graph, [None, *scenarios], session=session)
        assert [result.serving for result in batched] == [loose.serving] * 3

    def test_training_whatif_has_no_serving(self):
        study = Study.from_emulation(tiny_model(), "2x1x1", iterations=1, seed=5)
        result = study.whatif().kernel_class("gemm", 2.0).run()[0]
        assert result.serving is None


class TestStreamSweep:
    def test_sweep_threads_serving_metrics_and_ranks_by_goodput(self, stream_study):
        sweep = stream_study.sweep(serving=["prompt=1024"], whatif=["gemm:2"],
                                   slo_ms=8.0)
        assert all(r.serving is not None for r in sweep.results)
        assert all(r.serving["deadline_ms"] == 8.0 for r in sweep.results)
        from repro.sweep import rank_results

        ranked = rank_results(sweep.results)
        goodputs = [r.goodput_rps for r in ranked]
        assert goodputs == sorted(goodputs, reverse=True)

    def test_serving_report_table(self, stream_study):
        from repro.sweep import format_ranked_table

        sweep = stream_study.sweep(serving=["prompt=1024"], slo_ms=8.0)
        table = format_ranked_table(sweep.results)
        assert "goodput_rps" in table and "ttft_p99_ms" in table


class TestServingObservability:
    def test_metrics_recorded_into_active_profile(self, stream_study):
        with tracing.profile(label="serving") as prof:
            stream_study.base_serving_metrics()
        metrics = prof.report()["metrics"]
        assert metrics["histograms"]["serving.ttft_ms"]["count"] == 6
        assert metrics["histograms"]["serving.latency_ms"]["count"] == 6
        assert 0.0 <= metrics["gauges"]["serving.slo_attainment"] <= 1.0
        assert metrics["gauges"]["serving.goodput_rps"] > 0


class TestRequestTimelineTracks:
    def test_request_events_are_schema_valid(self, stream_study):
        metrics = stream_study.base_serving_metrics()
        payload = timeline_json([("replayed", stream_study.replay())],
                                serving=[("replayed", metrics)])
        events = validate_chrome_trace(payload)
        request_events = [e for e in events if e.get("cat") == "serving-request"]
        # Two complete events per request: queue+prefill and decode.
        assert len(request_events) == 2 * metrics.num_requests
        assert payload["otherData"]["request_tracks"] == ["replayed"]

    def test_track_spans_match_the_request_lifecycle(self, stream_study):
        metrics = stream_study.base_serving_metrics()
        events = serving_request_events(metrics, label="base", pid_base=0)
        first = metrics.requests[0]
        ttft_span = next(e for e in events if e["name"] == "queue+prefill"
                         and e["tid"] == first.request)
        decode_span = next(e for e in events if e["name"] == "decode"
                           and e["tid"] == first.request)
        assert ttft_span["ts"] == first.arrival_us
        assert ttft_span["dur"] == pytest.approx(first.ttft_us)
        assert decode_span["ts"] + decode_span["dur"] == \
            pytest.approx(first.completion_us)
