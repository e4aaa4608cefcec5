"""Tests for the inference (serving) workload family.

Covers the configuration layer (:class:`InferenceConfig`,
:class:`ServingTarget`), the decode operator decomposition, the
decode-attention cost model, the serving program builder / emulation path,
perf-model calibration of decode kernels, the serving graph manipulation,
and the :class:`Study` facade's serving workflow.
"""

from __future__ import annotations

import pytest

from repro.api import KIND_BASELINE, KIND_SERVING, PredictError, Study, StudyError
from repro.core.manipulation.serving import rescale_serving_graph
from repro.core.perf_model import KernelPerfModel
from repro.emulator.api import emulate
from repro.emulator.inference_builder import InferenceProgramBuilder
from repro.kernels.decode import decode_attention_time_us
from repro.kernels.registry import KernelCostModel
from repro.workload.inference import (
    InferenceConfig,
    ServingTarget,
    decode_head_ops,
    decode_layer_ops,
    prefill_layer_ops,
)
from repro.sweep import SweepSpecError
from repro.workload.arrivals import StreamPlan
from repro.workload.operators import OpClass, layer_forward_ops
from repro.workload.parallelism import ParallelismConfig
from tests.conftest import tiny_model

# Large enough that decode kernels (the KV sweep above all) clear the
# launch overhead — at smaller scales the episode is genuinely
# launch-bound and kernel-shape knobs cannot move the critical path.
TINY_INFERENCE = InferenceConfig(batch_size=8, prompt_length=512, decode_length=4)
TP2 = ParallelismConfig(tensor_parallel=2)


def fixed_contexts(step: int) -> tuple[int, ...]:
    """The in-flight KV contexts of decode step ``step`` of the fixed episode."""
    plan = StreamPlan.one_chunk(TINY_INFERENCE.batch_size, TINY_INFERENCE.decode_length)
    return plan.step_contexts(TINY_INFERENCE.prompt_length, step)


@pytest.fixture(scope="module")
def serving_study():
    return Study.from_emulation(tiny_model(), "2x1x1", inference=TINY_INFERENCE,
                                iterations=2, seed=21)


class TestInferenceConfig:
    def test_defaults_are_valid(self):
        config = InferenceConfig()
        assert config.dtype_bytes == 2
        assert config.kv_dtype_bytes == 2

    @pytest.mark.parametrize("kwargs", [
        dict(batch_size=0), dict(prompt_length=0), dict(decode_length=-1),
        dict(dtype="int8"), dict(kv_dtype="int4"),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InferenceConfig(**kwargs)

    def test_fp8_kv_cache_halves_the_footprint(self):
        model = tiny_model()
        bf16 = TINY_INFERENCE.kv_cache_bytes(model, TP2)
        fp8 = TINY_INFERENCE.with_changes().__class__(
            **{**TINY_INFERENCE.to_json(), "kv_dtype": "fp8"}).kv_cache_bytes(model, TP2)
        assert fp8 == bf16 / 2

    def test_kv_cache_accounting(self):
        model = tiny_model()
        config = TINY_INFERENCE
        per_token_layer = config.kv_bytes_per_token_layer(model, TP2)
        # K and V, half the heads per TP=2 rank, 2 bytes per element.
        assert per_token_layer == 2 * (model.n_heads // 2) * model.d_head * 2
        total = config.kv_cache_bytes(model, TP2)
        context = config.prompt_length + config.decode_length
        assert total == config.batch_size * context * model.n_layers * per_token_layer
        assert config.kv_cache_gb(model, TP2) == total / 2**30

    def test_context_length_per_step(self):
        # The fixed episode's requests all decode every step, each over
        # the prompt plus the tokens decoded before that step.
        prompt, batch = TINY_INFERENCE.prompt_length, TINY_INFERENCE.batch_size
        assert fixed_contexts(0) == (prompt,) * batch
        assert fixed_contexts(3) == (prompt + 3,) * batch
        assert max(max(fixed_contexts(step))
                   for step in range(TINY_INFERENCE.decode_length)) == prompt + 3

    def test_prefill_training_shim_matches_forward_shapes(self):
        model = tiny_model()
        prefill = prefill_layer_ops(model, TP2, TINY_INFERENCE)
        forward = layer_forward_ops(model, TP2, TINY_INFERENCE.prefill_training())
        assert [(op.name, op.m, op.n, op.k) for op in prefill] == \
            [(op.name, op.m, op.n, op.k) for op in forward]
        assert all(op.metadata["phase"] == "prefill" for op in prefill)

    def test_json_roundtrip(self):
        config = InferenceConfig(batch_size=16, prompt_length=1024,
                                 decode_length=128, kv_dtype="fp8")
        assert InferenceConfig.from_json(config.to_json()) == config


class TestServingTarget:
    def test_parse_and_canonical_label(self):
        target = ServingTarget.parse("tp=4 , batch=16")
        assert target == ServingTarget(batch_size=16, tensor_parallel=4)
        assert target.label() == "batch=16,tp=4"

    def test_resolve_applies_only_named_knobs(self):
        config, parallel = ServingTarget.parse("prompt=256").resolve(
            TINY_INFERENCE, TP2)
        assert config.prompt_length == 256
        assert config.batch_size == TINY_INFERENCE.batch_size
        assert parallel == TP2

    def test_noop_detection(self):
        assert ServingTarget.parse("batch=8,tp=2").is_noop(TINY_INFERENCE, TP2)
        assert not ServingTarget.parse("batch=4").is_noop(TINY_INFERENCE, TP2)

    @pytest.mark.parametrize("label,match", [
        ("decode=128", "topology"),
        ("pp=2", "tensor parallelism"),
        ("dp=4", "tensor parallelism"),
        ("batch=0", "positive"),
        ("widgets=3", "unknown serving target key"),
        ("batch", "integer assignment"),
        ("", "empty serving target"),
        ("batch=4,batch=8", "duplicate"),
    ])
    def test_invalid_labels_rejected(self, label, match):
        with pytest.raises(ValueError, match=match):
            ServingTarget.parse(label)


class TestDecodeOps:
    def test_decode_gemms_are_skinny(self):
        for op in decode_layer_ops(tiny_model(), TP2, TINY_INFERENCE, fixed_contexts(0)):
            if op.op_class == OpClass.GEMM:
                assert op.m == TINY_INFERENCE.batch_size

    def test_decode_attention_context_grows_with_step(self):
        def attention(step):
            ops = decode_layer_ops(tiny_model(), TP2, TINY_INFERENCE,
                                   fixed_contexts(step))
            return next(op for op in ops
                        if op.op_class == OpClass.DECODE_ATTENTION)
        first, last = attention(0), attention(3)
        assert first.metadata["context"] == TINY_INFERENCE.prompt_length
        assert last.metadata["context"] == TINY_INFERENCE.prompt_length + 3
        assert last.bytes_accessed > first.bytes_accessed
        assert last.flops > first.flops

    def test_tp_emits_per_step_all_reduces(self):
        ops = decode_layer_ops(tiny_model(), TP2, TINY_INFERENCE, fixed_contexts(0))
        collectives = [op for op in ops if op.is_communication]
        assert [op.name for op in collectives] == [
            "tp_all_reduce_attn_decode", "tp_all_reduce_mlp_decode"]
        solo = decode_layer_ops(tiny_model(), ParallelismConfig(), TINY_INFERENCE,
                                fixed_contexts(0))
        assert not any(op.is_communication for op in solo)

    def test_head_gathers_logits_under_tp(self):
        ops = decode_head_ops(tiny_model(), TP2, TINY_INFERENCE, fixed_contexts(0))
        assert any(op.name == "tp_all_gather_logits" for op in ops)
        assert ops[-1].name == "sample_token"


class TestDecodeAttentionCostModel:
    def test_memory_bound_regime_scales_with_kv_bytes(self, small_cluster):
        gpu = small_cluster.gpu
        short = decode_attention_time_us(1e6, 1e7, gpu)
        long = decode_attention_time_us(2e6, 2e7, gpu)
        assert long > short
        # Doubling the sweep doubles the variable part exactly.
        assert long - gpu.kernel_fixed_overhead_us == pytest.approx(
            2 * (short - gpu.kernel_fixed_overhead_us))

    def test_negative_inputs_rejected(self, small_cluster):
        with pytest.raises(ValueError):
            decode_attention_time_us(-1.0, 1.0, small_cluster.gpu)

    def test_registry_dispatches_decode_attention(self, small_cluster):
        cost = KernelCostModel(small_cluster)
        op = next(op for op in decode_layer_ops(tiny_model(), TP2, TINY_INFERENCE,
                                                fixed_contexts(0))
                  if op.op_class == OpClass.DECODE_ATTENTION)
        expected = decode_attention_time_us(op.flops, op.bytes_accessed,
                                            small_cluster.gpu)
        assert cost.duration_us(op) == expected


class TestInferenceProgramBuilder:
    def test_single_representative_rank(self):
        programs = InferenceProgramBuilder(tiny_model(), TP2, TINY_INFERENCE).build()
        assert list(programs) == [0]

    def test_kernel_counts_match_decomposition(self):
        model = tiny_model()
        builder = InferenceProgramBuilder(model, TP2, TINY_INFERENCE)
        kernels = builder.build()[0].kernels()
        prefill = [k for k in kernels if k.phase == "prefill"]
        decode = [k for k in kernels if k.phase == "decode"]
        # 2 embedding + 12 per layer (incl. 2 all-reduces) + 4 head ops.
        assert len(prefill) == 2 + 12 * model.n_layers + 4
        # Per step: 1 embedding + 12 per layer + 4 head ops.
        assert len(decode) == TINY_INFERENCE.decode_length * (1 + 12 * model.n_layers + 4)

    def test_decode_attention_carries_analytical_inputs(self):
        kernels = InferenceProgramBuilder(tiny_model(), TP2, TINY_INFERENCE).build()[0].kernels()
        decode_attn = [k for k in kernels if k.op_class == OpClass.DECODE_ATTENTION]
        assert decode_attn
        assert all(k.bytes_accessed > 0 and k.flops > 0 for k in decode_attn)
        gemms = [k for k in kernels if k.op_class == OpClass.GEMM]
        assert all(k.bytes_accessed == 0 for k in gemms)

    def test_pipeline_parallel_rejected(self):
        with pytest.raises(ValueError, match="pipeline parallelism"):
            InferenceProgramBuilder(tiny_model(), ParallelismConfig(2, 2, 1),
                                    TINY_INFERENCE)


class TestServingEmulation:
    def test_metadata_identifies_the_workload(self, serving_study):
        metadata = serving_study.trace.metadata
        assert metadata["workload"] == "serving"
        assert InferenceConfig.from_json(metadata["inference"]) == TINY_INFERENCE

    def test_replay_matches_profiled_episode(self, serving_study):
        replayed = serving_study.replay().iteration_time_us
        profiled = serving_study.emulation.profiled.iteration_time()
        assert replayed == pytest.approx(profiled, rel=0.01)

    def test_calibration_covers_decode_attention(self, serving_study):
        model = KernelPerfModel.calibrate(serving_study.base_graph,
                                          serving_study.cluster)
        assert "decode_attention" in model.calibration
        assert "gemm" in model.calibration
        assert model.calibration["decode_attention"] > 0
        assert model.predict_decode_attention_us(1e6, 1e7) > 0

    def test_training_and_inference_are_exclusive(self):
        from repro.workload.training import TrainingConfig
        with pytest.raises(ValueError, match="not both"):
            emulate(tiny_model(), TP2, TrainingConfig(),
                    inference=TINY_INFERENCE)


class TestServingManipulation:
    def test_noop_target_rescales_to_identical_durations(self, serving_study):
        graph = serving_study.base_graph
        derived = rescale_serving_graph(
            graph, ServingTarget(batch_size=TINY_INFERENCE.batch_size),
            base_model=serving_study.base_model, base_parallel=serving_study.base_parallel,
            base_inference=TINY_INFERENCE, perf_model=serving_study.perf_model)
        assert len(derived) == len(graph)
        assert [t.duration for t in derived.graph.task_list()] == \
            [t.duration for t in graph.task_list()]

    def test_batch_scaling_grows_compute(self, serving_study):
        base = serving_study.base_time_us
        bigger = serving_study.predict("serving:batch=16")
        assert bigger.iteration_time_us > base
        assert bigger.kind == KIND_SERVING

    def test_prompt_scaling_grows_prefill_and_kv_sweep(self, serving_study):
        longer = serving_study.predict("serving:prompt=1024")
        assert longer.iteration_time_us > serving_study.base_time_us

    def test_tp_resharding_down_exposes_more_compute(self, serving_study):
        solo = serving_study.predict("serving:tp=1")
        assert solo.world_size == 1
        assert solo.iteration_time_us > serving_study.base_time_us

    def test_tp1_target_zeroes_the_collectives(self, serving_study):
        # The TP=1 decomposition has no collective ops to match against,
        # so the observed collectives must degenerate to empty tasks —
        # not silently keep their TP=2 durations.
        derived, _ = serving_study.derived_graph("serving:tp=1")
        comm = [t for t in derived.task_list()
                if t.kind.value == "gpu" and t.is_communication]
        assert comm
        assert all(t.duration == 0.0 for t in comm)
        assert all(t.args["group_size"] == 1 for t in comm)
        breakdown = serving_study.predict("serving:tp=1").breakdown()
        assert breakdown.exposed_communication == 0.0

    def test_tp_resharding_up_rescales_collectives(self, serving_study):
        wide = serving_study.predict("serving:tp=4")
        assert wide.world_size == 4
        derived, _ = serving_study.derived_graph("serving:tp=4")
        comm = [t for t in derived.task_list()
                if t.kind.value == "gpu" and t.is_communication]
        assert comm
        assert all(t.args["group_size"] == 4 for t in comm)

    def test_tp1_base_cannot_reshard_up(self):
        study = Study.from_emulation(tiny_model(), "1x1x1",
                                     inference=TINY_INFERENCE, iterations=1, seed=5)
        with pytest.raises(PredictError, match="no tensor-parallel collectives"):
            study.predict("serving:tp=2")

    def test_tp_must_divide_the_sharded_dimensions(self, serving_study):
        # tiny-gpt has 8 heads: tp=3 would model 2 of 2.67 heads per rank.
        with pytest.raises(PredictError, match="does not divide"):
            serving_study.predict("serving:tp=3")
        with pytest.raises(ValueError, match="does not divide"):
            InferenceProgramBuilder(tiny_model(), ParallelismConfig(3, 1, 1),
                                    TINY_INFERENCE)

    def test_training_trace_with_forced_inference_is_refused(self):
        # An inference= override on a training trace must not silently
        # "predict" the base time for every serving target.
        from repro.workload.training import TrainingConfig
        training = emulate(tiny_model(), TP2,
                           TrainingConfig(micro_batch_size=1, num_microbatches=2),
                           iterations=1, seed=3)
        study = Study.from_trace(training.profiled, model=tiny_model(),
                                 parallelism="2x1x1", inference=TINY_INFERENCE)
        with pytest.raises(PredictError, match="does not look like a serving"):
            study.predict("serving:batch=16")


class TestServingStudy:
    def test_workload_property(self, serving_study):
        assert serving_study.workload == "serving"
        assert Study(None, model=tiny_model(), parallelism="2x2x2").workload == "training"

    def test_noop_serving_target_is_the_baseline(self, serving_study):
        prediction = serving_study.predict("serving:batch=8,tp=2")
        assert prediction.kind == KIND_BASELINE
        assert prediction.iteration_time_us == serving_study.base_time_us

    def test_serving_metadata_without_inference_payload_is_refused(self, serving_study):
        from repro.trace.kineto import TraceBundle
        broken = TraceBundle(traces=dict(serving_study.trace.traces),
                             metadata={**serving_study.trace.metadata})
        del broken.metadata["inference"]
        with pytest.raises(StudyError, match="no inference configuration"):
            Study.from_trace(broken, model=tiny_model(), parallelism="2x1x1")

    def test_from_trace_recovers_serving_base(self, serving_study, tmp_path):
        serving_study.trace.save(tmp_path / "bundle")
        reopened = Study.from_trace(tmp_path / "bundle", model=tiny_model(),
                                    parallelism="2x1x1")
        assert reopened.inference == TINY_INFERENCE
        assert reopened.predict("serving:batch=4").iteration_time_us == \
            serving_study.predict("serving:batch=4").iteration_time_us

    def test_training_targets_rejected_on_serving_base(self, serving_study):
        with pytest.raises(PredictError, match="serving episode"):
            serving_study.predict("2x1x2")
        with pytest.raises(PredictError, match="serving episode"):
            serving_study.predict("model:gpt3-v1")

    def test_serving_targets_rejected_on_training_base(self, profiled_bundle):
        study = Study.from_trace(profiled_bundle, model=tiny_model(),
                                 parallelism="2x2x2")
        with pytest.raises(PredictError, match="training iteration"):
            study.predict("serving:batch=4")

    def test_pp_base_rejected_with_typed_error(self):
        with pytest.raises(StudyError, match="pipeline parallelism"):
            Study.from_emulation(tiny_model(), "1x2x1", inference=TINY_INFERENCE)

    def test_non_dividing_tp_base_rejected_with_typed_error(self):
        # tiny-gpt has 8 heads; the builder's divisibility check must
        # surface as the same typed error as the PP rejection.
        with pytest.raises(StudyError, match="does not divide"):
            Study.from_emulation(tiny_model(), "3x1x1", inference=TINY_INFERENCE)

    def test_malformed_serving_target_is_typed(self, serving_study):
        with pytest.raises(PredictError, match="unknown serving target key"):
            serving_study.predict("serving:bogus=1")

    def test_whatif_builder_on_serving_target(self, serving_study):
        results = (serving_study.whatif(target="serving:batch=4")
                   .kernel_class("decode_attention", 2.0)
                   .communication(2.0, group="tp")
                   .run())
        assert len(results) == 2
        assert all(r.affected_tasks > 0 for r in results)
        target_time = serving_study.predict("serving:batch=4").iteration_time_us
        assert all(r.baseline_time_us == target_time for r in results)

    def test_sweep_with_serving_axis_matches_predictions(self, serving_study):
        result = serving_study.sweep(serving=("batch=4", "tp=1"),
                                     whatif=("decode_attention:2",))
        assert len(result) == 6
        by_label = {r.label: r for r in result.results}
        assert by_label["batch=4"].iteration_time_us == \
            serving_study.predict("serving:batch=4").iteration_time_us
        assert by_label["tp=1"].world_size == 1

    def test_sweep_axis_mixing_rejected(self, serving_study):
        with pytest.raises(SweepSpecError, match="serving"):
            serving_study.sweep(parallelism=("2x1x2",))

    def test_serving_axis_on_training_study_rejected(self, profiled_bundle):
        study = Study.from_trace(profiled_bundle, model=tiny_model(),
                                 parallelism="2x2x2")
        with pytest.raises(SweepSpecError, match="inference base"):
            study.sweep(serving=("batch=4",))

    def test_standalone_runner_rejects_non_registry_serving_base(self, serving_study):
        # study.sweep carries the custom ModelConfig; repro.sweep opens its
        # study from the spec's model *name*, which the study refuses up
        # front instead of failing mid-sweep.
        import repro
        from repro.sweep import SweepSpec
        spec = SweepSpec(base_model="tiny-gpt", base_parallelism="2x1x1",
                         inference=TINY_INFERENCE, serving=("batch=16",))
        with pytest.raises(StudyError, match="unknown model 'tiny-gpt'"):
            repro.sweep(serving_study.trace, spec)

    def test_one_call_predict_wrapper_takes_serving_targets(self, serving_study,
                                                            tmp_path):
        from repro.api import predict
        serving_study.trace.save(tmp_path / "bundle")
        prediction = predict(tmp_path / "bundle", "serving:batch=16",
                             base_model=tiny_model(), base_parallelism="2x1x1")
        assert prediction.iteration_time_us == \
            serving_study.predict("serving:batch=16").iteration_time_us
