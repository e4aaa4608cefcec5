"""Behavioral tests for the hardware what-if axis.

The retarget rescales every classified GPU kernel by the roofline ratio
of the analytical models evaluated on the profiled and the hypothetical
part (Lumos §3.4 applied to a hardware change); these tests lock the
direction of the predictions, the typed refusals, and the memoization
contract that every spelling of one GPU shares a single derived graph.
"""

from __future__ import annotations

import pytest

from repro import PredictError, Study
from repro.core import perf_model as perf_model_module
from repro.core.graph import ExecutionGraph
from repro.core.manipulation import registered_kinds, retarget_hardware
from repro.core.manipulation.hardware import (
    REFUSE_CAPACITY,
    REFUSE_UNCLASSIFIED,
    HardwareManipulationError,
    estimate_rank_memory_bytes,
)
from repro.core.perf_model import KernelPerfModel
from repro.core.tasks import Task, TaskKind
from repro.emulator.api import emulate
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import A100_SXM, B200, H100_SXM, H200_SXM, GPUSpec
from repro.trace.kineto import TraceBundle
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model

TINY_GPU = GPUSpec(name="TINY", sm_count=8, bf16_tflops=10.0, fp32_tflops=5.0,
                   memory_gb=0.25, memory_bandwidth_gbps=100.0,
                   nvlink_bandwidth_gbps=50.0)


class TestDispatchRegistry:
    def test_all_kinds_registered(self):
        assert registered_kinds() == [
            "architecture", "baseline", "hardware", "parallelism", "serving"]


class TestTrainingRetarget:
    @pytest.fixture(scope="class")
    def study(self):
        return Study.from_emulation(tiny_model(), "2x1x1", iterations=1, seed=7)

    def test_h200_is_faster_than_the_h100_base(self, study):
        # Same die, faster HBM: memory-bound time shrinks, nothing grows.
        prediction = study.predict("gpu=H200-SXM")
        assert prediction.iteration_time_us < study.replay().iteration_time_us
        assert prediction.speedup_vs_base > 1.0

    def test_a100_is_slower_than_the_h100_base(self, study):
        prediction = study.predict("gpu=A100-SXM")
        assert prediction.iteration_time_us > study.replay().iteration_time_us

    def test_b200_beats_h200(self, study):
        assert study.predict("gpu=B200").iteration_time_us < \
            study.predict("gpu=H200-SXM").iteration_time_us

    def test_metadata_records_gpu_and_rescale_factors(self, study):
        graph = study.predict("gpu=H200-SXM").graph
        assert graph.metadata["gpu"] == "H200-SXM"
        assert graph.metadata["manipulated"] == "hardware"
        factors = graph.metadata["hardware_rescale"]
        # The H200 upgrade is the memory subsystem: bandwidth-bound
        # classes speed up toward the HBM ratio (the fixed kernel
        # overhead share does not scale), compute stays put.
        assert 3350.0 / 4800.0 < factors["memory_bound"] < 1.0
        assert factors["gemm"] == pytest.approx(1.0)

    def test_equivalent_spellings_share_one_memoized_prediction(self, study):
        canonical = study.predict("gpu=H200-SXM")
        for spelling in ("hardware:H200-SXM", "gpu=h200_sxm", H200_SXM):
            assert study.predict(spelling) is canonical

    def test_profiled_gpu_folds_to_the_baseline(self, study):
        prediction = study.predict("gpu=H100-SXM")
        assert prediction.kind == "baseline"
        assert prediction.iteration_time_us == study.replay().iteration_time_us

    def test_composite_parallelism_plus_hardware(self, study):
        prediction = study.predict("parallelism=2x1x2,gpu=H200-SXM")
        assert prediction.world_size == 4
        assert prediction.iteration_time_us < \
            study.predict("2x1x2").iteration_time_us

    def test_capacity_refusal_carries_typed_code(self, study):
        with pytest.raises(PredictError, match="would not fit") as excinfo:
            study.predict(TINY_GPU)
        assert excinfo.value.code == REFUSE_CAPACITY

    def test_custom_spec_shadowing_the_base_gpu_is_refused(self, study):
        impostor = GPUSpec(**dict(H100_SXM.to_json(), memory_gb=999.0))
        with pytest.raises(PredictError, match="named like the base GPU"):
            study.predict(impostor)

    def test_custom_spec_shadowing_the_registry_is_refused(self, study):
        impostor = GPUSpec(**dict(B200.to_json(), memory_gb=999.0))
        with pytest.raises(PredictError, match="distinct name"):
            study.predict(impostor)

    def test_two_different_specs_with_one_name_are_refused(self, study):
        first = GPUSpec(**dict(H200_SXM.to_json(), name="X100"))
        study.predict(first)
        second = GPUSpec(**dict(B200.to_json(), name="X100"))
        with pytest.raises(PredictError, match="already predicted"):
            study.predict(second)


class TestEmulatedTruth:
    def test_b200_retarget_matches_a_b200_emulation(self, h100_base_trace):
        # Emulation and retarget take the NVLink tier from the same GPU
        # field, so the retarget of this base lands on the B200 emulation.
        study = Study.from_trace(h100_base_trace, micro_batch_size=1)
        predicted = study.predict("gpu=B200").iteration_time_us
        parallel = ParallelismConfig.parse("2x1x1")
        truth = emulate(gpt3_model("gpt3-15b"), parallel,
                        TrainingConfig(micro_batch_size=1, num_microbatches=2),
                        cluster=ClusterSpec.for_world_size(2, gpu=B200),
                        iterations=1, seed=1).measured_iteration_time()
        assert abs(predicted - truth) / truth < 0.001


#: The tiny training base of the profiled-part tests.
TINY_TRAINING = TrainingConfig(micro_batch_size=1, num_microbatches=2,
                               sequence_length=512)


def _on(gpu: GPUSpec, parallelism: str) -> ClusterSpec:
    return ClusterSpec.for_world_size(ParallelismConfig.parse(parallelism).world_size,
                                      gpu=gpu)


class TestDerivesRunOnTheProfiledPart:
    """Every derive re-times on the cluster the trace was profiled on."""

    def test_every_cost_model_sees_the_profiled_gpu(self, monkeypatch):
        training = Study.from_emulation(tiny_model(), "1x2x2", TINY_TRAINING,
                                        cluster=_on(B200, "1x2x2"),
                                        iterations=1, seed=1).prepare()
        serving = Study.from_emulation(
            tiny_model(), "2x1x1",
            inference=InferenceConfig(batch_size=4, prompt_length=64, decode_length=2),
            cluster=_on(B200, "2x1x1"), iterations=1, seed=11).prepare()
        seen: list[str] = []

        def recording(cost_model):
            def record(*args, **kwargs):
                for value in (*args, *kwargs.values()):
                    if isinstance(value, ClusterSpec):
                        seen.append(value.gpu.name)
                    elif isinstance(value, GPUSpec):
                        seen.append(value.name)
                return cost_model(*args, **kwargs)
            return record

        for name, value in vars(perf_model_module).items():
            if callable(value) and value.__module__.startswith("repro.kernels."):
                monkeypatch.setattr(perf_model_module, name, recording(value))
        training.predict("1x2x4")   # a data-parallel retime
        training.predict("1x1x2")   # a pipeline-parallel synthesis
        serving.predict("batch=8")  # a serving retime
        assert seen and set(seen) == {"B200"}

    @pytest.mark.parametrize("gpu", [A100_SXM, B200], ids=lambda gpu: gpu.name)
    def test_data_parallel_scaling_tracks_an_emulation_on_the_same_part(self, gpu):
        study = Study.from_emulation(tiny_model(), "1x1x4", TINY_TRAINING,
                                     cluster=_on(gpu, "1x1x4"), iterations=1, seed=1)
        predicted = study.predict("1x1x16").iteration_time_us
        truth = emulate(tiny_model(), ParallelismConfig.parse("1x1x16"), TINY_TRAINING,
                        cluster=_on(gpu, "1x1x16"), iterations=1,
                        seed=1).measured_iteration_time()
        assert abs(predicted - truth) / truth < 0.05


    def test_a_saved_bundle_reopens_on_the_part_it_was_profiled_on(self, tmp_path):
        # The emulator records the GPU and node size, so a study over the
        # saved bundle derives on a B200 without being told.
        training = TrainingConfig(micro_batch_size=1, num_microbatches=2)
        emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x2x2"), training,
                cluster=_on(B200, "2x2x2"), iterations=1, seed=1).profiled.save(
                    tmp_path / "bundle")
        study = Study.from_trace(tmp_path / "bundle")
        assert (study.cluster.gpu.name, study.cluster.gpus_per_node) == ("B200", 8)
        predicted = study.predict("2x2x8").iteration_time_us
        truth = emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x2x8"), training,
                        cluster=_on(B200, "2x2x8"), iterations=1,
                        seed=1).measured_iteration_time()
        assert abs(predicted - truth) / truth < 0.025

    def test_an_unknown_recorded_part_opens_the_default_cluster(self, h100_base_trace):
        bundle = TraceBundle.load(h100_base_trace)
        assert bundle.metadata["gpu"] == "H100-SXM"
        bundle.metadata.update(gpu="X9000", gpus_per_node="many")
        study = Study.from_trace(bundle)
        assert study.cluster == ClusterSpec.for_world_size(
            study.base_parallel.world_size)


class TestCompositeCapacity:
    @pytest.fixture(scope="class")
    def study(self):
        training = TrainingConfig(micro_batch_size=1, num_microbatches=2)
        return Study.from_emulation("gpt3-15b", "2x2x2", training,
                                    iterations=1, seed=1)

    def test_memory_is_judged_on_the_composite_s_own_model(self, study):
        # gpt3-15b at 2x2x2 fits an 80 GiB A100 (62 GiB/rank); gpt3-v4 at
        # 2x2x2 needs 185 GiB/rank, so its retarget must refuse, before
        # the architecture change is derived.
        assert study.predict("gpu=A100-SXM").iteration_time_us > 0
        with pytest.raises(PredictError, match="would not fit") as excinfo:
            study.predict("model=gpt3-v4,gpu=A100-SXM")
        assert excinfo.value.code == REFUSE_CAPACITY
        assert "gpt3-v4" in str(excinfo.value)
        assert not any(key.kind.startswith("architecture") for key in study._configs)


class TestServingRetarget:
    @pytest.fixture(scope="class")
    def study(self):
        inference = InferenceConfig(batch_size=4, prompt_length=64,
                                    decode_length=2)
        return Study.from_emulation(tiny_model(), "2x1x1", inference=inference,
                                    iterations=1, seed=11)

    def test_h200_speeds_up_decode(self, study):
        # Decode attention is bandwidth-bound: the HBM3e part wins.
        prediction = study.predict("gpu=H200-SXM")
        assert prediction.iteration_time_us < study.replay().iteration_time_us

    def test_composite_serving_plus_hardware(self, study):
        prediction = study.predict("batch=8,gpu=B200")
        assert prediction.kind == "serving+hardware"
        assert prediction.graph.metadata["gpu"] == "B200"

    def test_capacity_check_includes_the_kv_cache(self, study):
        parallel = ParallelismConfig.parse("2x1x1")
        inference = InferenceConfig(batch_size=4, prompt_length=64,
                                    decode_length=2)
        serving = estimate_rank_memory_bytes(tiny_model(), parallel,
                                             inference=inference)
        training = estimate_rank_memory_bytes(tiny_model(), parallel)
        assert serving > 0 and training > 0
        # 18 bytes/param of optimizer state dwarfs a tiny KV cache.
        assert training > serving


class TestUnclassifiedRefusal:
    def _retarget(self, graph):
        return retarget_hardware(
            graph, H200_SXM,
            perf_model=KernelPerfModel(cluster=ClusterSpec(num_gpus=1)))

    def test_opaque_kernels_past_the_budget_refuse(self):
        graph = ExecutionGraph()
        graph.add_task(Task(task_id=0, rank=0, kind=TaskKind.GPU,
                            name="mystery_kernel", duration=100.0, stream=0))
        with pytest.raises(HardwareManipulationError,
                           match="cannot classify") as excinfo:
            self._retarget(graph)
        assert excinfo.value.code == REFUSE_UNCLASSIFIED

    def test_small_unclassified_residue_is_kept_verbatim(self):
        graph = ExecutionGraph()
        graph.add_task(Task(task_id=0, rank=0, kind=TaskKind.GPU,
                            name="mystery_kernel", duration=1.0, stream=0))
        graph.add_task(Task(task_id=1, rank=0, kind=TaskKind.GPU,
                            name="fused_layernorm", duration=1000.0, stream=0,
                            args={"op_class": "layernorm"}))
        derived = self._retarget(graph)
        by_name = {task.name: task for task in derived.graph.task_list()}
        assert by_name["mystery_kernel"].duration == 1.0  # under budget: kept
        assert by_name["fused_layernorm"].duration < 1000.0
