"""Tests for graph manipulation (templates, synthesis, DP/PP/architecture)."""

import pytest

from repro.api import Study
from repro.core.graph_builder import GraphBuilder
from repro.core.manipulation import (
    change_architecture,
    extract_iteration_template,
    scale_data_parallelism,
    scale_pipeline_parallelism,
    synthesize_graph,
)
from repro.core.metrics import absolute_relative_error_percent
from repro.core.perf_model import KernelPerfModel
from repro.core.replay import simulate_graph
from repro.core.tasks import DependencyType, TaskKind
from repro.emulator.api import emulate
from repro.hardware.cluster import ClusterSpec
from repro.workload.parallelism import ParallelismConfig
from repro.workload.pipeline import stage_layers
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model

_PREDICTION_TOLERANCE_PERCENT = 12.0


@pytest.fixture(scope="module")
def base_model():
    return tiny_model(n_layers=8)


@pytest.fixture(scope="module")
def base_parallel():
    return ParallelismConfig(2, 2, 2)


@pytest.fixture(scope="module")
def base_training(small_training):
    return small_training


@pytest.fixture(scope="module")
def base_graph(base_model, base_parallel, base_training):
    emulation = emulate(base_model, base_parallel, base_training, iterations=1, seed=101)
    return GraphBuilder().build(emulation.profiled)


@pytest.fixture(scope="module")
def perf_model(base_graph, base_parallel):
    return KernelPerfModel.calibrate(base_graph,
                                     ClusterSpec.for_world_size(base_parallel.world_size))


@pytest.fixture(scope="module")
def template(base_graph, base_model, base_parallel, base_training):
    return extract_iteration_template(base_graph, base_model, base_parallel, base_training)


def _measured_time(model, parallel, training, seed=111):
    return emulate(model, parallel, training, iterations=2, seed=seed).measured_iteration_time()


class TestTemplateExtraction:
    def test_layer_templates_cover_all_layers_and_phases(self, template, base_model):
        assert sorted(template.layer_forward) == list(range(base_model.n_layers))
        assert sorted(template.layer_backward) == list(range(base_model.n_layers))

    def test_layer_sequence_contains_tp_collectives(self, template):
        kernels = template.layer_template(0, "forward")
        assert any(k.comm_group == "tp" for k in kernels)
        assert any(k.op_class == "gemm" for k in kernels)

    def test_backward_has_more_kernels_than_forward(self, template):
        assert (len(template.layer_template(0, "backward"))
                > len(template.layer_template(0, "forward")))

    def test_embedding_head_and_optimizer_extracted(self, template):
        assert template.embedding_forward
        assert template.head_forward
        assert template.optimizer

    def test_samples_for_dp_and_pp_communication(self, template):
        assert template.dp_bucket_sample is not None
        assert template.pp_send_sample is not None
        assert template.pp_recv_sample is not None

    def test_unknown_layer_reuses_observed_template(self, template, base_model):
        beyond = template.layer_template(base_model.n_layers + 3, "forward")
        assert beyond == template.layer_template(3, "forward")

    def test_cpu_overheads_positive(self, template):
        assert template.cpu.launch_us > 0
        assert template.cpu.data_loader_us > 0

    def test_empty_graph_rejected(self, base_model, base_parallel, base_training):
        from repro.core.graph import ExecutionGraph
        with pytest.raises(ValueError):
            extract_iteration_template(ExecutionGraph(), base_model, base_parallel, base_training)


class TestSynthesis:
    def test_identity_synthesis_close_to_base_replay(self, base_graph, template, base_model,
                                                     base_parallel, perf_model):
        base_time = simulate_graph(base_graph).iteration_time_us
        synthesized = synthesize_graph(template, base_model, base_parallel, perf_model)
        synthesized_time = simulate_graph(synthesized).iteration_time_us
        assert absolute_relative_error_percent(synthesized_time, base_time) < 10.0

    def test_synthesized_graph_is_valid(self, template, base_model, base_parallel, perf_model):
        graph = synthesize_graph(template, base_model, base_parallel, perf_model)
        graph.validate()
        counts = graph.dependency_counts()
        assert counts[DependencyType.CPU_TO_GPU] > 0
        assert counts[DependencyType.GPU_INTER_STREAM] > 0

    def test_synthesized_graph_has_one_rank_per_stage(self, template, base_model, perf_model):
        target = ParallelismConfig(2, 4, 2)
        graph = synthesize_graph(template, base_model, target, perf_model)
        assert len(graph.ranks()) == 4

    def test_layers_partitioned_across_new_stages(self, template, base_model, perf_model):
        target = ParallelismConfig(2, 4, 2)
        graph = synthesize_graph(template, base_model, target, perf_model)
        for stage, rank in enumerate(graph.ranks()):
            expected = set(stage_layers(base_model.n_layers, 4, stage))
            observed = {t.layer for t in graph.gpu_tasks(rank) if t.layer is not None}
            assert observed == expected

    def test_tp_change_rejected(self, template, base_model, perf_model):
        with pytest.raises(NotImplementedError):
            synthesize_graph(template, base_model, ParallelismConfig(4, 2, 2), perf_model)


class TestDataParallelScaling:
    def test_prediction_tracks_directly_emulated_target(self, base_graph, base_model,
                                                        base_parallel, base_training, perf_model):
        graph = scale_data_parallelism(base_graph, base_parallel, 4, perf_model)
        predicted = simulate_graph(graph).iteration_time_us
        actual = _measured_time(base_model, base_parallel.with_changes(data_parallel=4),
                                base_training)
        assert absolute_relative_error_percent(predicted, actual) < _PREDICTION_TOLERANCE_PERCENT

    def test_only_dp_collectives_are_retimed(self, base_graph, base_parallel, perf_model):
        graph = scale_data_parallelism(base_graph, base_parallel, 8, perf_model)
        assert len(graph) == len(base_graph)
        for original, manipulated in zip(base_graph.task_list(), graph.graph.task_list()):
            if original.kind == TaskKind.GPU and original.args.get("group") == "dp":
                assert manipulated.args["group_size"] == 8
            else:
                assert manipulated.duration == pytest.approx(original.duration)

    def test_scaling_up_dp_does_not_speed_up_iteration(self, base_graph, base_parallel, perf_model):
        base_time = simulate_graph(base_graph).iteration_time_us
        graph = scale_data_parallelism(base_graph, base_parallel, 16, perf_model)
        assert simulate_graph(graph).iteration_time_us >= base_time * 0.99

    def test_scaling_to_dp1_zeroes_dp_communication(self, base_graph, base_parallel, perf_model):
        graph = scale_data_parallelism(base_graph, base_parallel, 1, perf_model)
        dp_tasks = [t for t in graph.graph.gpu_tasks() if t.args.get("group") == "dp"]
        assert dp_tasks and all(t.duration == 0.0 for t in dp_tasks)

    def test_invalid_degree_rejected(self, base_graph, base_parallel, perf_model):
        with pytest.raises(ValueError):
            scale_data_parallelism(base_graph, base_parallel, 0, perf_model)


class TestPipelineParallelScaling:
    def test_prediction_tracks_directly_emulated_target(self, base_graph, base_model,
                                                        base_parallel, base_training, perf_model):
        graph = scale_pipeline_parallelism(base_graph, base_model, base_parallel, base_training,
                                           4, perf_model)
        predicted = simulate_graph(graph).iteration_time_us
        actual = _measured_time(base_model, base_parallel.with_changes(pipeline_parallel=4),
                                base_training)
        assert absolute_relative_error_percent(predicted, actual) < _PREDICTION_TOLERANCE_PERCENT

    def test_combined_dp_and_pp_change(self, base_graph, base_model, base_parallel,
                                       base_training, perf_model):
        graph = scale_pipeline_parallelism(base_graph, base_model, base_parallel, base_training,
                                           4, perf_model, new_data_parallel=4)
        predicted = simulate_graph(graph).iteration_time_us
        target = ParallelismConfig(2, 4, 4)
        actual = _measured_time(base_model, target, base_training)
        assert absolute_relative_error_percent(predicted, actual) < _PREDICTION_TOLERANCE_PERCENT

    def test_new_stage_boundaries_get_p2p_pairs(self, base_graph, base_model, base_parallel,
                                                base_training, perf_model):
        graph = scale_pipeline_parallelism(base_graph, base_model, base_parallel, base_training,
                                           4, perf_model)
        groups = graph.collective_groups()
        # 4 stages, 2 micro-batches: activations cross 3 boundaries per
        # micro-batch and gradients cross them back.
        assert len(groups) == 2 * 3 * 2
        assert all(len(members) == 2 for members in groups.values())

    def test_invalid_degree_rejected(self, base_graph, base_model, base_parallel,
                                     base_training, perf_model):
        with pytest.raises(ValueError):
            scale_pipeline_parallelism(base_graph, base_model, base_parallel, base_training,
                                       0, perf_model)


class TestShrinkingDirectCalls:
    """A direct call re-times on its perf model's cluster, which holds the base.

    So a call that shrinks the configuration derives the same graph as the
    study's own derive of that target.
    """

    @pytest.fixture(scope="class")
    def study(self):
        return Study.from_emulation(tiny_model(), "1x2x4",
                                    TrainingConfig(micro_batch_size=1, num_microbatches=2),
                                    iterations=1, seed=1)

    def test_fewer_data_parallel_ranks(self, study):
        graph = scale_data_parallelism(study.base_graph, study.base_parallel, 2,
                                       study.perf_model)
        assert (simulate_graph(graph).iteration_time_us
                == study.predict("1x2x2").iteration_time_us)

    def test_fewer_pipeline_and_data_parallel_ranks(self, study):
        graph = scale_pipeline_parallelism(study.base_graph, study.base_model,
                                           study.base_parallel, study.training, 1,
                                           study.perf_model, new_data_parallel=2)
        assert (simulate_graph(graph).iteration_time_us
                == study.predict("1x1x2").iteration_time_us)


class TestArchitectureChange:
    def test_layer_count_change_tracks_target(self, base_graph, base_model, base_parallel,
                                              base_training, perf_model):
        target_model = base_model.with_changes(name="tiny-deeper", n_layers=12)
        graph = change_architecture(base_graph, base_model, base_parallel, base_training,
                                    target_model, perf_model)
        predicted = simulate_graph(graph).iteration_time_us
        actual = _measured_time(target_model, base_parallel, base_training)
        assert absolute_relative_error_percent(predicted, actual) < _PREDICTION_TOLERANCE_PERCENT

    def test_hidden_size_change_tracks_target(self, base_graph, base_model, base_parallel,
                                              base_training, perf_model):
        target_model = tiny_model(n_layers=8, d_model=2048, name="tiny-wide")
        graph = change_architecture(base_graph, base_model, base_parallel, base_training,
                                    target_model, perf_model)
        predicted = simulate_graph(graph).iteration_time_us
        actual = _measured_time(target_model, base_parallel, base_training)
        assert absolute_relative_error_percent(predicted, actual) < _PREDICTION_TOLERANCE_PERCENT

    def test_more_layers_predicted_slower(self, base_graph, base_model, base_parallel,
                                          base_training, perf_model):
        deeper = base_model.with_changes(name="deeper", n_layers=16)
        graph = change_architecture(base_graph, base_model, base_parallel, base_training,
                                    deeper, perf_model)
        base_time = simulate_graph(base_graph).iteration_time_us
        assert simulate_graph(graph).iteration_time_us > 1.5 * base_time

    def test_wider_model_predicted_slower(self, base_graph, base_model, base_parallel,
                                          base_training, perf_model):
        wider = tiny_model(n_layers=8, d_model=2048, name="wider")
        graph = change_architecture(base_graph, base_model, base_parallel, base_training,
                                    wider, perf_model)
        base_time = simulate_graph(base_graph).iteration_time_us
        assert simulate_graph(graph).iteration_time_us > 1.5 * base_time
