"""Tests for the replay simulator (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.graph import ExecutionGraph
from repro.core.tasks import DependencyType, Task, TaskKind
from tests.conftest import simulate, spans


def cpu(graph, rank=0, thread=1, duration=10.0, ts=0.0, name="op", sync_streams=()):
    return graph.add_task(Task(task_id=-1, rank=rank, kind=TaskKind.CPU, name=name,
                               duration=duration, trace_ts=ts, thread=thread,
                               sync_streams=sync_streams))


def gpu(graph, rank=0, stream=7, duration=10.0, ts=0.0, name="kernel", group=None, args=None):
    return graph.add_task(Task(task_id=-1, rank=rank, kind=TaskKind.GPU, name=name,
                               duration=duration, trace_ts=ts, stream=stream,
                               collective_group=group, args=args or {}))


class TestBasicScheduling:
    def test_empty_graph(self):
        result = simulate(ExecutionGraph())
        assert result.total_time() == 0.0

    def test_chain_respects_dependencies(self):
        graph = ExecutionGraph()
        a = cpu(graph, duration=10.0)
        b = cpu(graph, duration=5.0, ts=1.0)
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_INTRA_THREAD)
        result = simulate(graph)
        span = spans(result)
        assert span[b.task_id][0] == pytest.approx(span[a.task_id][1])
        assert result.total_time() == pytest.approx(15.0)

    def test_independent_tasks_on_same_processor_serialize(self):
        graph = ExecutionGraph()
        a = gpu(graph, duration=10.0, ts=0.0)
        b = gpu(graph, duration=10.0, ts=1.0)
        span = spans(simulate(graph))
        starts = sorted([span[a.task_id][0], span[b.task_id][0]])
        assert starts[1] >= 10.0

    def test_independent_tasks_on_different_processors_overlap(self):
        graph = ExecutionGraph()
        a = gpu(graph, stream=7, duration=100.0)
        b = gpu(graph, stream=20, duration=100.0)
        span = spans(simulate(graph))
        assert span[a.task_id][0] == span[b.task_id][0]

    def test_start_time_offset(self):
        graph = ExecutionGraph()
        task = cpu(graph, duration=5.0)
        result = simulate(graph, start_time=1000.0)
        assert spans(result)[task.task_id][0] == 1000.0
        assert result.total_time() == pytest.approx(5.0)

    def test_cycle_detection_raises(self):
        graph = ExecutionGraph()
        a, b = cpu(graph), cpu(graph, ts=1.0)
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_INTRA_THREAD)
        graph.add_dependency(b.task_id, a.task_id, DependencyType.CPU_INTRA_THREAD)
        with pytest.raises(RuntimeError):
            simulate(graph)


class TestRuntimeSyncDependencies:
    def test_sync_waits_for_all_kernels_on_stream(self):
        graph = ExecutionGraph()
        launch = cpu(graph, duration=1.0)
        kernel = gpu(graph, stream=7, duration=500.0)
        graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        sync = cpu(graph, duration=2.0, ts=2.0, name="cudaStreamSynchronize", sync_streams=(7,))
        graph.add_dependency(launch.task_id, sync.task_id, DependencyType.CPU_INTRA_THREAD)
        after = cpu(graph, duration=1.0, ts=3.0, name="after")
        graph.add_dependency(sync.task_id, after.task_id, DependencyType.CPU_INTRA_THREAD)

        span = spans(simulate(graph))
        assert span[sync.task_id][0] >= span[kernel.task_id][1]
        assert span[after.task_id][0] >= span[kernel.task_id][1]

    def test_sync_on_empty_stream_completes_immediately(self):
        graph = ExecutionGraph()
        sync = cpu(graph, duration=2.0, name="cudaDeviceSynchronize", sync_streams=(7, 20))
        assert spans(simulate(graph))[sync.task_id][0] == 0.0

    def test_sync_waits_for_multiple_streams(self):
        graph = ExecutionGraph()
        k1 = gpu(graph, stream=7, duration=100.0)
        k2 = gpu(graph, stream=20, duration=700.0)
        sync = cpu(graph, duration=1.0, name="cudaDeviceSynchronize", sync_streams=(7, 20))
        span = spans(simulate(graph))
        assert span[sync.task_id][0] >= max(span[k1.task_id][1], span[k2.task_id][1])

    def test_sync_only_waits_for_its_rank(self):
        graph = ExecutionGraph()
        gpu(graph, rank=1, stream=7, duration=1000.0)
        sync = cpu(graph, rank=0, duration=1.0, name="cudaStreamSynchronize", sync_streams=(7,))
        assert spans(simulate(graph))[sync.task_id][0] == 0.0


class TestCollectiveAlignment:
    def test_group_members_start_together(self):
        graph = ExecutionGraph()
        slow_prev = gpu(graph, rank=0, stream=7, duration=300.0, ts=0.0)
        send = gpu(graph, rank=0, stream=28, duration=20.0, ts=1.0, group="pair")
        graph.add_dependency(slow_prev.task_id, send.task_id, DependencyType.GPU_INTER_STREAM)
        recv = gpu(graph, rank=1, stream=30, duration=20.0, ts=1.0, group="pair")
        span = spans(simulate(graph))
        assert span[send.task_id][0] == pytest.approx(span[recv.task_id][0])
        assert span[recv.task_id][0] >= 300.0

    def test_single_member_group_runs_alone(self):
        graph = ExecutionGraph()
        only = gpu(graph, group="solo", duration=10.0)
        assert spans(simulate(graph))[only.task_id][0] == 0.0


class TestSimulationResult:
    """A run's arrays and the trace it renders."""

    def test_result_covers_every_task(self, small_graph):
        result = simulate(small_graph)
        assert sorted(result.finalize_order.tolist()) == list(range(len(small_graph)))
        assert spans(result).keys() == small_graph.tasks.keys()

    def test_dependencies_respected_in_emulated_graph(self, small_graph):
        span = spans(simulate(small_graph))
        for dependency in small_graph.dependencies:
            assert span[dependency.dst][0] >= span[dependency.src][1] - 1e-6

    def test_no_overlap_on_any_processor(self, small_graph):
        result = simulate(small_graph)
        by_processor = {}
        for task, start, end in zip(result.compiled.tasks, result.starts.tolist(),
                                    result.ends.tolist()):
            by_processor.setdefault(task.processor, []).append((start, end))
        for intervals in by_processor.values():
            intervals.sort()
            for previous, current in zip(intervals, intervals[1:]):
                assert current[0] >= previous[1] - 1e-6

    def test_to_trace_bundle_roundtrip(self, small_graph):
        result = simulate(small_graph)
        bundle = result.to_trace_bundle()
        assert bundle.ranks() == small_graph.ranks()
        kernels = sum(len(trace.kernels()) for trace in bundle)
        assert kernels == len(small_graph.gpu_tasks())
        assert bundle.iteration_time() == pytest.approx(result.iteration_time_us)

    def test_rank_span_within_total(self, small_graph):
        result = simulate(small_graph)
        ranks = np.array([task.rank for task in result.compiled.tasks])
        for rank in small_graph.ranks():
            on_rank = ranks == rank
            start, end = result.starts[on_rank].min(), result.ends[on_rank].max()
            assert result.start_time <= start <= end <= result.end_time()
