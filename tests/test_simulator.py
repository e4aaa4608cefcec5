"""Tests for the replay simulator (Algorithm 1)."""

import pytest

from repro.core.graph import ExecutionGraph
from repro.core.tasks import DependencyType, Task, TaskKind
from tests.conftest import simulate


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
        assert result.tasks[b.task_id].start == pytest.approx(result.tasks[a.task_id].end)
        assert result.total_time() == pytest.approx(15.0)

    def test_independent_tasks_on_same_processor_serialize(self):
        graph = ExecutionGraph()
        a = gpu(graph, duration=10.0, ts=0.0)
        b = gpu(graph, duration=10.0, ts=1.0)
        result = simulate(graph)
        starts = sorted([result.tasks[a.task_id].start, result.tasks[b.task_id].start])
        assert starts[1] >= 10.0

    def test_independent_tasks_on_different_processors_overlap(self):
        graph = ExecutionGraph()
        a = gpu(graph, stream=7, duration=100.0)
        b = gpu(graph, stream=20, duration=100.0)
        result = simulate(graph)
        assert result.tasks[a.task_id].start == result.tasks[b.task_id].start

    def test_start_time_offset(self):
        graph = ExecutionGraph()
        task = cpu(graph, duration=5.0)
        result = simulate(graph, start_time=1000.0)
        assert result.tasks[task.task_id].start == 1000.0
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

        result = simulate(graph)
        assert result.tasks[sync.task_id].start >= result.tasks[kernel.task_id].end
        assert result.tasks[after.task_id].start >= result.tasks[kernel.task_id].end

    def test_sync_on_empty_stream_completes_immediately(self):
        graph = ExecutionGraph()
        sync = cpu(graph, duration=2.0, name="cudaDeviceSynchronize", sync_streams=(7, 20))
        result = simulate(graph)
        assert result.tasks[sync.task_id].start == 0.0

    def test_sync_waits_for_multiple_streams(self):
        graph = ExecutionGraph()
        k1 = gpu(graph, stream=7, duration=100.0)
        k2 = gpu(graph, stream=20, duration=700.0)
        sync = cpu(graph, duration=1.0, name="cudaDeviceSynchronize", sync_streams=(7, 20))
        result = simulate(graph)
        assert result.tasks[sync.task_id].start >= max(result.tasks[k1.task_id].end,
                                                       result.tasks[k2.task_id].end)

    def test_sync_only_waits_for_its_rank(self):
        graph = ExecutionGraph()
        gpu(graph, rank=1, stream=7, duration=1000.0)
        sync = cpu(graph, rank=0, duration=1.0, name="cudaStreamSynchronize", sync_streams=(7,))
        result = simulate(graph)
        assert result.tasks[sync.task_id].start == 0.0


class TestCollectiveAlignment:
    def test_group_members_start_together(self):
        graph = ExecutionGraph()
        slow_prev = gpu(graph, rank=0, stream=7, duration=300.0, ts=0.0)
        send = gpu(graph, rank=0, stream=28, duration=20.0, ts=1.0, group="pair")
        graph.add_dependency(slow_prev.task_id, send.task_id, DependencyType.GPU_INTER_STREAM)
        recv = gpu(graph, rank=1, stream=30, duration=20.0, ts=1.0, group="pair")
        result = simulate(graph)
        assert result.tasks[send.task_id].start == pytest.approx(result.tasks[recv.task_id].start)
        assert result.tasks[recv.task_id].start >= 300.0

    def test_single_member_group_runs_alone(self):
        graph = ExecutionGraph()
        only = gpu(graph, group="solo", duration=10.0)
        result = simulate(graph)
        assert result.tasks[only.task_id].start == 0.0


class TestSimulationResult:
    def test_result_covers_every_task(self, small_graph):
        result = simulate(small_graph)
        assert len(result.tasks) == len(small_graph)

    def test_dependencies_respected_in_emulated_graph(self, small_graph):
        result = simulate(small_graph)
        for dependency in small_graph.dependencies:
            src, dst = result.tasks[dependency.src], result.tasks[dependency.dst]
            assert dst.start >= src.end - 1e-6

    def test_no_overlap_on_any_processor(self, small_graph):
        result = simulate(small_graph)
        by_processor = {}
        for simulated in result.tasks.values():
            by_processor.setdefault(simulated.task.processor, []).append(simulated)
        for simulated_tasks in by_processor.values():
            simulated_tasks.sort(key=lambda t: t.start)
            for previous, current in zip(simulated_tasks, simulated_tasks[1:]):
                assert current.start >= previous.end - 1e-6

    def test_to_trace_bundle_roundtrip(self, small_graph):
        result = simulate(small_graph)
        bundle = result.to_trace_bundle()
        assert bundle.ranks() == small_graph.ranks()
        kernels = sum(len(trace.kernels()) for trace in bundle)
        assert kernels == len(small_graph.gpu_tasks())
        assert bundle.iteration_time() > 0

    def test_rank_span_within_total(self, small_graph):
        result = simulate(small_graph)
        for rank in small_graph.ranks():
            start, end = result.rank_span(rank)
            assert result.start_time <= start <= end <= result.end_time()
