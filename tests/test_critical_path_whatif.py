"""Tests for critical-path analysis and what-if scenario evaluation."""

import pytest

from repro.core.critical_path import critical_path, kernel_time_summary, launch_overhead_summary
from repro.core.graph import ExecutionGraph
from repro.core.replay import simulate_graph
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.core.whatif import Scenario, evaluate_scenarios, scenario_for
from tests.conftest import simulate


def evaluate(graph, kind, *, session=None, **knobs):
    """One declarative scenario against ``graph`` (the Study.whatif path)."""
    return evaluate_scenarios(graph, [scenario_for(kind, **knobs)],
                              session=session)[0]


def evaluate_predicate(graph, name, predicate, speedup):
    """One ad-hoc predicate scenario against ``graph``."""
    return evaluate_scenarios(graph, [Scenario(name, predicate, speedup)])[0]


def _chain_graph():
    """cpu(10) -> gpu(100) on stream 7, plus an unrelated gpu(20) on stream 20."""
    graph = ExecutionGraph()
    launch = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.CPU, name="cudaLaunchKernel",
                                 duration=10.0, trace_ts=0.0, thread=1))
    kernel = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.GPU, name="gemm",
                                 duration=100.0, trace_ts=1.0, stream=7,
                                 args={"op_class": "gemm"}))
    side = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.GPU, name="nccl_all_reduce",
                               duration=20.0, trace_ts=2.0, stream=20,
                               args={"collective": "all_reduce", "group": "tp",
                                     "op_class": "comm"}))
    graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
    return graph, launch, kernel, side


class TestCriticalPath:
    def test_path_follows_the_long_chain(self):
        graph, launch, kernel, side = _chain_graph()
        path = critical_path(graph)
        names = [entry.task.name for entry in path.entries]
        assert names == ["cudaLaunchKernel", "gemm"]
        assert path.total_time == pytest.approx(110.0)

    def test_time_by_category_accounts_for_everything(self):
        graph, *_ = _chain_graph()
        buckets = critical_path(graph).time_by_category()
        assert buckets["cpu"] == pytest.approx(10.0)
        assert buckets["compute"] == pytest.approx(100.0)
        assert buckets["wait"] == pytest.approx(0.0, abs=1e-6)

    def test_empty_graph(self):
        path = critical_path(ExecutionGraph())
        assert len(path) == 0 and path.total_time == 0.0

    def test_accepts_precomputed_simulation(self):
        graph, *_ = _chain_graph()
        simulation = simulate(graph)
        assert critical_path(graph, simulation).total_time == pytest.approx(
            simulation.total_time())

    def test_on_emulated_graph_path_is_contiguous(self, small_graph):
        path = critical_path(small_graph)
        assert len(path) > 10
        # Entries are sorted by start time and never overlap backwards.
        starts = [entry.start for entry in path.entries]
        assert starts == sorted(starts)
        # The critical path accounts for a dominant share of the makespan.
        covered = sum(entry.duration for entry in path.entries)
        assert covered > 0.5 * path.total_time

    def test_time_by_category_is_a_partition_of_the_makespan(self, small_graph):
        path = critical_path(small_graph)
        buckets = path.time_by_category()
        assert all(value >= -1e-6 for value in buckets.values())
        assert sum(buckets.values()) == pytest.approx(path.total_time, rel=1e-6)


class TestKernelTimeSummary:
    def test_summary_shares_sum_to_one(self, small_graph):
        summary = kernel_time_summary(small_graph)
        assert sum(entry.share for entry in summary) == pytest.approx(1.0)
        assert all(entry.count > 0 for entry in summary)

    def test_summary_sorted_by_time(self, small_graph):
        summary = kernel_time_summary(small_graph)
        times = [entry.total_time_us for entry in summary]
        assert times == sorted(times, reverse=True)

    def test_top_k_truncates(self, small_graph):
        assert len(kernel_time_summary(small_graph, top_k=2)) == 2

    def test_gemm_is_a_dominant_class(self, small_graph):
        summary = kernel_time_summary(small_graph, top_k=3)
        assert any(entry.op_class == "gemm" for entry in summary)

    def test_launch_overhead_summary(self, small_graph):
        stats = launch_overhead_summary(small_graph)
        assert stats["count"] > 0
        assert stats["total_us"] > stats["mean_us"] > 0

    def test_launch_overhead_empty_graph(self):
        stats = launch_overhead_summary(ExecutionGraph())
        assert stats["count"] == 0


class TestWhatIf:
    def test_speeding_up_side_stream_changes_nothing(self):
        graph, launch, kernel, side = _chain_graph()
        result = evaluate_predicate(graph, "side", lambda t: t.name == "nccl_all_reduce", 10.0)
        assert result.affected_tasks == 1
        assert result.scenario_time_us == pytest.approx(result.baseline_time_us)
        assert result.improvement_percent == pytest.approx(0.0)

    def test_speeding_up_critical_kernel_helps(self):
        graph, launch, kernel, side = _chain_graph()
        result = evaluate(graph, "kernel_class", op_class="gemm", speedup=2.0)
        assert result.saved_us == pytest.approx(50.0)
        assert result.speedup > 1.0

    def test_infinite_speedup_removes_tasks(self):
        graph, launch, kernel, side = _chain_graph()
        result = evaluate(graph, "kernel_class", op_class="gemm", speedup=float("inf"))
        # With the 100 us GEMM removed, the side-stream collective (20 us)
        # becomes the longest remaining activity.
        assert result.scenario_time_us == pytest.approx(20.0)

    def test_input_graph_not_mutated(self, small_graph):
        before = [task.duration for task in small_graph.task_list()]
        evaluate(small_graph, "communication", speedup=4.0)
        after = [task.duration for task in small_graph.task_list()]
        assert before == after

    def test_comm_speedup_bounded_by_exposed_comm(self, small_graph, small_replay):
        exposed = small_replay.breakdown().exposed_communication
        result = evaluate(small_replay.graph, "communication", speedup=float("inf"),
                          session=small_replay.session())
        assert result.baseline_time_us == small_replay.iteration_time_us
        assert result.saved_us >= -1e-6
        # Removing communication cannot save more than everything that was not
        # pure compute in the baseline.
        assert result.saved_us <= small_replay.iteration_time_us - 1e-6 or exposed == 0

    def test_group_filter_affects_fewer_tasks(self, small_graph):
        all_comm = evaluate(small_graph, "communication", speedup=2.0)
        only_dp = evaluate(small_graph, "communication", speedup=2.0, group="dp")
        assert only_dp.affected_tasks < all_comm.affected_tasks
        assert only_dp.saved_us <= all_comm.saved_us + 1e-6

    def test_zero_launch_overhead_never_hurts(self, small_graph):
        result = evaluate(small_graph, "launch_overhead")
        assert result.affected_tasks > 0
        assert result.scenario_time_us <= result.baseline_time_us + 1e-6

    def test_invalid_speedup_rejected(self, small_graph):
        with pytest.raises(ValueError):
            evaluate_predicate(small_graph, "bad", lambda t: True, 0.0)

    def test_nan_speedup_rejected(self, small_graph):
        with pytest.raises(ValueError, match="positive"):
            evaluate_predicate(small_graph, "nan", lambda t: True, float("nan"))

    def test_baseline_reuse_matches_fresh_simulation(self, small_graph, small_replay):
        # The replay's session times the same baseline row as a fresh compile.
        reused = evaluate(small_replay.graph, "kernel_class", op_class="gemm",
                          session=small_replay.session())
        fresh = evaluate(small_graph, "kernel_class", op_class="gemm")
        assert reused == fresh
        assert reused.baseline_time_us == small_replay.iteration_time_us

    def test_what_if_result_properties(self):
        from repro.core.whatif import WhatIfResult
        result = WhatIfResult(name="x", baseline_time_us=200.0, scenario_time_us=100.0,
                              affected_tasks=3)
        assert result.saved_us == 100.0
        assert result.speedup == 2.0
        assert result.improvement_percent == 50.0

    def test_evaluate_scenario_infinite_speedup_zeroes_matches(self):
        graph, launch, kernel, side = _chain_graph()
        result = evaluate_predicate(graph, "no-gemm",
                                    lambda t: t.args.get("op_class") == "gemm",
                                    float("inf"))
        assert result.affected_tasks == 1
        # Only the 10 us launch and the 20 us side collective remain.
        assert result.scenario_time_us == pytest.approx(20.0)
        # The input graph keeps its original durations.
        assert graph.tasks[kernel.task_id].duration == pytest.approx(100.0)


class TestCloneGraph:
    """``subgraph_for_ranks`` over every rank is a full, independent copy."""

    @staticmethod
    def _copy(graph):
        return graph.subgraph_for_ranks(graph.ranks())

    def _decorated_graph(self):
        graph = ExecutionGraph(metadata={"parallelism": "2x2x2", "source": "test"})
        launch = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.CPU,
                                     name="cudaLaunchKernel", duration=10.0,
                                     trace_ts=0.0, thread=1, correlation=42))
        kernel = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.GPU,
                                     name="nccl_send", duration=50.0, trace_ts=1.0,
                                     stream=7, correlation=42,
                                     args={"op_class": "comm", "collective": "send"},
                                     sync_streams=(7, 9),
                                     collective_group="pp_send_0_1"))
        peer = graph.add_task(Task(task_id=-1, rank=1, kind=TaskKind.GPU,
                                   name="nccl_recv", duration=50.0, trace_ts=1.0,
                                   stream=7, collective_group="pp_send_0_1"))
        graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        graph.add_dependency(kernel.task_id, peer.task_id, DependencyType.GPU_INTER_STREAM)
        return graph

    def test_metadata_survives_and_is_independent(self):
        graph = self._decorated_graph()
        clone = self._copy(graph)
        assert clone.metadata == graph.metadata
        clone.metadata["parallelism"] = "9x9x9"
        assert graph.metadata["parallelism"] == "2x2x2"

    def test_dependency_types_survive(self):
        graph = self._decorated_graph()
        clone = self._copy(graph)
        assert len(clone.dependencies) == len(graph.dependencies)
        assert sorted(d.dep_type for d in clone.dependencies) == \
            sorted(d.dep_type for d in graph.dependencies)
        # Edges connect the cloned counterparts of the original endpoints.
        names = {(clone.tasks[d.src].name, clone.tasks[d.dst].name)
                 for d in clone.dependencies}
        assert names == {("cudaLaunchKernel", "nccl_send"), ("nccl_send", "nccl_recv")}

    def test_collective_groups_and_sync_streams_survive(self):
        graph = self._decorated_graph()
        clone = self._copy(graph)
        cloned = {task.name: task for task in clone.tasks.values()}
        assert cloned["nccl_send"].collective_group == "pp_send_0_1"
        assert cloned["nccl_recv"].collective_group == "pp_send_0_1"
        assert cloned["nccl_send"].sync_streams == (7, 9)
        assert cloned["cudaLaunchKernel"].correlation == 42

    def test_task_args_are_independent_copies(self):
        graph = self._decorated_graph()
        clone = self._copy(graph)
        cloned_send = next(t for t in clone.tasks.values() if t.name == "nccl_send")
        original_send = next(t for t in graph.tasks.values() if t.name == "nccl_send")
        cloned_send.args["collective"] = "mutated"
        assert original_send.args["collective"] == "send"

    def test_simulated_times_match(self, small_graph):
        original = simulate_graph(small_graph)
        clone = self._copy(small_graph)
        assert simulate_graph(clone).iteration_time_us == \
            pytest.approx(original.iteration_time_us)


class TestApplySpeedup:
    """``scenario_for`` dispatches each declarative kind to its predicate."""

    def test_dispatches_to_kernel_class(self, small_graph):
        via_dispatch = evaluate(small_graph, "kernel_class", op_class="gemm",
                                speedup=2.0)
        direct = evaluate_predicate(
            small_graph, "gemm",
            lambda t: t.kind == TaskKind.GPU and t.op_class == "gemm", 2.0)
        assert via_dispatch.scenario_time_us == direct.scenario_time_us
        assert via_dispatch.affected_tasks == direct.affected_tasks > 0

    def test_dispatches_to_communication(self, small_graph):
        via_dispatch = evaluate(small_graph, "communication", group="dp", speedup=4.0)
        direct = evaluate_predicate(
            small_graph, "dp",
            lambda t: (t.kind == TaskKind.GPU and t.is_communication
                       and t.args.get("group") == "dp"), 4.0)
        assert via_dispatch.scenario_time_us == direct.scenario_time_us
        assert via_dispatch.affected_tasks == direct.affected_tasks > 0

    def test_dispatches_to_launch_overhead(self, small_graph):
        via_dispatch = evaluate(small_graph, "launch_overhead")
        direct = evaluate_predicate(
            small_graph, "launch",
            lambda t: t.kind == TaskKind.CPU and t.name == "cudaLaunchKernel",
            float("inf"))
        assert via_dispatch.scenario_time_us == direct.scenario_time_us
        assert via_dispatch.affected_tasks == direct.affected_tasks > 0

    def test_rejects_unknown_kind_and_missing_op_class(self):
        with pytest.raises(ValueError):
            scenario_for("wormhole")
        with pytest.raises(ValueError):
            scenario_for("kernel_class")
