"""Engine/legacy equivalence: the array-backed session must reproduce the
seed scheduler's exact start times.

``tests/reference_simulator.py`` preserves the seed dict/heap algorithm
verbatim; every test here asserts bit-identical schedules (``==`` on
floats, no tolerance) between it and :class:`repro.core.engine.
SimulationSession`, across hand-built edge cases, property-style random
graphs and the existing fixture bundles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.replay import simulate_graph
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.core.whatif import Scenario, evaluate_scenarios
from tests.conftest import hyp_max_examples, simulate
from tests.reference_simulator import reference_run


def cpu(graph, rank=0, thread=1, duration=10.0, ts=0.0, name="op", sync_streams=()):
    return graph.add_task(Task(task_id=-1, rank=rank, kind=TaskKind.CPU, name=name,
                               duration=duration, trace_ts=ts, thread=thread,
                               sync_streams=sync_streams))


def gpu(graph, rank=0, stream=7, duration=10.0, ts=0.0, name="kernel", group=None):
    return graph.add_task(Task(task_id=-1, rank=rank, kind=TaskKind.GPU, name=name,
                               duration=duration, trace_ts=ts, stream=stream,
                               collective_group=group))


def assert_bit_identical(graph: ExecutionGraph, start_time: float = 0.0) -> None:
    """Engine session, its materialised result and the seed oracle must agree exactly."""
    expected = reference_run(graph, start_time=start_time)
    compiled = compile_graph(graph)
    run = SimulationSession(compiled).run(start_time=start_time)
    assert {compiled.tasks[i].task_id for i in run.finalize_order.tolist()} == set(expected)
    for task_id, (start, duration) in expected.items():
        index = compiled.index_of[task_id]
        assert run.starts[index] == start
        assert run.durations[index] == duration
    # Finalize order (which orders the rendered trace's same-time events)
    # must match the seed's scheduling order too.
    engine_order = [compiled.tasks[i].task_id for i in run.finalize_order.tolist()]
    assert engine_order == list(expected)


class TestEdgeCases:
    def test_empty_graph(self):
        graph = ExecutionGraph()
        assert_bit_identical(graph)
        run = SimulationSession(compile_graph(graph)).run()
        assert run.iteration_time_us == 0.0
        assert run.total_time() == 0.0

    def test_single_task(self):
        graph = ExecutionGraph()
        cpu(graph, duration=3.5)
        assert_bit_identical(graph)

    def test_zero_duration_chain(self):
        graph = ExecutionGraph()
        previous = None
        for index in range(6):
            task = cpu(graph, duration=0.0, ts=float(index))
            if previous is not None:
                graph.add_dependency(previous.task_id, task.task_id,
                                     DependencyType.CPU_INTRA_THREAD)
            previous = task
        assert_bit_identical(graph)

    def test_zero_duration_ties_on_shared_processor(self):
        # Many tasks ready at t=0 on one stream: scheduling order is decided
        # purely by the heap tie-break, which must match the seed exactly.
        graph = ExecutionGraph()
        for _ in range(8):
            gpu(graph, duration=0.0)
        for _ in range(4):
            gpu(graph, duration=1.0)
        assert_bit_identical(graph)

    def test_start_time_offset(self):
        graph = ExecutionGraph()
        a = cpu(graph, duration=5.0)
        b = gpu(graph, duration=7.0)
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_TO_GPU)
        assert_bit_identical(graph, start_time=1234.5)

    def test_cycle_raises_like_seed(self):
        graph = ExecutionGraph()
        a, b = cpu(graph), cpu(graph, ts=1.0)
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_INTRA_THREAD)
        graph.add_dependency(b.task_id, a.task_id, DependencyType.CPU_INTRA_THREAD)
        with pytest.raises(RuntimeError):
            reference_run(graph)
        with pytest.raises(RuntimeError):
            simulate(graph)


class TestSyncHeavyGraphs:
    def build(self) -> ExecutionGraph:
        """Two ranks, three streams each, per-stream syncs then a device sync."""
        graph = ExecutionGraph()
        for rank in (0, 1):
            launcher = cpu(graph, rank=rank, duration=1.0)
            previous_launch = launcher
            for wave in range(3):
                for stream in (7, 20, 24):
                    launch = cpu(graph, rank=rank, duration=0.5,
                                 ts=float(wave) + stream / 100.0,
                                 name="cudaLaunchKernel")
                    graph.add_dependency(previous_launch.task_id, launch.task_id,
                                         DependencyType.CPU_INTRA_THREAD)
                    kernel = gpu(graph, rank=rank, stream=stream,
                                 duration=10.0 * (wave + 1) + stream,
                                 ts=float(wave))
                    graph.add_dependency(launch.task_id, kernel.task_id,
                                         DependencyType.CPU_TO_GPU)
                    previous_launch = launch
            # Every kernel is enqueued before the first sync, so each sync
            # really drains its stream(s) rather than deadlocking.
            waiter = previous_launch
            for stream in (7, 20):
                sync = cpu(graph, rank=rank, duration=2.0, ts=10.0 + stream,
                           name="cudaStreamSynchronize", sync_streams=(stream,))
                graph.add_dependency(waiter.task_id, sync.task_id,
                                     DependencyType.CPU_INTRA_THREAD)
                waiter = sync
            device_sync = cpu(graph, rank=rank, duration=1.0, ts=50.0,
                              name="cudaDeviceSynchronize", sync_streams=(7, 20, 24))
            graph.add_dependency(waiter.task_id, device_sync.task_id,
                                 DependencyType.CPU_INTRA_THREAD)
        return graph

    def test_sync_heavy_graph_matches_seed(self):
        assert_bit_identical(self.build())

    def test_sync_on_absent_stream(self):
        graph = ExecutionGraph()
        cpu(graph, duration=2.0, name="cudaStreamSynchronize", sync_streams=(99,))
        gpu(graph, duration=5.0)
        assert_bit_identical(graph)

    def test_collective_groups_align(self):
        graph = ExecutionGraph()
        slow = gpu(graph, rank=0, stream=7, duration=300.0)
        send = gpu(graph, rank=0, stream=28, duration=20.0, ts=1.0, group="pair-0")
        graph.add_dependency(slow.task_id, send.task_id, DependencyType.GPU_INTER_STREAM)
        recv = gpu(graph, rank=1, stream=30, duration=20.0, ts=1.0, group="pair-0")
        follow = gpu(graph, rank=1, stream=30, duration=5.0, ts=2.0, group="pair-1")
        graph.add_dependency(recv.task_id, follow.task_id, DependencyType.GPU_INTRA_STREAM)
        solo = gpu(graph, rank=0, stream=28, duration=5.0, ts=3.0, group="pair-1")
        graph.add_dependency(send.task_id, solo.task_id, DependencyType.GPU_INTRA_STREAM)
        assert_bit_identical(graph)


# -- property-style random graphs ---------------------------------------------

_DURATIONS = st.sampled_from([0.0, 0.5, 1.0, 3.25, 10.0, 100.0])


@st.composite
def random_graphs(draw):
    """Small random DAGs mixing CPU/GPU tasks, syncs and collective groups."""
    n = draw(st.integers(min_value=1, max_value=18))
    graph = ExecutionGraph()
    tasks = []
    for index in range(n):
        rank = draw(st.integers(min_value=0, max_value=1))
        duration = draw(_DURATIONS)
        ts = float(draw(st.integers(min_value=0, max_value=5)))
        if draw(st.booleans()):
            stream = draw(st.sampled_from([7, 20]))
            group = draw(st.sampled_from([None, None, "g0", "g1"]))
            task = gpu(graph, rank=rank, stream=stream, duration=duration,
                       ts=ts, group=group)
        else:
            sync = draw(st.sampled_from([(), (), (7,), (7, 20)]))
            task = cpu(graph, rank=rank, thread=draw(st.sampled_from([1, 2])),
                       duration=duration, ts=ts, sync_streams=sync)
        tasks.append(task)
    # Forward-only edges keep the fixed dependencies acyclic.
    for dst_index in range(1, n):
        for src_index in draw(st.lists(st.integers(0, dst_index - 1),
                                       max_size=2, unique=True)):
            graph.add_dependency(tasks[src_index].task_id, tasks[dst_index].task_id,
                                 DependencyType.CPU_INTRA_THREAD)
    return graph


class TestPropertyEquivalence:
    @settings(max_examples=hyp_max_examples(200), deadline=None)
    @given(random_graphs())
    def test_random_graphs_match_seed(self, graph):
        # Random sync/group placement can make a schedule unsatisfiable
        # (e.g. a kernel behind its own stream's sync): the engine must
        # then fail exactly where the seed failed.
        try:
            expected = reference_run(graph)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                SimulationSession(compile_graph(graph)).run()
            return
        compiled = compile_graph(graph)
        run = SimulationSession(compiled).run()
        for task_id, (start, duration) in expected.items():
            index = compiled.index_of[task_id]
            assert run.starts[index] == start
            assert run.durations[index] == duration

    @settings(max_examples=hyp_max_examples(50), deadline=None)
    @given(random_graphs(), st.floats(min_value=0.0, max_value=1e6,
                                      allow_nan=False, allow_infinity=False))
    def test_random_graphs_match_seed_with_offset(self, graph, start_time):
        try:
            expected = reference_run(graph, start_time=start_time)
        except RuntimeError:
            return
        compiled = compile_graph(graph)
        run = SimulationSession(compiled).run(start_time=start_time)
        for task_id, (start, _) in expected.items():
            assert run.starts[compiled.index_of[task_id]] == start


class TestFixtureBundles:
    def test_fixture_graph_matches_seed(self, small_graph):
        assert_bit_identical(small_graph)

    def test_fixture_subgraphs_match_seed(self, small_graph):
        for rank in small_graph.ranks()[:2]:
            assert_bit_identical(small_graph.subgraph_for_ranks([rank]))

    def test_iteration_time_matches_trace_bundle(self, small_graph):
        run = SimulationSession(compile_graph(small_graph)).run()
        rendered = simulate_graph(small_graph).replayed_trace
        assert run.iteration_time_us == rendered.iteration_time()


class TestSessionReuse:
    def test_repeated_runs_are_identical(self, small_graph):
        session = SimulationSession(compile_graph(small_graph))
        first = session.run()
        second = session.run()
        assert np.array_equal(first.starts, second.starts)
        assert np.array_equal(first.finalize_order, second.finalize_order)

    def test_duration_swap_then_base_run_is_clean(self, small_graph):
        session = SimulationSession(compile_graph(small_graph))
        base = session.run()
        halved = session.run(durations=session.compiled.durations * 0.5)
        assert halved.iteration_time_us < base.iteration_time_us
        again = session.run()
        assert np.array_equal(base.starts, again.starts)

    def test_scaled_durations_match_seed_clone_path(self, small_graph):
        # The seed what-if path cloned the graph, rescaled matching tasks
        # and re-simulated; the session path must land on the same times.
        def predicate(task):
            return task.kind == TaskKind.GPU and task.op_class == "gemm"

        clone = small_graph.subgraph_for_ranks(small_graph.ranks())
        affected_clone = 0
        for task in clone.tasks.values():
            if predicate(task):
                task.duration = task.duration / 2.0
                affected_clone += 1
        seed_time = simulate_graph(clone).iteration_time_us

        session = SimulationSession(compile_graph(small_graph))
        durations, affected = session.compiled.scaled_durations(predicate, 2.0)
        assert affected == affected_clone
        assert session.run(durations=durations).iteration_time_us == seed_time

        result = evaluate_scenarios(small_graph, [Scenario("gemm x2", predicate, 2.0)])[0]
        assert result.scenario_time_us == seed_time
        assert result.affected_tasks == affected_clone

    def test_duration_vector_shape_is_checked(self, small_graph):
        session = SimulationSession(compile_graph(small_graph))
        with pytest.raises(ValueError):
            session.run(durations=np.zeros(3))

    @pytest.mark.parametrize("speedup", [0.0, -1.0, float("nan")],
                             ids=["zero", "negative", "nan"])
    def test_scaled_durations_refuse_non_positive_speedups(self, speedup):
        graph = ExecutionGraph()
        launch = cpu(graph, duration=1.0)
        kernel = gpu(graph, duration=4.0, ts=1.0)
        kernel.args["op_class"] = "gemm"
        graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        with pytest.raises(ValueError, match="speedup must be positive"):
            compile_graph(graph).scaled_durations(
                lambda task: task.op_class == "gemm", speedup)


class TestCompiledGraph:
    def test_topological_order_is_complete_and_valid(self, small_graph):
        compiled = compile_graph(small_graph)
        order = compiled.topological.tolist()
        assert sorted(order) == list(range(len(compiled)))
        position = {index: rank for rank, index in enumerate(order)}
        for dependency in small_graph.dependencies:
            assert (position[compiled.index_of[dependency.src]]
                    < position[compiled.index_of[dependency.dst]])

    def test_stream_totals_cover_gpu_tasks(self, small_graph):
        compiled = compile_graph(small_graph)
        assert int(compiled.stream_total.sum()) == len(small_graph.gpu_tasks())

    def test_mask_counts_match_predicate(self, small_graph):
        compiled = compile_graph(small_graph)
        mask = compiled.mask(lambda task: task.kind == TaskKind.GPU)
        assert int(mask.sum()) == len(small_graph.gpu_tasks())
