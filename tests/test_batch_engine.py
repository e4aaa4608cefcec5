"""Differential testing of the batched simulation kernel.

The contract of :mod:`repro.core.batch` is *bit-identical* batching:
``run_batch`` on a ``(B, n_tasks)`` duration matrix must produce exactly
the start/end times of B independent
:meth:`~repro.core.engine.SimulationSession.run` calls — float equality,
no tolerance — whether the vectorized kernel or the sequential fallback
handled the batch.  Every test here asserts that differentially:

* hand-built edge cases (heap tie-breaks, collective alignment, sync
  drains, start-time offsets);
* hypothesis-generated random DAGs, reusing the strategies of
  ``tests/test_engine.py`` both raw (which mostly exercises the fallback,
  because random graphs rarely order their processors) and with
  per-processor chains added (which exercises the vectorized kernel the
  way builder-produced graphs do);
* the fallback itself: unordered processors fall back with a reason,
  deadlocking graphs raise the sequential scheduler's ``RuntimeError``;
* the what-if layer: a batched ``evaluate_scenarios`` call must equal
  one single-scenario ``evaluate_scenarios`` call per scenario, result
  for result;
* both walkers of a plan, at the row count where ``BatchPlan.execute``
  switches from the row walk to the level sweep.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    FALLBACK_ANCESTRY_OVERFLOW,
    FALLBACK_COLLECTIVE_DEPENDENCY,
    FALLBACK_SERVING_STREAM,
    FALLBACK_SYNC_CYCLE,
    FALLBACK_UNORDERED_TASKS,
    ROW_WALK_MAX_ROWS,
    BatchSession,
    UnbatchableGraphError,
    compile_batch_plan,
)
from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.tasks import DependencyType
from repro.core.whatif import Scenario, evaluate_scenarios, scenario_for
from repro.observability.tracing import profile
from tests.conftest import hyp_max_examples
from tests.test_engine import cpu, gpu, random_graphs

#: Duration-scaling factors applied per task to build scenario matrices;
#: zero and identity are always included (they trigger heap tie-breaks
#: and baseline replays inside one batch).
_FACTORS = np.array([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])


def scenario_matrix(compiled, batch: int, seed: int = 0) -> np.ndarray:
    """A reproducible ``(batch, n_tasks)`` matrix of rescaled durations."""
    rng = np.random.default_rng(seed)
    factors = rng.choice(_FACTORS, size=(batch, compiled.n_tasks))
    return compiled.durations[None, :] * factors


def assert_batch_identical(graph: ExecutionGraph, matrix: np.ndarray,
                           start_time: float = 0.0) -> "BatchSession":
    """``run_batch`` must equal B independent sequential runs exactly."""
    compiled = compile_graph(graph)
    session = SimulationSession(compiled)
    run = session.run_batch(matrix, start_time=start_time)
    assert run.starts.shape == matrix.shape
    for row in range(len(matrix)):
        sequential = session.run(durations=matrix[row], start_time=start_time)
        assert np.array_equal(run.starts[row], sequential.starts), (
            f"scenario {row}: batched starts diverge from sequential")
        assert np.array_equal(run.ends[row], sequential.ends)
        assert run.iteration_times_us[row] == sequential.iteration_time_us
        assert run.scenario_time_us(row) == sequential.iteration_time_us
    return session.batch_session()


def add_processor_chains(graph: ExecutionGraph) -> ExecutionGraph:
    """Chain every processor's tasks with direct edges (builder invariant).

    Mirrors what :class:`~repro.core.graph_builder.GraphBuilder` does for
    CPU threads and CUDA streams, turning an arbitrary random DAG into one
    the batched kernel can prove statically schedulable.  Edges follow
    ascending task id, so they never create a cycle with the forward-only
    random dependencies.
    """
    by_processor: dict[tuple, list[int]] = {}
    for task in sorted(graph.tasks.values(), key=lambda t: t.task_id):
        by_processor.setdefault(task.processor, []).append(task.task_id)
    existing = {(dep.src, dep.dst) for dep in graph.dependencies}
    for chain in by_processor.values():
        for src, dst in zip(chain, chain[1:]):
            if (src, dst) not in existing:
                graph.add_dependency(src, dst, DependencyType.CPU_INTRA_THREAD)
    return graph


@pytest.fixture(scope="module")
def stream_graph():
    """A continuous-batching episode whose decode batch varies step to step."""
    from repro.core.graph_builder import GraphBuilder
    from repro.emulator.api import emulate
    from repro.workload.arrivals import parse_arrival
    from repro.workload.inference import InferenceConfig
    from repro.workload.parallelism import ParallelismConfig
    from tests.conftest import tiny_model

    inference = InferenceConfig(
        batch_size=4, prompt_length=128, decode_length=2,
        arrival=parse_arrival("poisson:rate=600,n=6,seed=3"))
    result = emulate(tiny_model(), ParallelismConfig(tensor_parallel=2),
                     inference=inference, iterations=1, seed=13)
    return GraphBuilder().build(result.profiled)


def groups_and_drains_graph() -> ExecutionGraph:
    """Two chained ranks with an aligned send/recv pair and draining syncs."""
    graph = ExecutionGraph()
    for rank in (0, 1):
        launch = cpu(graph, rank=rank, duration=1.0, name="cudaLaunchKernel")
        compute = gpu(graph, rank=rank, stream=7, duration=100.0 * (rank + 1))
        graph.add_dependency(launch.task_id, compute.task_id, DependencyType.CPU_TO_GPU)
        p2p = gpu(graph, rank=rank, stream=28, duration=20.0, ts=1.0, group="pair-0")
        graph.add_dependency(compute.task_id, p2p.task_id,
                             DependencyType.GPU_INTER_STREAM)
        sync = cpu(graph, rank=rank, duration=2.0, ts=5.0,
                   name="cudaDeviceSynchronize", sync_streams=(7, 28))
        graph.add_dependency(launch.task_id, sync.task_id,
                             DependencyType.CPU_INTRA_THREAD)
        tail = cpu(graph, rank=rank, duration=3.0, ts=6.0)
        graph.add_dependency(sync.task_id, tail.task_id, DependencyType.CPU_INTRA_THREAD)
    return add_processor_chains(graph)


class TestBatchedPath:
    def test_fixture_graph_is_batchable(self, small_graph):
        plan = compile_batch_plan(compile_graph(small_graph))
        assert plan.n_levels > 0

    def test_fixture_graph_batch_matches_sequential(self, small_graph):
        compiled = compile_graph(small_graph)
        batch = assert_batch_identical(small_graph, scenario_matrix(compiled, 16))
        assert batch.batchable
        assert batch.fallback_reason is None

    def test_base_duration_rows_replay_the_base_run(self, small_graph):
        compiled = compile_graph(small_graph)
        session = SimulationSession(compiled)
        base = session.run()
        matrix = np.tile(compiled.durations, (3, 1))
        run = session.run_batch(matrix)
        assert run.batched
        for row in range(3):
            assert np.array_equal(run.starts[row], base.starts)
        assert (run.iteration_times_us == base.iteration_time_us).all()

    def test_start_time_offset(self, small_graph):
        compiled = compile_graph(small_graph)
        assert_batch_identical(small_graph, scenario_matrix(compiled, 4),
                               start_time=1234.5)

    def test_heap_tie_breaks_with_zero_durations(self):
        # Many tasks ready at t=0 on one stream: the sequential order is
        # decided purely by heap tie-breaks; the chained graph pins the
        # same order structurally and the times must agree exactly.
        graph = ExecutionGraph()
        for index in range(8):
            gpu(graph, duration=0.0, ts=float(index))
        for index in range(4):
            gpu(graph, duration=1.0, ts=8.0 + index)
        add_processor_chains(graph)
        compiled = compile_graph(graph)
        batch = assert_batch_identical(graph, scenario_matrix(compiled, 8))
        assert batch.batchable

    def test_collective_alignment_batches(self):
        # The cross-rank pair graph from tests/test_engine.py: send/recv
        # pairs must align on a common start in every scenario.
        graph = ExecutionGraph()
        slow = gpu(graph, rank=0, stream=7, duration=300.0)
        send = gpu(graph, rank=0, stream=28, duration=20.0, ts=1.0, group="pair-0")
        graph.add_dependency(slow.task_id, send.task_id, DependencyType.GPU_INTER_STREAM)
        recv = gpu(graph, rank=1, stream=30, duration=20.0, ts=1.0, group="pair-0")
        follow = gpu(graph, rank=1, stream=30, duration=5.0, ts=2.0, group="pair-1")
        graph.add_dependency(recv.task_id, follow.task_id, DependencyType.GPU_INTRA_STREAM)
        solo = gpu(graph, rank=0, stream=28, duration=5.0, ts=3.0, group="pair-1")
        graph.add_dependency(send.task_id, solo.task_id, DependencyType.GPU_INTRA_STREAM)
        compiled = compile_graph(graph)
        batch = assert_batch_identical(graph, scenario_matrix(compiled, 12))
        assert batch.batchable

    def test_stream_drain_sync_batches(self):
        # A sync must wait for the *last* kernel of its streams, whichever
        # kernel that is in each scenario.
        graph = ExecutionGraph()
        launch = cpu(graph, duration=1.0, name="cudaLaunchKernel")
        kernels = []
        for index, stream in enumerate((7, 7, 20)):
            kernel = gpu(graph, stream=stream, duration=10.0 * (index + 1),
                         ts=float(index))
            graph.add_dependency(launch.task_id, kernel.task_id,
                                 DependencyType.CPU_TO_GPU)
            kernels.append(kernel)
        sync = cpu(graph, duration=2.0, ts=5.0, name="cudaDeviceSynchronize",
                   sync_streams=(7, 20))
        graph.add_dependency(launch.task_id, sync.task_id,
                             DependencyType.CPU_INTRA_THREAD)
        tail = cpu(graph, duration=3.0, ts=6.0)
        graph.add_dependency(sync.task_id, tail.task_id,
                             DependencyType.CPU_INTRA_THREAD)
        add_processor_chains(graph)
        compiled = compile_graph(graph)
        batch = assert_batch_identical(graph, scenario_matrix(compiled, 16))
        assert batch.batchable

    def test_empty_graph(self):
        graph = ExecutionGraph()
        run = SimulationSession(compile_graph(graph)).run_batch(np.zeros((3, 0)))
        assert run.batch_size == 3
        assert (run.iteration_times_us == 0.0).all()

    def test_single_scenario_batch(self, small_graph):
        compiled = compile_graph(small_graph)
        assert_batch_identical(small_graph, scenario_matrix(compiled, 1))

    def test_empty_batch(self, small_graph):
        run = SimulationSession(compile_graph(small_graph)).run_batch(
            np.zeros((0, len(small_graph))))
        assert run.batch_size == 0
        assert len(run.iteration_times_us) == 0

    def test_duration_matrix_shape_is_checked(self, small_graph):
        session = SimulationSession(compile_graph(small_graph))
        with pytest.raises(ValueError):
            session.run_batch(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            session.run_batch(np.zeros(len(small_graph)))


class TestFallbackPath:
    def unordered_graph(self) -> ExecutionGraph:
        """Two same-thread tasks with no dependency: heap order depends on
        the durations, so no duration-independent schedule exists."""
        graph = ExecutionGraph()
        cpu(graph, duration=3.0)
        cpu(graph, duration=5.0, ts=1.0)
        gpu(graph, duration=2.0)
        return graph

    def test_unordered_processor_falls_back_with_reason(self):
        graph = self.unordered_graph()
        batch = BatchSession(compile_graph(graph))
        assert not batch.batchable
        assert "not dependency-ordered" in batch.fallback_reason
        with pytest.raises(UnbatchableGraphError):
            compile_batch_plan(compile_graph(graph))

    def test_fallback_is_bit_identical_too(self):
        graph = self.unordered_graph()
        compiled = compile_graph(graph)
        # The serialisation genuinely flips between these rows (3 vs 5 and
        # 5 vs 3): the fallback must reproduce the sequential heap exactly.
        matrix = np.array([[3.0, 5.0, 2.0],
                           [5.0, 3.0, 2.0],
                           [0.0, 0.0, 0.0]])
        batch = assert_batch_identical(graph, matrix)
        run = batch.run(matrix)
        assert not run.batched

    def test_fallback_runs_on_a_session_of_its_own(self):
        # The batched runner keeps no reference to the session that opened
        # it, so the session is freed by its reference count alone.
        session = SimulationSession(compile_graph(self.unordered_graph()))
        batch = session.batch_session()
        assert not batch.run(np.zeros((3, len(session.compiled)))).batched
        freed = weakref.ref(session)
        gc.disable()
        try:
            del session
            assert freed() is None
        finally:
            gc.enable()
        assert batch._fallback is not None

    def test_deadlock_raises_like_sequential(self):
        # A kernel behind its own stream's synchronisation: Algorithm 1
        # deadlocks; the batched path must surface the same failure.
        graph = ExecutionGraph()
        sync = cpu(graph, duration=1.0, name="cudaStreamSynchronize",
                   sync_streams=(7,))
        kernel = gpu(graph, duration=5.0)
        graph.add_dependency(sync.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        compiled = compile_graph(graph)
        batch = BatchSession(compiled)
        assert not batch.batchable
        with pytest.raises(RuntimeError):
            SimulationSession(compiled).run()
        with pytest.raises(RuntimeError):
            batch.run(np.zeros((2, 2)))

    def test_group_internal_dependency_is_unbatchable(self):
        graph = ExecutionGraph()
        a = gpu(graph, rank=0, stream=7, duration=1.0, group="pair")
        b = gpu(graph, rank=1, stream=7, duration=1.0, ts=1.0, group="pair")
        graph.add_dependency(a.task_id, b.task_id, DependencyType.GPU_INTER_STREAM)
        compiled = compile_graph(graph)
        batch = BatchSession(compiled)
        assert not batch.batchable
        with pytest.raises(RuntimeError):
            SimulationSession(compiled).run()
        with pytest.raises(RuntimeError):
            batch.run(np.zeros((1, 2)))


class TestFallbackReasonCodes:
    """One test per way the duration-independence proof can refuse.

    Every :class:`UnbatchableGraphError` must carry its machine-readable
    ``code`` and the :class:`BatchSession` must expose it as
    ``fallback_code`` (the human-readable message stays in
    ``fallback_reason``).
    """

    def unordered_graph(self) -> ExecutionGraph:
        graph = ExecutionGraph()
        cpu(graph, duration=3.0)
        cpu(graph, duration=5.0, ts=1.0)
        gpu(graph, duration=2.0)
        return graph

    def test_unordered_processor_tasks_code(self):
        compiled = compile_graph(self.unordered_graph())
        with pytest.raises(UnbatchableGraphError) as excinfo:
            compile_batch_plan(compiled)
        assert excinfo.value.code == FALLBACK_UNORDERED_TASKS
        batch = BatchSession(compiled)
        assert batch.fallback_code == FALLBACK_UNORDERED_TASKS

    def test_ancestry_table_overflow_code(self, monkeypatch):
        # Same-thread tasks ordered only transitively (through the GPU
        # kernel) force the ancestry table; a zero budget refuses it.
        graph = ExecutionGraph()
        first = cpu(graph, duration=1.0)
        kernel = gpu(graph, duration=2.0)
        second = cpu(graph, duration=1.0, ts=1.0)
        graph.add_dependency(first.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        graph.add_dependency(kernel.task_id, second.task_id, DependencyType.GPU_TO_CPU)
        compiled = compile_graph(graph)
        assert compile_batch_plan(compiled).n_levels > 0
        monkeypatch.setattr("repro.core.batch._ANCESTRY_TABLE_LIMIT", 0)
        with pytest.raises(UnbatchableGraphError) as excinfo:
            compile_batch_plan(compiled)
        assert excinfo.value.code == FALLBACK_ANCESTRY_OVERFLOW
        batch = BatchSession(compiled)
        assert batch.fallback_code == FALLBACK_ANCESTRY_OVERFLOW

    def test_collective_internal_dependency_code(self):
        graph = ExecutionGraph()
        a = gpu(graph, rank=0, stream=7, duration=1.0, group="pair")
        b = gpu(graph, rank=1, stream=7, duration=1.0, ts=1.0, group="pair")
        graph.add_dependency(a.task_id, b.task_id, DependencyType.GPU_INTER_STREAM)
        compiled = compile_graph(graph)
        with pytest.raises(UnbatchableGraphError) as excinfo:
            compile_batch_plan(compiled)
        assert excinfo.value.code == FALLBACK_COLLECTIVE_DEPENDENCY
        assert BatchSession(compiled).fallback_code == FALLBACK_COLLECTIVE_DEPENDENCY

    def test_sync_cycle_code(self):
        graph = ExecutionGraph()
        sync = cpu(graph, duration=1.0, name="cudaStreamSynchronize",
                   sync_streams=(7,))
        kernel = gpu(graph, duration=5.0)
        graph.add_dependency(sync.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        compiled = compile_graph(graph)
        with pytest.raises(UnbatchableGraphError) as excinfo:
            compile_batch_plan(compiled)
        assert excinfo.value.code == FALLBACK_SYNC_CYCLE
        assert BatchSession(compiled).fallback_code == FALLBACK_SYNC_CYCLE

    def test_batch_run_carries_the_fallback_reason(self, small_graph):
        fast = BatchSession(compile_graph(small_graph))
        run = fast.run(np.zeros((2, len(small_graph))))
        assert run.batched and run.fallback_reason is None
        slow = BatchSession(compile_graph(self.unordered_graph()))
        run = slow.run(np.zeros((2, 3)))
        assert not run.batched
        assert run.fallback_reason == slow.fallback_reason
        assert "not dependency-ordered" in run.fallback_reason


# -- property-style differential tests ----------------------------------------


def _matrices(compiled, data: st.DataObject, rows: int = 3) -> np.ndarray:
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    return scenario_matrix(compiled, rows, seed=seed)


class TestPropertyDifferential:
    @settings(max_examples=hyp_max_examples(120), deadline=None)
    @given(random_graphs(), st.data())
    def test_random_graphs_batch_like_sequential(self, graph, data):
        """Raw random DAGs: mostly the fallback path, occasionally batched."""
        compiled = compile_graph(graph)
        session = SimulationSession(compiled)
        matrix = _matrices(compiled, data)
        try:
            expected = [session.run(durations=row).starts.copy() for row in matrix]
        except RuntimeError:
            with pytest.raises(RuntimeError):
                session.run_batch(matrix)
            return
        run = session.run_batch(matrix)
        for row, starts in enumerate(expected):
            assert np.array_equal(run.starts[row], starts)

    @settings(max_examples=hyp_max_examples(120), deadline=None)
    @given(random_graphs(), st.data())
    def test_chained_random_graphs_batch_like_sequential(self, graph, data):
        """Chained random DAGs: the builder invariant, vectorized path."""
        add_processor_chains(graph)
        compiled = compile_graph(graph)
        session = SimulationSession(compiled)
        matrix = _matrices(compiled, data, rows=4)
        try:
            expected = [session.run(durations=row).starts.copy() for row in matrix]
        except RuntimeError:
            with pytest.raises(RuntimeError):
                session.run_batch(matrix)
            return
        run = session.run_batch(matrix)
        for row, starts in enumerate(expected):
            assert np.array_equal(run.starts[row], starts)

    @settings(max_examples=hyp_max_examples(60), deadline=None)
    @given(random_graphs(),
           st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_chained_random_graphs_with_offset(self, graph, start_time):
        add_processor_chains(graph)
        compiled = compile_graph(graph)
        session = SimulationSession(compiled)
        matrix = np.tile(compiled.durations, (2, 1)) * np.array([[1.0], [0.5]])
        try:
            expected = [session.run(durations=row, start_time=start_time).starts.copy()
                        for row in matrix]
        except RuntimeError:
            return
        run = session.run_batch(matrix, start_time=start_time)
        for row, starts in enumerate(expected):
            assert np.array_equal(run.starts[row], starts)


class TestServingGraphBatching:
    """Decode-step graphs must take the vectorized fast path, bit-identically.

    This is the proof the sweep runner relies on: serving sweep groups are
    evaluated through ``run_batch``, so the inference builder's graphs must
    be *provably* duration-independent (per-processor chains, no mid-episode
    partial syncs) and the batched times must equal sequential replays
    exactly.
    """

    @pytest.fixture(scope="class")
    def serving_graph(self):
        from repro.core.graph_builder import GraphBuilder
        from repro.emulator.api import emulate
        from repro.workload.inference import InferenceConfig
        from repro.workload.parallelism import ParallelismConfig
        from tests.conftest import tiny_model

        result = emulate(tiny_model(), ParallelismConfig(tensor_parallel=2),
                         inference=InferenceConfig(batch_size=4, prompt_length=128,
                                                   decode_length=3),
                         iterations=1, seed=13)
        return GraphBuilder().build(result.profiled)

    def test_decode_graph_is_provably_batchable(self, serving_graph):
        plan = compile_batch_plan(compile_graph(serving_graph))
        assert plan.n_levels > 0

    def test_decode_graph_batches_bit_identically(self, serving_graph):
        compiled = compile_graph(serving_graph)
        batch = assert_batch_identical(serving_graph, scenario_matrix(compiled, 16))
        assert batch.batchable
        assert batch.fallback_reason is None

    def test_decode_batch_run_takes_the_fast_path(self, serving_graph):
        compiled = compile_graph(serving_graph)
        session = SimulationSession(compiled)
        run = session.run_batch(scenario_matrix(compiled, 8))
        assert run.batched

    def test_serving_whatif_scenarios_match_individual_evaluation(self, serving_graph):
        scenarios = [
            scenario_for("kernel_class", op_class="decode_attention", speedup=2.0),
            scenario_for("kernel_class", op_class="gemm", speedup=2.0),
            scenario_for("communication", group="tp", speedup=3.0),
            scenario_for("launch_overhead"),
        ]
        batched = evaluate_scenarios(serving_graph, scenarios)
        for scenario, result in zip(scenarios, batched):
            alone = evaluate_scenarios(serving_graph, [scenario])[0]
            assert result == alone
        decode_attn = batched[0]
        assert decode_attn.affected_tasks > 0


class TestStreamGraphBatching:
    """Continuous-batching stream graphs through the batched kernel.

    Unlike the fixed episode, the stream's decode batch varies step to
    step (requests join and leave), so the scenario matrix exercises
    levels of genuinely different widths — the differential contract is
    the same: bit-identical to sequential replays.
    """

    def test_stream_has_varying_step_batches(self, stream_graph):
        from repro.core.serving_metrics import stream_plan_of

        plan = stream_plan_of(stream_graph.metadata)
        assert plan is not None
        assert len({len(step) for step in plan.step_requests}) > 1

    def test_stream_graph_is_provably_batchable(self, stream_graph):
        plan = compile_batch_plan(compile_graph(stream_graph))
        assert plan.n_levels > 0

    def test_stream_graph_batches_bit_identically(self, stream_graph):
        batch = assert_batch_identical(
            stream_graph, scenario_matrix(compile_graph(stream_graph), 16))
        assert batch.batchable
        assert batch.fallback_code is None

    def test_unbatchable_stream_graph_reports_serving_code(self):
        # When the proof fails on a graph that carries a stream plan, the
        # fallback is re-coded so serving sweeps can report "sequential
        # because stream" distinctly from generic refusals.
        graph = ExecutionGraph(metadata={"serving_stream": {"requests": []}})
        cpu(graph, duration=3.0)
        cpu(graph, duration=5.0, ts=1.0)
        gpu(graph, duration=2.0)
        batch = BatchSession(compile_graph(graph))
        assert not batch.batchable
        assert batch.fallback_code == FALLBACK_SERVING_STREAM
        assert FALLBACK_UNORDERED_TASKS in batch.fallback_reason

    def test_unbatchable_stream_graph_still_bit_identical(self):
        graph = ExecutionGraph(metadata={"serving_stream": {"requests": []}})
        cpu(graph, duration=3.0)
        cpu(graph, duration=5.0, ts=1.0)
        gpu(graph, duration=2.0)
        matrix = np.array([[3.0, 5.0, 2.0], [5.0, 3.0, 2.0]])
        batch = assert_batch_identical(graph, matrix)
        assert batch.fallback_code == FALLBACK_SERVING_STREAM


class TestWhatIfBatching:
    SCENARIOS = (
        scenario_for("kernel_class", op_class="gemm", speedup=2.0),
        scenario_for("kernel_class", op_class="gemm", speedup=4.0),
        scenario_for("communication", speedup=2.0),
        scenario_for("communication", group="dp", speedup=3.0),
        scenario_for("launch_overhead"),
        Scenario(name="everything x1.25", predicate=lambda task: True, speedup=1.25),
        Scenario(name="nothing", predicate=lambda task: False, speedup=2.0),
    )

    def test_batched_scenarios_match_individual_evaluation(self, small_graph):
        batched = evaluate_scenarios(small_graph, list(self.SCENARIOS))
        for scenario, result in zip(self.SCENARIOS, batched):
            alone = evaluate_scenarios(small_graph, [scenario])[0]
            assert result == alone

    def test_shared_session_and_baseline(self, small_graph):
        # Row 0 of the batch is the graph's own durations: every result's
        # baseline is a sequential run of them, bit for bit.
        session = SimulationSession(compile_graph(small_graph))
        baseline = session.run()
        batched = evaluate_scenarios(small_graph, [None, *self.SCENARIOS],
                                     session=session)
        assert all(result.baseline_time_us == baseline.iteration_time_us
                   for result in batched)
        assert batched[0].scenario_time_us == baseline.iteration_time_us
        assert batched[0].affected_tasks == 0

    def test_empty_scenario_list(self, small_graph):
        assert evaluate_scenarios(small_graph, []) == []

    def test_invalid_speedup_rejected(self, small_graph):
        with pytest.raises(ValueError):
            evaluate_scenarios(small_graph,
                               [Scenario("bad", lambda task: True, 0.0)])

    def test_study_builder_uses_one_batched_run(self, profiled_bundle):
        from repro.api import Study

        study = Study.from_trace(profiled_bundle)
        results = (study.whatif()
                   .kernel_class("gemm", 2.0)
                   .communication(2.0)
                   .launch_overhead()
                   .run())
        singles = [study.whatif("kernel_class", op_class="gemm", speedup=2.0),
                   study.whatif("communication", speedup=2.0),
                   study.whatif("launch_overhead")]
        assert results == singles


class TestWalkerThreshold:
    """Both walkers, at the row count where ``BatchPlan.execute`` switches.

    ``ROW_WALK_MAX_ROWS`` rows take the row walk and one more row the
    level sweep; either must equal the sequential runs exactly.
    """

    ROWS = (ROW_WALK_MAX_ROWS, ROW_WALK_MAX_ROWS + 1)

    @pytest.mark.parametrize("start_time", [0.0, 1234.5])
    @pytest.mark.parametrize("rows", ROWS)
    def test_groups_and_drains(self, rows, start_time):
        graph = groups_and_drains_graph()
        compiled = compile_graph(graph)
        assert compiled.group_members and any(compiled.sync_slots)
        batch = assert_batch_identical(graph, scenario_matrix(compiled, rows, seed=rows),
                                       start_time=start_time)
        assert batch.batchable

    @pytest.mark.parametrize("start_time", [0.0, 1234.5])
    @pytest.mark.parametrize("rows", ROWS)
    def test_stream_graph(self, stream_graph, rows, start_time):
        compiled = compile_graph(stream_graph)
        batch = assert_batch_identical(stream_graph,
                                       scenario_matrix(compiled, rows, seed=rows),
                                       start_time=start_time)
        assert batch.batchable

    @pytest.mark.parametrize(("rows", "walker", "other"), [
        (8, "row_walk", "level_sweep"), (64, "level_sweep", "row_walk")])
    def test_group_width_picks_the_walker(self, small_graph, rows, walker, other):
        # Row 0 is the configuration, so a group of ``rows - 1`` scenarios.
        scenarios = [Scenario(f"all x{1 + k / 64:g}", lambda task: True, 1 + k / 64)
                     for k in range(1, rows)]
        with profile() as prof:
            results = evaluate_scenarios(small_graph, scenarios)
        counters = prof.metrics.snapshot()["counters"]
        assert len(results) == rows - 1
        assert counters[f"batch.execute.{walker}"] == 1.0
        assert f"batch.execute.{other}" not in counters
