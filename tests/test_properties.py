"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Study
from repro.core.batch import ROW_WALK_MAX_ROWS
from repro.core.breakdown import rank_breakdown
from repro.core.critical_path import critical_path
from repro.core.engine import SimulationSession, _compile_graph, _task_class, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.manipulation import (
    rescale_serving_graph,
    retarget_hardware,
    scale_data_parallelism,
)
from repro.core.perf_model import KernelPerfModel
from repro.core.sm_utilization import sm_utilization_timeline
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.core.whatif import evaluate_scenarios, scenario_for
from repro.hardware.cluster import ClusterSpec, CommunicatorGroups
from repro.hardware.gpu import H100_SXM, resolve_gpu
from repro.kernels.collectives import collective_time_us
from repro.kernels.gemm import gemm_time_us
from repro.trace.events import Category, TraceEvent
from repro.trace.kineto import KinetoTrace
from repro.workload.arrivals import parse_arrival
from repro.workload.inference import InferenceConfig, ServingTarget
from repro.workload.parallelism import ParallelismConfig
from repro.workload.pipeline import one_f_one_b_schedule, stage_layers
from tests import reference_retime
from tests.conftest import hyp_max_examples, simulate, spans, tiny_model
from tests.test_batch_engine import add_processor_chains, scenario_matrix
from tests.test_engine import random_graphs

# --------------------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------------------

kernel_interval = st.tuples(
    st.floats(min_value=0.0, max_value=900.0),
    st.floats(min_value=0.1, max_value=100.0),
    st.booleans(),
)


def _trace_from_intervals(intervals) -> KinetoTrace:
    events = [TraceEvent("ProfilerStep#0", Category.USER_ANNOTATION, 0.0, 1000.0, 0, 0)]
    for index, (ts, dur, is_comm) in enumerate(intervals):
        stream = 20 + 2 * index if is_comm else 7  # distinct streams avoid invalid overlap
        args = {"stream": stream}
        if is_comm:
            args["collective"] = "all_reduce"
        events.append(TraceEvent(f"k{index}", Category.KERNEL, ts, dur, 0, stream, args))
    return KinetoTrace(rank=0, events=events)


# --------------------------------------------------------------------------------------
# Breakdown and SM utilisation invariants
# --------------------------------------------------------------------------------------


class TestBreakdownProperties:
    @given(st.lists(kernel_interval, max_size=20))
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_components_non_negative_and_sum_to_window(self, intervals):
        breakdown = rank_breakdown(_trace_from_intervals(intervals))
        for value in breakdown.as_dict().values():
            assert value >= -1e-6
        assert breakdown.total <= 1000.0 + 1e-6
        busy = breakdown.exposed_compute + breakdown.exposed_communication + breakdown.overlapped
        assert busy <= 1000.0 + 1e-6

    @given(st.lists(kernel_interval, max_size=20))
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_overlap_bounded_by_each_class(self, intervals):
        breakdown = rank_breakdown(_trace_from_intervals(intervals))
        compute_total = breakdown.exposed_compute + breakdown.overlapped
        comm_total = breakdown.exposed_communication + breakdown.overlapped
        assert breakdown.overlapped <= compute_total + 1e-6
        assert breakdown.overlapped <= comm_total + 1e-6

    @given(st.lists(kernel_interval, max_size=15),
           st.floats(min_value=10.0, max_value=500.0))
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_sm_utilization_bounded(self, intervals, bin_us):
        timeline = sm_utilization_timeline(_trace_from_intervals(intervals), bin_us=bin_us)
        assert np.all(timeline >= 0.0)
        assert np.all(timeline <= 1.0 + 1e-9)


# --------------------------------------------------------------------------------------
# Pipeline schedule invariants
# --------------------------------------------------------------------------------------


class TestPipelineProperties:
    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=16))
    @settings(max_examples=hyp_max_examples(100), deadline=None)
    def test_schedule_is_a_permutation_of_forward_and_backward(self, microbatches, pp):
        for stage in range(pp):
            schedule = one_f_one_b_schedule(microbatches, pp, stage)
            assert len(schedule) == 2 * microbatches
            forwards = sorted(a.microbatch for a in schedule if a.kind == "F")
            backwards = sorted(a.microbatch for a in schedule if a.kind == "B")
            assert forwards == list(range(microbatches))
            assert backwards == list(range(microbatches))
            seen = set()
            for action in schedule:
                if action.kind == "F":
                    seen.add(action.microbatch)
                else:
                    assert action.microbatch in seen

    @given(st.integers(min_value=1, max_value=128), st.integers(min_value=1, max_value=16))
    @settings(max_examples=hyp_max_examples(100), deadline=None)
    def test_stage_layers_partition_the_model(self, n_layers, pp):
        if pp > n_layers:
            return
        layers = [layer for stage in range(pp) for layer in stage_layers(n_layers, pp, stage)]
        assert sorted(layers) == list(range(n_layers))
        sizes = [len(stage_layers(n_layers, pp, stage)) for stage in range(pp)]
        assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------------------------
# Communicator group invariants
# --------------------------------------------------------------------------------------


class TestCommunicatorProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=hyp_max_examples(80), deadline=None)
    def test_groups_partition_the_world(self, tp, pp, dp):
        groups = CommunicatorGroups(tp, pp, dp)
        for collection in (groups.all_tp_groups(), groups.all_dp_groups(), groups.all_pp_groups()):
            ranks = sorted(rank for group in collection for rank in group.ranks)
            assert ranks == list(range(groups.world_size))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=hyp_max_examples(80), deadline=None)
    def test_coordinates_roundtrip(self, tp, pp, dp, data):
        groups = CommunicatorGroups(tp, pp, dp)
        rank = data.draw(st.integers(min_value=0, max_value=groups.world_size - 1))
        assert groups.rank_of(groups.tp_index(rank), groups.dp_index(rank),
                              groups.pp_index(rank)) == rank


# --------------------------------------------------------------------------------------
# Cost model invariants
# --------------------------------------------------------------------------------------


class TestCostModelProperties:
    @given(st.integers(min_value=1, max_value=8192), st.integers(min_value=1, max_value=8192),
           st.integers(min_value=1, max_value=8192))
    @settings(max_examples=hyp_max_examples(100), deadline=None)
    def test_gemm_time_positive_and_monotone_in_k(self, m, n, k):
        base = gemm_time_us(m, n, k, 2, H100_SXM)
        double = gemm_time_us(m, n, 2 * k, 2, H100_SXM)
        assert base > 0
        assert double >= base

    @given(st.floats(min_value=1.0, max_value=1e10),
           st.integers(min_value=2, max_value=64))
    @settings(max_examples=hyp_max_examples(100), deadline=None)
    def test_collective_time_monotone_in_size(self, size_bytes, group_size):
        cluster = ClusterSpec(num_gpus=64, gpus_per_node=8)
        ranks = tuple(range(group_size))
        small = collective_time_us("all_reduce", size_bytes, ranks, cluster)
        large = collective_time_us("all_reduce", size_bytes * 2, ranks, cluster)
        assert 0 < small <= large


# --------------------------------------------------------------------------------------
# Simulator invariants on randomly generated DAGs
# --------------------------------------------------------------------------------------


@st.composite
def random_task_graph(draw):
    """A random DAG of CPU/GPU tasks whose edges always point forward."""
    graph = ExecutionGraph()
    n = draw(st.integers(min_value=1, max_value=25))
    tasks = []
    for index in range(n):
        is_gpu = draw(st.booleans())
        duration = draw(st.floats(min_value=0.0, max_value=50.0))
        rank = draw(st.integers(min_value=0, max_value=1))
        if is_gpu:
            stream = draw(st.sampled_from([7, 20, 24]))
            task = Task(task_id=-1, rank=rank, kind=TaskKind.GPU, name=f"g{index}",
                        duration=duration, trace_ts=float(index), stream=stream)
        else:
            thread = draw(st.sampled_from([1, 2]))
            task = Task(task_id=-1, rank=rank, kind=TaskKind.CPU, name=f"c{index}",
                        duration=duration, trace_ts=float(index), thread=thread)
        tasks.append(graph.add_task(task))
    for dst_index in range(1, n):
        for src_index in draw(st.lists(st.integers(min_value=0, max_value=dst_index - 1),
                                       max_size=3, unique=True)):
            graph.add_dependency(tasks[src_index].task_id, tasks[dst_index].task_id,
                                 DependencyType.CPU_INTRA_THREAD)
    return graph


class TestSimulatorProperties:
    @given(random_task_graph())
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_all_tasks_scheduled_and_dependencies_respected(self, graph):
        span = spans(simulate(graph))
        assert span.keys() == graph.tasks.keys()
        for dependency in graph.dependencies:
            assert span[dependency.dst][0] >= span[dependency.src][1] - 1e-6

    @given(random_task_graph())
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_processors_never_oversubscribed(self, graph):
        result = simulate(graph)
        by_processor = {}
        for task, start, end in zip(result.compiled.tasks, result.starts.tolist(),
                                    result.ends.tolist()):
            by_processor.setdefault(task.processor, []).append((start, end))
        for intervals in by_processor.values():
            intervals.sort()
            for previous, current in zip(intervals, intervals[1:]):
                assert current[0] >= previous[1] - 1e-6

    @given(random_task_graph())
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_makespan_bounds(self, graph):
        result = simulate(graph)
        total = result.total_time()
        longest_task = max((t.duration for t in graph.tasks.values()), default=0.0)
        serial = sum(t.duration for t in graph.tasks.values())
        assert total >= longest_task - 1e-6
        assert total <= serial + 1e-6


# --------------------------------------------------------------------------------------
# Critical path: the array walk matches a walk over per-task records
# --------------------------------------------------------------------------------------

def _record_walk(graph: ExecutionGraph, run) -> list[tuple[int, float, float]]:
    """The critical path walked over ``(task, start, duration, end)`` records.

    Records are kept in scheduling order and each processor's in
    ``(start, task_id)`` order; Python's ``max`` keeps the first maximum.
    This is the reference for :func:`critical_path`'s array walk.
    """
    tasks = run.compiled.tasks
    records = {}
    for index in run.finalize_order.tolist():
        start, duration = float(run.starts[index]), float(run.durations[index])
        records[tasks[index].task_id] = (tasks[index], start, duration, start + duration)
    on_processor = {}
    for record in records.values():
        on_processor.setdefault(record[0].processor, []).append(record)
    previous_of = {}
    for chain in on_processor.values():
        chain.sort(key=lambda r: (r[1], r[0].task_id))
        for previous, current in zip(chain, chain[1:]):
            previous_of[current[0].task_id] = previous[0].task_id
    current = max(records.values(), key=lambda r: r[3])
    path, visited = [], set()
    while current[0].task_id not in visited:
        visited.add(current[0].task_id)
        path.append(current)
        candidates = [records[task_id] for task_id in graph.predecessors(current[0].task_id)]
        if current[0].task_id in previous_of:
            candidates.append(records[previous_of[current[0].task_id]])
        if not candidates:
            break
        exact = [r for r in candidates if abs(r[3] - current[1]) < 1e-6]
        current = max(exact or candidates, key=lambda r: r[3])
        if current[3] < run.start_time + 1e-9 and current[1] <= run.start_time:
            path.append(current)
            break
    return [(task.task_id, start, duration) for task, start, duration, _ in reversed(path)]


class TestCriticalPathProperties:
    @given(random_task_graph())
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_array_walk_matches_the_record_walk(self, graph):
        run = simulate(graph)
        path = critical_path(graph, run)
        assert [(e.task.task_id, e.start, e.duration) for e in path.entries] == \
            _record_walk(graph, run)
        assert path.total_time == run.total_time()


# --------------------------------------------------------------------------------------
# Batch walkers: either side of the row bound equals the sequential runs
# --------------------------------------------------------------------------------------


class TestBatchWalkerProperties:
    @given(random_graphs(), st.integers(min_value=1, max_value=2 * ROW_WALK_MAX_ROWS),
           st.sampled_from([0.0, 250.5]), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=hyp_max_examples(40), deadline=None)
    def test_rows_across_the_walker_bound_match_sequential_runs(self, graph, rows,
                                                                start_time, seed):
        session = SimulationSession(compile_graph(add_processor_chains(graph)))
        matrix = scenario_matrix(session.compiled, rows, seed=seed)
        try:
            expected = [session.run(durations=row, start_time=start_time).starts
                        for row in matrix]
        except RuntimeError:
            return
        run = session.run_batch(matrix, start_time=start_time)
        for row, starts in enumerate(expected):
            assert np.array_equal(run.starts[row], starts)


# --------------------------------------------------------------------------------------
# Compile memo: a retimed clone reuses its parent's structure and batch plan
# --------------------------------------------------------------------------------------

#: Per-task retime factors; zero and identity trigger heap tie-breaks.
_RETIME_FACTORS = np.array([0.0, 0.5, 1.0, 1.5, 3.0])


class TestCompileMemoProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           share=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=hyp_max_examples(15), deadline=None)
    def test_memo_hit_times_equal_a_fresh_compile(self, small_graph, seed, share):
        parent = compile_graph(small_graph)
        rng = np.random.default_rng(seed)
        tasks = {}
        for task_id, task in small_graph.tasks.items():
            if rng.random() < share:
                task = task.copy()
                task.duration *= float(rng.choice(_RETIME_FACTORS))
            tasks[task_id] = task
        retimed = small_graph.clone(tasks=tasks)

        shared = compile_graph(retimed)
        assert shared._topology is parent._topology
        fresh = _compile_graph(retimed)
        assert fresh._topology is not parent._topology
        shared_session, fresh_session = SimulationSession(shared), SimulationSession(fresh)
        assert np.array_equal(shared_session.run().starts, fresh_session.run().starts)
        matrix = shared.durations * rng.choice(_RETIME_FACTORS, size=(3, len(shared)))
        assert np.array_equal(shared_session.run_batch(matrix).starts,
                              fresh_session.run_batch(matrix).starts)


# --------------------------------------------------------------------------------------
# What-if masks: a declarative what-if evaluated per task class equals one per task
# --------------------------------------------------------------------------------------

#: Every ``scenario_for`` kind, over values the drawn task args take and miss.
_DECLARATIVE_WHATIFS = (
    [scenario_for("kernel_class", op_class=op_class, speedup=2.0)
     for op_class in ("gemm", "attention", "decode_attention")]
    + [scenario_for("communication", group=group, speedup=1.5)
       for group in (None, "tp", "dp")]
    + [scenario_for("launch_overhead")])


@st.composite
def classified_graphs(draw):
    """:func:`random_graphs` with drawn names and class args on every task."""
    graph = draw(random_graphs())
    for task in graph.tasks.values():
        task.name = draw(st.sampled_from(["kernel", "op", "cudaLaunchKernel",
                                          "ncclDevKernel_AllReduce", "gemm_m8_n8_k8"]))
        for key, values in (("op_class", ["gemm", "attention"]),
                            ("collective", ["all_reduce", ""]),
                            ("group", ["tp", "dp"])):
            value = draw(st.sampled_from([None, *values]))
            if value is not None:
                task.args[key] = value
    return graph


def assert_class_masks_match_task_masks(compiled) -> None:
    for scenario in _DECLARATIVE_WHATIFS:
        by_class, affected = compiled.scaled_durations(scenario.predicate,
                                                       scenario.speedup)
        by_task, expected = compiled.scaled_durations(
            lambda task: scenario.predicate(task), scenario.speedup)
        assert np.array_equal(by_class, by_task)
        assert affected == expected
    assert _task_class in compiled._columns


@pytest.fixture(scope="module")
def stream_study():
    """The benchmark's stream base: gpt3-15b at 2x1x1, four Poisson requests."""
    inference = InferenceConfig(batch_size=4, prompt_length=512, decode_length=2,
                                arrival=parse_arrival("poisson:rate=400,n=4,seed=1"))
    return Study.from_emulation("gpt3-15b", "2x1x1", inference=inference,
                                iterations=1, seed=1)


class TestWhatIfClassMasks:
    @given(classified_graphs())
    @settings(max_examples=hyp_max_examples(80), deadline=None)
    def test_random_graphs(self, graph):
        assert_class_masks_match_task_masks(compile_graph(graph))

    def test_serving_retime(self, stream_study):
        *_, session = stream_study.config_state("prompt=1024")
        assert session.compiled._topology is compile_graph(stream_study.base_graph)._topology
        assert_class_masks_match_task_masks(session.compiled)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=hyp_max_examples(15), deadline=None)
    def test_a_clone_reclassified_after_its_base_compiled(self, small_graph, seed):
        base = compile_graph(small_graph)
        assert_class_masks_match_task_masks(base)
        clone = small_graph.clone()
        rng = np.random.default_rng(seed)
        for task_id in rng.choice(sorted(clone.tasks), size=8, replace=False).tolist():
            task = clone.tasks[task_id]
            if rng.random() < 0.5:
                task.args["op_class"] = str(rng.choice(["gemm", "attention", "elementwise"]))
            else:
                task.name = str(rng.choice(["cudaLaunchKernel", "ncclKernel", "renamed"]))
        compiled = compile_graph(clone)
        assert compiled._topology is base._topology
        assert_class_masks_match_task_masks(compiled)

    def test_declarative_whatifs_read_op_class_once_per_class(self, stream_study,
                                                               monkeypatch):
        graph = stream_study.base_graph
        session = SimulationSession(compile_graph(graph))
        classes = {(task.kind, task.name, task.args.get("op_class"),
                    task.args.get("collective"), task.args.get("group"))
                   for task in graph.tasks.values()}
        reads = []
        monkeypatch.setattr(Task, "op_class", property(
            lambda task: reads.append(task) or task.args.get("op_class")))
        evaluate_scenarios(graph, [scenario_for("kernel_class", op_class="gemm"),
                                   scenario_for("communication"),
                                   scenario_for("launch_overhead")], session=session)
        assert 0 < len(reads) <= len(classes)


# --------------------------------------------------------------------------------------
# Retimes: a duration column over the source equals the per-task retime
# --------------------------------------------------------------------------------------

_RETIME_MODEL = tiny_model(n_layers=2, d_model=256)
_RETIME_SERVING = InferenceConfig(batch_size=2, prompt_length=64, decode_length=2)
_RETIME_PARALLEL = ParallelismConfig.parse("2x1x1")
#: ``(phase, op_name, microbatch)`` of every operator of the serving base,
#: plus one the decomposition does not have.
_SERVING_OPS = sorted(reference_retime._op_table(
    _RETIME_MODEL, _RETIME_PARALLEL, _RETIME_SERVING, None), key=repr) + [
    ("decode", "not_an_op", 0)]
_RETIME_PERF_MODEL = KernelPerfModel(cluster=ClusterSpec.for_world_size(2))


@st.composite
def retimable_graphs(draw):
    """:func:`random_graphs` with drawn names, classes, shapes, groups and serving keys."""
    graph = draw(random_graphs())
    for task in graph.tasks.values():
        task.name = draw(st.sampled_from(["kernel", "cudaLaunchKernel", "ncclKernel_AllReduce",
                                          "gemm_m8_n8_k8", "gemm_m64_n128_k256"]))
        for key, values in (
                ("op_class", ["gemm", "attention", "decode_attention", "layernorm",
                              "elementwise", "comm"]),
                ("collective", ["all_reduce", "all_gather", "send"]),
                ("group", ["tp", "dp", "pp"]),
                ("group_ranks", [[0, 1], [1], [0, 3], [2, 3]]),
                ("flops", [0, 1.5e9, 4e12]),
                ("bytes_accessed", [0, 2e6, 3e9]),
                ("size_bytes", [0, 1e6, 6.5e8])):
            value = draw(st.sampled_from([None, *values]))
            if value is not None:
                task.args[key] = value
        if draw(st.booleans()):
            phase, op_name, microbatch = draw(st.sampled_from(_SERVING_OPS))
            task.args.update(phase=phase, op_name=op_name, microbatch=microbatch)
    return graph


def assert_retime_matches(view, expected) -> None:
    """A retime's materialised graph equals the per-task one, bit for bit."""
    graph = view.graph
    assert graph.tasks.keys() == expected.tasks.keys()
    for task_id, task in expected.tasks.items():
        mine = graph.tasks[task_id]
        assert np.float64(mine.duration).tobytes() == np.float64(task.duration).tobytes()
        assert mine.args == task.args
        assert (mine.name, mine.kind, mine.rank) == (task.name, task.kind, task.rank)
    assert graph.metadata == expected.metadata
    assert view.durations.tobytes() == compile_graph(expected).durations.tobytes()


def _both(columnar, per_task):
    """Each function's result, or the refusal both must raise alike."""
    try:
        expected = per_task()
    except ValueError as refusal:
        with pytest.raises(type(refusal)) as raised:
            columnar()
        assert str(raised.value) == str(refusal)
        return None, None
    return columnar(), expected


class TestRetimeColumns:
    """The data-parallel, hardware and serving retimes against ``tests/reference_retime.py``."""

    @given(retimable_graphs(), st.sampled_from([1, 2, 4]),
           st.sampled_from([None, "H200-SXM", "B200", "A100-SXM"]))
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_data_parallel(self, graph, data_parallel, gpu_name):
        base_parallel = ParallelismConfig.parse("1x1x2")
        view, expected = _both(
            lambda: scale_data_parallelism(graph, base_parallel, data_parallel,
                                           _RETIME_PERF_MODEL),
            lambda: reference_retime.scale_data_parallelism(
                graph, base_parallel, data_parallel, _RETIME_PERF_MODEL))
        if view is None:
            return
        assert_retime_matches(view, expected)
        if gpu_name is not None:
            self._assert_retarget_matches(view, expected, gpu_name)

    @given(retimable_graphs(), st.sampled_from(["H200-SXM", "B200", "A100-SXM"]))
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_hardware(self, graph, gpu_name):
        self._assert_retarget_matches(graph, graph, gpu_name)

    @given(retimable_graphs(),
           st.sampled_from(["batch=4", "prompt=128", "tp=1", "batch=1,prompt=32"]),
           st.sampled_from([None, "H200-SXM", "B200"]))
    @settings(max_examples=hyp_max_examples(60), deadline=None)
    def test_serving(self, graph, label, gpu_name):
        knobs = dict(base_model=_RETIME_MODEL, base_parallel=_RETIME_PARALLEL,
                     base_inference=_RETIME_SERVING, perf_model=_RETIME_PERF_MODEL)
        target = ServingTarget.parse(label)
        view, expected = _both(lambda: rescale_serving_graph(graph, target, **knobs),
                               lambda: reference_retime.rescale_serving_graph(
                                   graph, target, **knobs))
        if view is None:
            return
        assert_retime_matches(view, expected)
        if gpu_name is not None:
            self._assert_retarget_matches(view, expected, gpu_name)

    @staticmethod
    def _assert_retarget_matches(source, expected_source, gpu_name) -> None:
        if source is None:
            return
        gpu = resolve_gpu(gpu_name)
        view, expected = _both(
            lambda: retarget_hardware(source, gpu, perf_model=_RETIME_PERF_MODEL),
            lambda: reference_retime.retarget_hardware(expected_source, gpu,
                                                       perf_model=_RETIME_PERF_MODEL))
        if view is not None:
            assert_retime_matches(view, expected)
