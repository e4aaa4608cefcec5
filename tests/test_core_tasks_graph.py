"""Unit tests for execution-graph tasks and the graph container."""

import gc

import pytest

from repro.api import Study
from repro.core.engine import compile_graph
from repro.core.graph import DEPENDENCY_TYPES, ExecutionGraph
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.workload.training import TrainingConfig


def cpu_task(task_id=-1, rank=0, name="op", duration=1.0, thread=1, ts=0.0, **kwargs):
    return Task(task_id=task_id, rank=rank, kind=TaskKind.CPU, name=name, duration=duration,
                trace_ts=ts, thread=thread, **kwargs)


def gpu_task(task_id=-1, rank=0, name="kernel", duration=1.0, stream=7, ts=0.0, **kwargs):
    return Task(task_id=task_id, rank=rank, kind=TaskKind.GPU, name=name, duration=duration,
                trace_ts=ts, stream=stream, **kwargs)


class TestTask:
    def test_cpu_task_requires_thread(self):
        with pytest.raises(ValueError):
            Task(task_id=0, rank=0, kind=TaskKind.CPU, name="x", duration=1.0)

    def test_gpu_task_requires_stream(self):
        with pytest.raises(ValueError):
            Task(task_id=0, rank=0, kind=TaskKind.GPU, name="x", duration=1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            cpu_task(duration=-1.0)

    def test_processor_identity(self):
        assert cpu_task(rank=2, thread=5).processor == (2, "thread", 5)
        assert gpu_task(rank=3, stream=20).processor == (3, "stream", 20)

    def test_is_communication_from_args(self):
        assert gpu_task(args={"collective": "all_reduce"}).is_communication
        assert not gpu_task(name="gemm").is_communication
        assert gpu_task(name="ncclDevKernel_AllReduce").is_communication

    def test_cpu_task_never_communication(self):
        assert not cpu_task(args={"collective": "all_reduce"}).is_communication

    def test_sync_detection(self):
        assert gpu_task().is_sync is False
        assert cpu_task(sync_streams=(7,)).is_sync

    def test_metadata_properties(self):
        task = gpu_task(args={"layer": 3, "microbatch": 1, "phase": "forward", "op_class": "gemm"})
        assert (task.layer, task.microbatch, task.phase, task.op_class) == (3, 1, "forward", "gemm")

    def test_copy_is_independent(self):
        task = gpu_task(args={"layer": 1})
        clone = task.copy(duration=5.0)
        clone.args["layer"] = 99
        assert task.args["layer"] == 1
        assert task.duration == 1.0 and clone.duration == 5.0


def _add_one(graph, src, dst, dep_type):
    graph.add_dependency(src, dst, dep_type)


def _add_bulk(graph, src, dst, dep_type):
    graph.add_dependencies([src], [dst], [DEPENDENCY_TYPES.index(dep_type)])


#: The two ways to add an edge: one call per edge, or one bulk call.
ADDERS = pytest.mark.parametrize("add", [_add_one, _add_bulk],
                                 ids=["add_dependency", "add_dependencies"])


def _tracked_reachable(root) -> set[int]:
    """Ids of the GC-tracked objects reachable from ``root`` (types excluded)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        stack.extend(ref for ref in gc.get_referents(obj) if gc.is_tracked(ref))
    return seen


class TestExecutionGraph:
    def _linear_graph(self, n=4):
        graph = ExecutionGraph()
        tasks = [graph.add_task(cpu_task(ts=float(i))) for i in range(n)]
        for a, b in zip(tasks, tasks[1:]):
            graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_INTRA_THREAD)
        return graph, tasks

    def test_add_task_assigns_unique_ids(self):
        graph = ExecutionGraph()
        a = graph.add_task(cpu_task())
        b = graph.add_task(cpu_task())
        assert a.task_id != b.task_id
        assert len(graph) == 2

    @ADDERS
    def test_dependency_to_unknown_task_raises(self, add):
        graph, tasks = self._linear_graph(2)
        with pytest.raises(KeyError):
            add(graph, tasks[0].task_id, 999, DependencyType.CPU_INTRA_THREAD)
        assert len(graph.dependencies) == 1

    @ADDERS
    def test_self_dependency_rejected(self, add):
        graph, tasks = self._linear_graph(1)
        with pytest.raises(ValueError):
            add(graph, tasks[0].task_id, tasks[0].task_id,
                DependencyType.CPU_INTRA_THREAD)
        assert graph.dependencies == []

    @pytest.mark.parametrize("bad_dst, error", [(999, KeyError), (None, ValueError)],
                             ids=["unknown_task", "self_edge"])
    def test_bulk_with_one_bad_edge_appends_nothing(self, bad_dst, error):
        graph = ExecutionGraph()
        a, b, c = (graph.add_task(cpu_task(ts=float(i))) for i in range(3))
        bad_dst = c.task_id if bad_dst is None else bad_dst
        code = DEPENDENCY_TYPES.index(DependencyType.CPU_INTRA_THREAD)
        with pytest.raises(error):
            graph.add_dependencies([a.task_id, b.task_id, c.task_id],
                                   [b.task_id, c.task_id, bad_dst], [code] * 3)
        assert len(graph.edge_src) == len(graph.edge_dst) == len(graph.edge_type) == 0
        assert graph.successors(a.task_id) == []

    def test_bulk_copy_matches_single_edges(self):
        # subgraph_for_ranks re-adds every edge in one add_dependencies call.
        single, tasks = self._linear_graph(4)
        single.add_dependency(tasks[0].task_id, tasks[3].task_id,
                              DependencyType.CPU_INTER_THREAD)
        copy = single.subgraph_for_ranks(single.ranks())
        assert copy.dependencies == single.dependencies
        assert copy.dependency_counts() == single.dependency_counts()

    def test_adjacency_keeps_insertion_order(self):
        graph = ExecutionGraph()
        a, b, c, d = (graph.add_task(cpu_task(ts=float(i))) for i in range(4))
        for src in (c, a, b):
            graph.add_dependency(src.task_id, d.task_id, DependencyType.CPU_INTER_THREAD)
        graph.add_dependency(a.task_id, c.task_id, DependencyType.CPU_INTER_THREAD)
        assert graph.predecessors(d.task_id) == [c.task_id, a.task_id, b.task_id]
        assert graph.successors(a.task_id) == [d.task_id, c.task_id]
        # A new edge drops the CSR, so the next read sees it.
        graph.add_dependency(b.task_id, c.task_id, DependencyType.CPU_INTER_THREAD)
        assert graph.predecessors(c.task_id) == [a.task_id, b.task_id]
        assert graph.successors(99) == [] and graph.predecessors(99) == []

    def test_edge_added_to_clone_leaves_parent_unchanged(self):
        graph, tasks = self._linear_graph(3)
        successors = graph.successors(tasks[0].task_id)
        counts = graph.dependency_counts()
        clone = graph.clone()
        clone.add_dependency(tasks[0].task_id, tasks[2].task_id,
                             DependencyType.CPU_INTER_THREAD)
        assert clone.successors(tasks[0].task_id) == [tasks[1].task_id, tasks[2].task_id]
        assert graph.successors(tasks[0].task_id) == successors
        assert graph.dependency_counts() == counts
        assert counts[DependencyType.CPU_INTER_THREAD] == 0

    def test_edge_to_a_removed_task_is_a_value_error(self):
        graph = ExecutionGraph()
        a = graph.add_task(cpu_task())
        b = graph.add_task(cpu_task(ts=1.0))
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_INTRA_THREAD)
        del graph.tasks[b.task_id]
        with pytest.raises(ValueError, match="dependency references a missing task"):
            graph.validate()
        with pytest.raises(ValueError, match="dependency references a missing task"):
            compile_graph(graph)

    def test_successors_and_predecessors(self):
        graph, tasks = self._linear_graph(3)
        assert graph.successors(tasks[0].task_id) == [tasks[1].task_id]
        assert graph.predecessors(tasks[2].task_id) == [tasks[1].task_id]

    def test_topological_order_respects_edges(self):
        graph, tasks = self._linear_graph(5)
        order = graph.topological_order()
        positions = {task_id: index for index, task_id in enumerate(order)}
        for dependency in graph.dependencies:
            assert positions[dependency.src] < positions[dependency.dst]

    def test_acyclic_detection(self):
        graph, tasks = self._linear_graph(3)
        assert graph.is_acyclic()
        graph.add_dependency(tasks[2].task_id, tasks[0].task_id, DependencyType.CPU_INTRA_THREAD)
        assert not graph.is_acyclic()
        with pytest.raises(ValueError):
            graph.validate()

    def test_dependency_counts_by_type(self):
        graph = ExecutionGraph()
        a = graph.add_task(cpu_task())
        b = graph.add_task(gpu_task())
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_TO_GPU)
        counts = graph.dependency_counts()
        assert counts[DependencyType.CPU_TO_GPU] == 1
        assert counts[DependencyType.GPU_INTER_STREAM] == 0

    def test_task_selectors(self):
        graph = ExecutionGraph()
        graph.add_task(cpu_task(rank=0, ts=1.0))
        graph.add_task(gpu_task(rank=0, stream=7, ts=2.0))
        graph.add_task(gpu_task(rank=1, stream=20, ts=3.0))
        assert len(graph.cpu_tasks()) == 1
        assert len(graph.gpu_tasks()) == 2
        assert len(graph.gpu_tasks(rank=1)) == 1
        assert graph.ranks() == [0, 1]
        assert graph.streams(0) == [7]

    def test_tasks_on_stream_sorted_by_trace_order(self):
        graph = ExecutionGraph()
        late = graph.add_task(gpu_task(ts=10.0, name="late"))
        early = graph.add_task(gpu_task(ts=5.0, name="early"))
        names = [t.name for t in graph.tasks_on_stream(0, 7)]
        assert names == ["early", "late"]
        assert late.task_id != early.task_id

    def test_collective_groups(self):
        graph = ExecutionGraph()
        graph.add_task(gpu_task(rank=0, collective_group="act:1:0"))
        graph.add_task(gpu_task(rank=1, collective_group="act:1:0"))
        graph.add_task(gpu_task(rank=0))
        groups = graph.collective_groups()
        assert set(groups) == {"act:1:0"}
        assert len(groups["act:1:0"]) == 2

    def test_subgraph_for_ranks(self):
        graph = ExecutionGraph()
        a = graph.add_task(cpu_task(rank=0))
        b = graph.add_task(gpu_task(rank=0))
        graph.add_task(gpu_task(rank=1))
        graph.add_dependency(a.task_id, b.task_id, DependencyType.CPU_TO_GPU)
        subgraph = graph.subgraph_for_ranks([0])
        assert subgraph.ranks() == [0]
        assert len(subgraph) == 2
        assert len(subgraph.dependencies) == 1


@pytest.mark.parametrize("target", ["parallelism=2x4x2", "model:gpt3-v1"])
def test_derived_graph_stores_no_object_per_edge(target):
    # Besides its tasks, a derived graph holds a handful of GC-tracked
    # objects (itself, its dicts, the three edge arrays and the compiled
    # topology the study keeps in its memo), however many edges it has: no
    # per-edge record, no adjacency lists.
    study = Study.from_emulation("gpt3-15b", "2x2x2",
                                 TrainingConfig(micro_batch_size=1, num_microbatches=2),
                                 iterations=1, seed=1)
    graph, _ = study.derived_graph(target)
    assert graph._compile_memo.topology is not None and len(graph.edge_src) > 5000
    extra = _tracked_reachable(graph) - _tracked_reachable(graph.tasks)
    assert len(extra) < 100
