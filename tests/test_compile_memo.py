"""The compile memo: one compiled structure and one batch plan per topology.

A derived configuration that only retimes its parent (a data-parallel
change, a serving re-timing, a hardware retarget) is a view of the
parent's compiled graph: it compiles nothing, builds no task until one
is read, and every batch session reuses the parent's plan.  A clone
(:meth:`ExecutionGraph.clone`) shares the compile memo, so
:func:`compile_graph` binds it to the shared structure.  These tests
count the builds, and check that any structural difference — an edited
scheduling attribute, a new edge, a new task — gets a full compile, with
the start times of an independent copy.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.api import Study
from repro.core import batch as batch_module
from repro.core import engine
from repro.core.batch import FALLBACK_SERVING_STREAM, FALLBACK_UNORDERED_TASKS, BatchSession
from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.graph_builder import GraphBuilder
from repro.core.manipulation import serving as serving_module
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.emulator.api import emulate
from repro.observability import profile
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model
from tests.test_engine import cpu, gpu
from tests.test_serving_stream import STREAM_INFERENCE, stream_model


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Counts full structure compiles and batch-plan builds."""
    counts: Counter = Counter()
    for module, name in ((engine, "_compile_graph"),
                         (batch_module, "compile_batch_plan")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.fixture(scope="module")
def builder_graph() -> ExecutionGraph:
    """A pipeline-parallel builder graph whose ids follow trace order.

    Re-adding every task (``subgraph_for_ranks``) numbers the tasks in
    trace order, so a further fresh copy keeps every id and the two
    compile to the same dense order.
    """
    emulation = emulate(tiny_model(n_layers=2, d_model=256),
                        ParallelismConfig(tensor_parallel=1, pipeline_parallel=2,
                                          data_parallel=1),
                        TrainingConfig(micro_batch_size=1, num_microbatches=2,
                                       sequence_length=128, gradient_bucket_layers=1),
                        iterations=1, seed=3)
    graph = GraphBuilder().build(emulation.profiled)
    return graph.subgraph_for_ranks(graph.ranks())


class TestSharedBuilds:
    def test_stream_sweep_compiles_and_plans_once(self, builds, monkeypatch):
        study = Study.from_emulation(stream_model(), "2x1x1",
                                     inference=STREAM_INFERENCE,
                                     iterations=1, seed=7)
        result = study.sweep(serving=["prompt=1024", "prompt=256", "tp=1", "tp=4"],
                             whatif=["gemm:2", "comm:1.5"], slo_ms=8.0)
        assert len(result) == 15
        assert all(row.serving is not None for row in result.results)
        # The base compiles once (at replay) and plans once (its what-if
        # batch); the four re-timings reuse both.
        assert builds == {"_compile_graph": 1, "compile_batch_plan": 1}
        # Views share the base's class column and sample-token indices, and
        # the base's serving operators survive release(): after the first
        # sweep, a sweep builds no column, finds no sample token, regenerates
        # no base operator and builds no task.
        study.release()
        tables = []
        op_table = serving_module._op_table
        monkeypatch.setattr(serving_module, "_op_table",
                            lambda *args: tables.append(args[1]) or op_table(*args))
        with profile() as prof:
            again = study.sweep(serving=["prompt=1024", "prompt=256", "tp=1", "tp=4"],
                                whatif=["gemm:2", "comm:1.5"], slo_ms=8.0)
        assert [row.to_json() for row in again.results] == \
            [row.to_json() for row in result.results]
        assert len(tables) == 4  # the targets' own operators
        counters = prof.metrics.snapshot()["counters"]
        assert counters["whatif.mask.by_class"] == 10.0
        assert not [name for name in counters if name.startswith((
            "engine.column.", "engine.sample_tokens", "engine.materialise",
            "engine.compile."))], counters

    def test_composite_hardware_compiles_from_its_prefix(self, builds):
        # Sweep specs resolve their base model through the GPT-3 registry.
        study = Study.from_emulation(
            "gpt3-15b", "2x1x1", TrainingConfig(micro_batch_size=1, num_microbatches=2),
            iterations=1, seed=5)
        with profile() as prof:
            result = study.sweep(parallelism=["2x1x2"], hardware=["H200-SXM"])
        assert len(result) == 4
        # Two topologies (the base and 2x1x2), each compiled once: the
        # retargets are views of their compiled sources, so they compile
        # nothing and build no task.
        assert builds["_compile_graph"] == 2
        counters = prof.metrics.snapshot()["counters"]
        assert counters["engine.compile.full"] == 2.0
        assert "engine.compile.shared" not in counters
        assert "engine.materialise" not in counters
        *_, prefix = study.config_state("parallelism:2x1x2")
        *_, composite = study.config_state("parallelism=2x1x2,gpu=H200-SXM")
        assert composite.compiled._topology is prefix.compiled._topology
        assert composite.compiled._retime.source is prefix.compiled


    def test_data_parallel_retime_shares_its_base(self, builds):
        study = Study.from_emulation(
            "gpt3-15b", "2x1x2", TrainingConfig(micro_batch_size=1, num_microbatches=2),
            iterations=1, seed=5)
        base = study.base_graph
        before = {task_id: (task.duration, dict(task.args))
                  for task_id, task in base.tasks.items()}
        with profile() as prof:
            result = study.sweep(parallelism=["2x1x4"], whatif=["gemm:2", "comm:2"])
        assert len(result) == 6
        # One topology: the base compiles at replay (before the profile)
        # and plans once (its what-if batch); the retime is a view of the
        # replay's compiled graph, so it compiles nothing and builds no task.
        assert builds == {"_compile_graph": 1, "compile_batch_plan": 1}
        counters = prof.metrics.snapshot()["counters"]
        assert "engine.compile.full" not in counters
        assert "engine.compile.shared" not in counters
        assert "engine.materialise" not in counters
        derived, _ = study.derived_graph("2x1x4")
        retimed = {task_id for task_id, task in base.tasks.items()
                   if task.kind == TaskKind.GPU and task.args.get("group") == "dp"
                   and task.args.get("collective")}
        assert retimed
        # The input is untouched, and only the retimed collectives are copies.
        assert before == {task_id: (task.duration, task.args)
                          for task_id, task in base.tasks.items()}
        assert derived.tasks.keys() == base.tasks.keys()
        for task_id, task in base.tasks.items():
            assert (derived.tasks[task_id] is task) == (task_id not in retimed)
        *_, base_session = study.config_state(None)
        *_, derived_session = study.config_state("2x1x4")
        assert derived_session.compiled._topology is base_session.compiled._topology


def _first(graph: ExecutionGraph, predicate) -> Task:
    return next(task for task in graph.task_list() if predicate(task))


def _edit_stream(graph: ExecutionGraph) -> None:
    _first(graph, lambda task: task.kind == TaskKind.GPU).stream = 99


def _edit_thread(graph: ExecutionGraph) -> None:
    _first(graph, lambda task: task.kind == TaskKind.CPU).thread = 99


def _edit_sync_streams(graph: ExecutionGraph) -> None:
    _first(graph, lambda task: task.sync_streams).sync_streams = ()


def _edit_collective_group(graph: ExecutionGraph) -> None:
    _first(graph, lambda task: task.collective_group is not None).collective_group = None


def _add_edge(graph: ExecutionGraph) -> None:
    order = graph.topological_order()
    graph.add_dependency(order[0], order[-1], DependencyType.CPU_INTER_THREAD)


def _add_task(graph: ExecutionGraph) -> None:
    last = max(task.trace_ts for task in graph.tasks.values())
    graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.CPU, name="extra",
                        duration=5.0, trace_ts=last + 1.0, thread=99))


class TestSoundness:
    @pytest.mark.parametrize("edit", [_edit_stream, _edit_thread, _edit_sync_streams,
                                      _edit_collective_group, _add_edge, _add_task],
                             ids=["stream", "thread", "sync_streams",
                                  "collective_group", "edge", "task"])
    def test_changed_clone_gets_a_full_compile(self, builder_graph, builds, edit):
        base = builder_graph.clone()
        compile_graph(base)
        clone = base.clone()
        edit(clone)
        builds.clear()
        compiled = compile_graph(clone)
        assert builds["_compile_graph"] == 1
        assert compiled._topology is not base._compile_memo.topology

        fresh = clone.subgraph_for_ranks(clone.ranks())
        assert [task.task_id for task in fresh.task_list()] == \
            [task.task_id for task in clone.task_list()]
        expected = SimulationSession(compile_graph(fresh)).run().starts
        assert np.array_equal(SimulationSession(compiled).run().starts, expected)
        # The parent still has its structure and keeps sharing it.
        builds.clear()
        compile_graph(base)
        assert builds["_compile_graph"] == 0

    def test_unbatchable_verdict_is_shared_with_its_code(self, builds):
        graph = ExecutionGraph()
        cpu(graph, duration=3.0)
        cpu(graph, duration=5.0, ts=1.0)
        gpu(graph, duration=2.0)
        with profile() as prof:
            first = BatchSession(compile_graph(graph))
            again = BatchSession(compile_graph(graph.clone()))
            stream = BatchSession(compile_graph(
                graph.clone(metadata={"serving_stream": {"requests": []}})))
        assert builds == {"_compile_graph": 1, "compile_batch_plan": 1}
        # Every session still counts its own refusal, under its own code.
        counters = prof.metrics.snapshot()["counters"]
        assert counters[f"batch.unbatchable.{FALLBACK_UNORDERED_TASKS}"] == 2.0
        assert counters[f"batch.unbatchable.{FALLBACK_SERVING_STREAM}"] == 1.0
        assert first.fallback_code == again.fallback_code == FALLBACK_UNORDERED_TASKS
        assert again.fallback_reason == first.fallback_reason
        assert stream.fallback_code == FALLBACK_SERVING_STREAM
        assert FALLBACK_UNORDERED_TASKS in stream.fallback_reason
        matrix = np.array([[3.0, 5.0, 2.0], [5.0, 3.0, 2.0]])
        expected = [SimulationSession(again.compiled).run(durations=row).starts
                    for row in matrix]
        assert np.array_equal(again.run(matrix).starts, np.stack(expected))

    def test_memo_is_never_pickled(self, builder_graph):
        graph = builder_graph.clone()
        compile_graph(graph)
        assert graph._compile_memo.topology is not None
        assert pickle.loads(pickle.dumps(graph))._compile_memo is None
        unmemoized = builder_graph.clone()
        unmemoized._compile_memo = None
        assert pickle.dumps(graph) == pickle.dumps(unmemoized)
        # Nor is the adjacency CSR that successors()/predecessors() build.
        first = next(iter(graph.tasks))
        graph.successors(first)
        graph.predecessors(first)
        assert graph._adjacency_csr is not None
        assert pickle.dumps(graph) == pickle.dumps(unmemoized)
