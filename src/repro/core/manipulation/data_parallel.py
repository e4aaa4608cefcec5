"""Data-parallelism manipulation.

Per §3.4 of the paper, changing the data-parallel degree leaves every
worker's local computation unchanged: "only the communication needs
adjustment by assigning new execution time to the communication tasks".
This module therefore re-times every data-parallel collective for the new
group size and placement (which is what makes scaling beyond one node more
expensive per byte).  The collectives are keyed once per compiled base
(:func:`_dp_key`), so a derive evaluates one rescale and one args update
per key and applies them to the base's duration column: the result is a
view of the base's compiled graph (:meth:`~repro.core.engine.
CompiledGraph.retimed`) with its structure, batch plan and columns, whose
tasks are built only when read.
"""

from __future__ import annotations

from repro.core.engine import CompiledGraph, as_compiled
from repro.core.graph import ExecutionGraph
from repro.core.perf_model import KernelPerfModel, _Rescale, rescale_durations
from repro.core.tasks import Task, TaskKind
from repro.workload.parallelism import ParallelismConfig


def _dp_key(task: Task) -> tuple | None:
    """What a data-parallel collective's retime reads; ``None`` for other tasks."""
    args = task.args
    if not (task.kind == TaskKind.GPU and args.get("group") == "dp"
            and args.get("collective")):
        return None
    return (args["collective"], args.get("size_bytes", 0.0),
            tuple(args.get("group_ranks", ())), task.rank)


def scale_data_parallelism(graph: ExecutionGraph | CompiledGraph,
                           base_parallel: ParallelismConfig, new_data_parallel: int,
                           perf_model: KernelPerfModel) -> CompiledGraph:
    """Derive the compiled graph for a new data-parallel degree.

    Parameters
    ----------
    graph:
        The base configuration's graph, compiled or not (a compiled one
        is retimed without compiling anything).
    base_parallel:
        The base TP×PP×DP configuration the trace was collected with.
    new_data_parallel:
        Target data-parallel degree (>= 1).
    perf_model:
        Kernel performance model calibrated from the base trace; it
        re-times the data-parallel collectives on its profiled cluster,
        grown to hold the base and the target.
    """
    if new_data_parallel < 1:
        raise ValueError("data parallel degree must be >= 1")
    source = as_compiled(graph)
    target_parallel = base_parallel.with_changes(data_parallel=new_data_parallel)
    target_groups = target_parallel.groups()
    base_groups = base_parallel.groups()
    perf_model = perf_model.covering(base_parallel, target_parallel)

    codes, representatives = source.column(_dp_key)
    rescales: list[_Rescale | None] = []
    updates: list[dict | None] = []
    for task in representatives:
        key = _dp_key(task)
        if key is None:
            rescales.append(None)
            updates.append(None)
            continue
        kind, size_bytes, old_ranks, rank = key
        old_ranks = old_ranks or base_groups.dp_group(rank).ranks
        # The representative rank keeps its pipeline-stage coordinates;
        # only its data-parallel group changes size and node placement.
        stage = min(base_groups.pp_index(rank), target_parallel.pp - 1)
        new_ranks = target_groups.dp_group(target_groups.rank_of(0, 0, stage)).ranks
        size_bytes = float(size_bytes)
        rescales.append(_Rescale(0.0, 1.0) if new_data_parallel == 1 else
                        perf_model.scale_collective(kind=str(kind),
                                                    old_size=size_bytes, old_ranks=old_ranks,
                                                    new_size=size_bytes, new_ranks=new_ranks))
        updates.append({"group_ranks": list(new_ranks), "group_size": len(new_ranks)})
    return source.retimed(
        rescale_durations(source.durations, codes, rescales),
        {**source.metadata, "manipulated": "data_parallel",
         "parallelism": target_parallel.label()},
        codes=codes, updates=updates)
