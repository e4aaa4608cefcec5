"""Data-parallelism manipulation.

Per §3.4 of the paper, changing the data-parallel degree leaves every
worker's local computation unchanged: "only the communication needs
adjustment by assigning new execution time to the communication tasks".
This module therefore re-times every data-parallel collective for the new
group size and placement (which is what makes scaling beyond one node more
expensive per byte).  The derived graph is a copy-on-write
:meth:`~repro.core.graph.ExecutionGraph.clone`: it keeps the base's task
ids and edges, shares every task it does not retime, and so compiles to
the base's shared structure and batch plan.
"""

from __future__ import annotations

from repro.core.graph import ExecutionGraph
from repro.core.perf_model import KernelPerfModel
from repro.core.tasks import TaskKind
from repro.workload.parallelism import ParallelismConfig


def scale_data_parallelism(graph: ExecutionGraph, base_parallel: ParallelismConfig,
                           new_data_parallel: int,
                           perf_model: KernelPerfModel) -> ExecutionGraph:
    """Derive the execution graph for a new data-parallel degree.

    Parameters
    ----------
    graph:
        Execution graph built from the base configuration's trace.
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
    target_parallel = base_parallel.with_changes(data_parallel=new_data_parallel)
    target_groups = target_parallel.groups()
    base_groups = base_parallel.groups()
    perf_model = perf_model.covering(base_parallel, target_parallel)

    new_tasks = dict(graph.tasks)
    for task_id, task in graph.tasks.items():
        if not (task.kind == TaskKind.GPU and task.args.get("group") == "dp"
                and task.args.get("collective")):
            continue
        old_ranks = tuple(task.args.get("group_ranks", ()))
        if not old_ranks:
            old_ranks = base_groups.dp_group(task.rank).ranks
        # The representative rank keeps its pipeline-stage coordinates;
        # only its data-parallel group changes size and node placement.
        stage = min(base_groups.pp_index(task.rank), target_parallel.pp - 1)
        new_rank = target_groups.rank_of(0, 0, stage)
        new_ranks = target_groups.dp_group(new_rank).ranks
        size_bytes = float(task.args.get("size_bytes", 0.0))
        task = new_tasks[task_id] = task.copy()
        if new_data_parallel == 1:
            task.duration = 0.0
        else:
            task.duration = perf_model.scale_collective(
                kind=str(task.args["collective"]),
                old_size=size_bytes, old_ranks=old_ranks,
                new_size=size_bytes, new_ranks=new_ranks)(task.duration)
        task.args["group_ranks"] = list(new_ranks)
        task.args["group_size"] = len(new_ranks)
    return graph.clone(metadata={**graph.metadata, "manipulated": "data_parallel",
                                 "parallelism": target_parallel.label()},
                       tasks=new_tasks)
