"""Data-parallelism manipulation.

Per §3.4 of the paper, changing the data-parallel degree leaves every
worker's local computation unchanged: "only the communication needs
adjustment by assigning new execution time to the communication tasks".
This module therefore copies the execution graph and re-times every
data-parallel collective for the new group size and placement (which is
what makes scaling beyond one node more expensive per byte).
"""

from __future__ import annotations

from repro.core.graph import ExecutionGraph
from repro.core.perf_model import KernelPerfModel
from repro.core.tasks import TaskKind
from repro.hardware.cluster import ClusterSpec
from repro.workload.parallelism import ParallelismConfig


def scale_data_parallelism(graph: ExecutionGraph, base_parallel: ParallelismConfig,
                           new_data_parallel: int, perf_model: KernelPerfModel,
                           cluster: ClusterSpec | None = None) -> ExecutionGraph:
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
        Kernel performance model (calibrated from the base trace) used to
        re-time the data-parallel collectives.
    cluster:
        Cluster hosting the target configuration; defaults to a cluster
        sized exactly for the target world size.
    """
    if new_data_parallel < 1:
        raise ValueError("data parallel degree must be >= 1")
    target_parallel = base_parallel.with_changes(data_parallel=new_data_parallel)
    if cluster is None:
        cluster = ClusterSpec.for_world_size(target_parallel.world_size)
    target_groups = target_parallel.groups()
    base_groups = base_parallel.groups()
    scaled_model = KernelPerfModel(cluster=cluster, dtype_bytes=perf_model.dtype_bytes,
                                   calibration=dict(perf_model.calibration))

    new_graph = graph.subgraph_for_ranks(graph.ranks())
    new_graph.metadata.update(manipulated="data_parallel",
                              parallelism=target_parallel.label())
    for task in new_graph.tasks.values():
        if (task.kind == TaskKind.GPU and task.args.get("group") == "dp"
                and task.args.get("collective")):
            old_ranks = tuple(task.args.get("group_ranks", ()))
            if not old_ranks:
                old_ranks = base_groups.dp_group(task.rank).ranks
            # The representative rank keeps its pipeline-stage coordinates;
            # only its data-parallel group changes size and node placement.
            stage = min(base_groups.pp_index(task.rank), target_parallel.pp - 1)
            new_rank = target_groups.rank_of(0, 0, stage)
            new_ranks = target_groups.dp_group(new_rank).ranks
            size_bytes = float(task.args.get("size_bytes", 0.0))
            if new_data_parallel == 1:
                task.duration = 0.0
            else:
                task.duration = scaled_model.scale_collective(
                    task.duration, kind=str(task.args["collective"]),
                    old_size=size_bytes, old_ranks=old_ranks,
                    new_size=size_bytes, new_ranks=new_ranks)
            task.args["group_ranks"] = list(new_ranks)
            task.args["group_size"] = len(new_ranks)
    return new_graph
