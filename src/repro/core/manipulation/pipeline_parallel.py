"""Pipeline-parallelism manipulation.

Per §3.4 of the paper, adjusting pipeline parallelism requires updating the
pipeline schedule for the new stage count, grouping the existing tasks by
layer, re-partitioning the layers (and their tasks) into the new stages,
and inserting communication tasks at the new stage boundaries.  This module
drives that flow through template extraction + graph synthesis and also
re-times data-parallel collectives (gradient size per stage changes with
the partition).
"""

from __future__ import annotations

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.synthesize import GraphSynthesizer
from repro.core.manipulation.templates import extract_iteration_template
from repro.core.perf_model import KernelPerfModel
from repro.workload.model_config import ModelConfig
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


def scale_pipeline_parallelism(graph: ExecutionGraph, base_model: ModelConfig,
                               base_parallel: ParallelismConfig, training: TrainingConfig,
                               new_pipeline_parallel: int, perf_model: KernelPerfModel,
                               new_data_parallel: int | None = None) -> ExecutionGraph:
    """Derive the execution graph for a new pipeline-parallel degree.

    ``new_data_parallel`` may be given to change both degrees at once (the
    paper's Figure 7c scenario); tensor parallelism is never changed.  The
    synthesizer re-times on ``perf_model``'s profiled cluster.
    """
    if new_pipeline_parallel < 1:
        raise ValueError("pipeline parallel degree must be >= 1")
    target_parallel = base_parallel.with_changes(
        pipeline_parallel=new_pipeline_parallel,
        data_parallel=new_data_parallel if new_data_parallel is not None else base_parallel.dp,
    )
    template = extract_iteration_template(graph, base_model, base_parallel, training)
    synthesizer = GraphSynthesizer(template, base_model, target_parallel, perf_model,
                                   training=training)
    return synthesizer.build()
