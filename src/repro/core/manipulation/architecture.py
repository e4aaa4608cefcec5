"""Model-architecture manipulation.

Per §3.4 / §4.3.2 of the paper:

* changing the **number of layers** duplicates (or drops) layers and their
  tasks, re-inserting them with the original dependency pattern;
* changing the **hidden size** or **feed-forward size** updates the input
  dimensions of the affected operators and re-estimates the execution time
  of the shape-sensitive kernels (GEMMs, attention, collectives) with the
  kernel performance model.

Both are expressed through template extraction + graph synthesis against a
modified :class:`~repro.workload.model_config.ModelConfig`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.engine import CompiledGraph, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.manipulation.dispatch import (
    KIND_ARCHITECTURE,
    Configuration,
    DeriveContext,
    register_manipulation,
)
from repro.core.manipulation.synthesize import GraphSynthesizer
from repro.core.manipulation.templates import extract_iteration_template
from repro.core.perf_model import KernelPerfModel
from repro.workload.inference import WORKLOAD_TRAINING
from repro.workload.model_config import ModelConfig, gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


def change_architecture(graph: ExecutionGraph, base_model: ModelConfig,
                        base_parallel: ParallelismConfig, training: TrainingConfig,
                        target_model: ModelConfig,
                        perf_model: KernelPerfModel) -> ExecutionGraph:
    """Derive the execution graph for a modified model architecture.

    The deployment configuration (TP×PP×DP) is kept; only the model changes,
    matching the paper's §4.3.2 evaluation where all variants train under
    the base parallelism configuration.  The synthesizer re-times on
    ``perf_model``'s profiled cluster.
    """
    template = extract_iteration_template(graph, base_model, base_parallel, training)
    synthesizer = GraphSynthesizer(template, target_model, base_parallel, perf_model,
                                   training=training)
    return synthesizer.build()


def _resolve_architecture(config: Configuration, label: str,
                          model: ModelConfig | None) -> Configuration:
    if model is None or model.name != label:
        try:
            model = gpt3_model(label)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from exc
    config.parallel.validate_for_model(model.n_layers)
    return replace(config, model=model)


@register_manipulation(KIND_ARCHITECTURE, _resolve_architecture,
                       workload=WORKLOAD_TRAINING)
def _derive_architecture(compiled: CompiledGraph, context: DeriveContext) -> CompiledGraph:
    source = context.source
    return compile_graph(change_architecture(compiled.graph, source.model, source.parallel,
                                             context.training, context.target.model,
                                             context.perf_model))
