"""Graph manipulation: derive execution graphs for new configurations.

This package implements §3.4 of the paper.  From the execution graph built
out of a profiled trace it derives new graphs for

* different data-parallel degrees (:func:`scale_data_parallelism`) — only
  the communication tasks change cost, per the paper, so the derivation
  is a retime, like the serving and hardware ones: a duration column over
  the base's compiled graph, returned as a view of it
  (:meth:`~repro.core.engine.CompiledGraph.retimed`) whose tasks are built
  only when read;
* different pipeline-parallel degrees
  (:func:`scale_pipeline_parallelism`) — the layers and their tasks are
  re-partitioned into new stages, the 1F1B schedule is regenerated and
  point-to-point communication is re-inserted at the new boundaries;
* different model architectures (:func:`change_architecture`) — layers are
  duplicated or removed and the affected kernels (GEMMs, attention and
  communication) are re-timed with the kernel performance model;
* different hardware (:func:`retarget_hardware`) — every kernel is re-timed
  by the roofline ratio of the analytical cost models evaluated on the
  profiled and on a hypothetical :class:`~repro.hardware.gpu.GPUSpec`,
  collectives by the alpha-beta model on the retargeted fabric;
* different serving configurations (:func:`rescale_serving_graph`) —
  batch size, prompt length and TP degree re-time an inference episode.

Every manipulation re-times on the calibrated perf model's own cluster,
the profiled one, grown to hold the source and target configurations.

Each manipulation registers a resolve step and a derive step with the
dispatch registry (:mod:`repro.core.manipulation.dispatch`).  Its
:func:`resolve` walk is the one place a target is judged: it turns each
``(kind, label)`` segment of a :class:`~repro.api.target.Target` into the
:class:`Configuration` it denotes or refuses it, for a study, a sweep spec
and service admission alike.  :func:`derive` then applies one segment to
a compiled graph and returns the target's compiled graph (a composite
``workload+hardware`` target is two such steps).

Tensor-parallelism changes are not supported, matching the paper's stated
scope ("we currently do not support modifications to tensor parallelism").
"""

from repro.core.manipulation.dispatch import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    KIND_SERVING,
    Configuration,
    DeriveContext,
    ManipulationRefusal,
    derive,
    register_manipulation,
    registered_kinds,
    resolve,
)
from repro.core.manipulation.templates import (
    CpuOverheads,
    IterationTemplate,
    KernelTemplate,
    extract_iteration_template,
)
from repro.core.manipulation.synthesize import GraphSynthesizer, synthesize_graph
from repro.core.manipulation.data_parallel import scale_data_parallelism
from repro.core.manipulation.pipeline_parallel import scale_pipeline_parallelism
from repro.core.manipulation.architecture import change_architecture
from repro.core.manipulation.serving import rescale_serving_graph
from repro.core.manipulation.hardware import retarget_hardware

__all__ = [
    "KIND_ARCHITECTURE",
    "KIND_BASELINE",
    "KIND_HARDWARE",
    "KIND_PARALLELISM",
    "KIND_SERVING",
    "Configuration",
    "DeriveContext",
    "ManipulationRefusal",
    "derive",
    "register_manipulation",
    "registered_kinds",
    "resolve",
    "KernelTemplate",
    "CpuOverheads",
    "IterationTemplate",
    "extract_iteration_template",
    "GraphSynthesizer",
    "synthesize_graph",
    "scale_data_parallelism",
    "scale_pipeline_parallelism",
    "change_architecture",
    "rescale_serving_graph",
    "retarget_hardware",
]
