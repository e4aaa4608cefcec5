"""Single dispatch point for graph manipulations.

Every manipulation a study can apply is one ``(kind, label)`` segment of a
:class:`~repro.api.target.Target`; this module maps the kind onto the
manipulation that implements it through a registry the manipulation
modules populate themselves (:func:`register_manipulation`).  Adding a
manipulation kind therefore adds no branches to :mod:`repro.api.study` —
the hardware axis and any future kinds (e.g. MoE routing) register here
and are immediately reachable from ``predict``/``sweep``/the service.

:func:`derive` applies exactly one segment.  A composite
``workload+hardware`` target is a chain the caller walks: the study
derives (and memoizes) the workload prefix, then hands the hardware
segment and the prefix's graph to :func:`derive`.

Handlers raise :class:`ValueError` (optionally a :class:`ManipulationRefusal`
carrying a machine-readable ``code`` and the TP degrees of a refused
reshard); :class:`~repro.api.Study` maps them onto the typed
:class:`~repro.api.errors.PredictError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.data_parallel import scale_data_parallelism
from repro.core.manipulation.pipeline_parallel import scale_pipeline_parallelism
from repro.core.perf_model import KernelPerfModel
from repro.hardware.cluster import ClusterSpec
from repro.workload.parallelism import ParallelismConfig

if TYPE_CHECKING:
    from repro.hardware.gpu import GPUSpec
    from repro.workload.inference import InferenceConfig
    from repro.workload.model_config import ModelConfig
    from repro.workload.training import TrainingConfig

#: The kinds of target configuration a manipulation can produce.  Shared
#: vocabulary between the API facade (``repro.api``) and the sweep grid
#: (``repro.sweep``): ``baseline`` is the unmodified base graph,
#: ``parallelism`` a TPxPPxDP change, ``architecture`` a model change,
#: ``serving`` a batch/prompt/TP change of an inference episode, and
#: ``hardware`` a roofline retarget onto a different GPU spec.
KIND_BASELINE = "baseline"
KIND_PARALLELISM = "parallelism"
KIND_ARCHITECTURE = "architecture"
KIND_SERVING = "serving"
KIND_HARDWARE = "hardware"


class ManipulationRefusal(ValueError):
    """A typed manipulation refusal carrying machine-readable context.

    ``code`` names the refusal reason; ``base_tp`` / ``target_tp`` carry
    the degrees of a refused tensor-parallel reshard.  The API layer
    propagates all three onto :class:`~repro.api.errors.PredictError`.
    """

    def __init__(self, message: str, *, code: str | None = None,
                 base_tp: int | None = None, target_tp: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.base_tp = base_tp
        self.target_tp = target_tp


@dataclass
class DeriveContext:
    """Everything a manipulation may need to derive a target graph.

    Handlers read what they need and ignore the rest.  ``target_model`` /
    ``target_gpu`` carry the non-registry payload objects of the target
    being derived (custom architectures and custom GPU specs).
    """

    base_model: "ModelConfig"
    base_parallel: ParallelismConfig
    training: "TrainingConfig"
    perf_model: KernelPerfModel
    cluster: ClusterSpec
    target_model: "ModelConfig | None" = None
    target_gpu: "GPUSpec | None" = None
    base_inference: "InferenceConfig | None" = None


#: A handler derives one segment: (graph, label, context, world_size) ->
#: (derived graph, world size after this manipulation).
Handler = Callable[[ExecutionGraph, str, DeriveContext, int],
                   tuple[ExecutionGraph, int]]

_REGISTRY: dict[str, Handler] = {}


def register_manipulation(kind: str) -> Callable[[Handler], Handler]:
    """Class-level decorator: register ``fn`` as the handler for ``kind``."""
    def decorator(fn: Handler) -> Handler:
        _REGISTRY[kind] = fn
        return fn
    return decorator


def registered_kinds() -> list[str]:
    """The registered manipulation kinds, sorted."""
    return sorted(_REGISTRY)


def derive(graph: ExecutionGraph, kind: str, label: str,
           context: DeriveContext,
           world_size: int) -> tuple[ExecutionGraph, int]:
    """Apply the manipulation ``kind`` for ``label`` to ``graph``.

    ``world_size`` is ``graph``'s: the base configuration's, or an
    already-derived workload prefix's when the caller resumes a composite
    chain from it.  Returns the derived graph and the target's world
    size.  Raises :class:`ValueError` for unknown kinds and handler
    refusals.
    """
    handler = _REGISTRY.get(kind)
    if handler is None:
        raise ValueError(f"unknown configuration kind '{kind}'")
    return handler(graph, label, context, world_size)


def refuse_training_manipulation(kind: str, context: DeriveContext) -> None:
    """Refuse a training-iteration manipulation of a serving-episode base."""
    if context.base_inference is not None:
        raise ValueError(
            f"the base trace is a serving episode; "
            f"'{kind}' targets apply to training iterations — use serving "
            "targets (batch=/prompt=/tp=) instead")


# -- built-in handlers --------------------------------------------------------
# Baseline and 3D-parallelism register here: the former is trivial and the
# latter spans two manipulation modules (data_parallel / pipeline_parallel),
# so neither has a single home module to self-register from.  Architecture,
# serving and hardware register in their own modules.


@register_manipulation(KIND_BASELINE)
def _derive_baseline(graph: ExecutionGraph, label: str, context: DeriveContext,
                     world_size: int) -> tuple[ExecutionGraph, int]:
    return graph, context.base_parallel.world_size


@register_manipulation(KIND_PARALLELISM)
def _derive_parallelism(graph: ExecutionGraph, label: str, context: DeriveContext,
                        world_size: int) -> tuple[ExecutionGraph, int]:
    refuse_training_manipulation(KIND_PARALLELISM, context)
    parallel = ParallelismConfig.parse(label)
    base_parallel = context.base_parallel
    if parallel.tp != base_parallel.tp:
        raise ManipulationRefusal(
            f"target parallelism {parallel.label()} changes tensor parallelism "
            f"(base TP={base_parallel.tp}, target TP={parallel.tp}); graph "
            "manipulation does not support TP modifications",
            base_tp=base_parallel.tp, target_tp=parallel.tp)
    # The cluster must cover the base trace's ranks as well as the
    # target's: perf-model rescaling evaluates the *old* collective
    # groups too, so a down-scaled target cannot shrink the cluster.
    derived_cluster = ClusterSpec.for_world_size(
        max(base_parallel.world_size, parallel.world_size))
    if parallel.pp == base_parallel.pp:
        derived = scale_data_parallelism(graph, base_parallel, parallel.dp,
                                         context.perf_model,
                                         cluster=derived_cluster)
    else:
        derived = scale_pipeline_parallelism(graph, context.base_model,
                                             base_parallel, context.training,
                                             parallel.pp, context.perf_model,
                                             new_data_parallel=parallel.dp,
                                             cluster=derived_cluster)
    return derived, parallel.world_size
