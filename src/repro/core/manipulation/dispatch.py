"""Single dispatch point for graph manipulations.

Every manipulation a study can apply is one ``(kind, label)`` segment of a
:class:`~repro.api.target.Target`.  Each kind registers two steps here
from its own module (:func:`register_manipulation`): a *resolve* step
that turns the segment into the :class:`Configuration` it denotes or
raises that kind's refusal, and a *derive* step that builds its compiled
graph (a retime's is a view of its source's).

:func:`resolve` walks a target's chain of resolve steps from a base
configuration, with no graph.  It is the one refusal policy: sweep-spec
validation, service admission and study derivation all call it, so a
target is refused the same way wherever it is named.  The memory check
needs the profiled GPU, so it runs only where that is known (a study).
:func:`derive` applies one segment's derive step to a graph; only the
refusals that need the graph are left to it (kernels the hardware cost
models cannot classify, a trace no serving operator matches).  A
composite ``workload+hardware`` target is a chain the study walks: it
derives (and memoizes) the workload prefix, then the hardware segment.

A refusal is a :class:`ValueError`, typed as :class:`ManipulationRefusal`
where it carries a machine-readable ``code`` or the TP degrees of a
refused reshard; :mod:`repro.api` maps it onto
:class:`~repro.api.errors.PredictError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.engine import CompiledGraph, compile_graph
from repro.core.manipulation.data_parallel import scale_data_parallelism
from repro.core.manipulation.pipeline_parallel import scale_pipeline_parallelism
from repro.core.perf_model import KernelPerfModel
from repro.workload.inference import WORKLOAD_SERVING, WORKLOAD_TRAINING
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


@dataclass(frozen=True)
class Configuration:
    """What a graph encodes: the workload and the GPU it runs on.

    ``inference`` is ``None`` for a training iteration.  ``model`` is
    ``None`` when the caller cannot resolve it (a sweep spec's
    non-registry serving base), and ``gpu`` is ``None`` when the profiled
    part is unknown (a sweep spec, service admission); the checks that
    need either are skipped.
    """

    model: "ModelConfig | None"
    parallel: ParallelismConfig
    inference: "InferenceConfig | None" = None
    gpu: "GPUSpec | None" = None


@dataclass(frozen=True)
class DeriveContext:
    """Everything a derive step may need.

    ``source`` is the configuration of the graph being manipulated (the
    base, or a composite's workload prefix) and ``target`` the one the
    segment resolves to, both from :func:`resolve`.  Every step re-times on
    ``perf_model``'s cluster, the one the trace was profiled on.
    """

    source: Configuration
    target: Configuration
    training: "TrainingConfig"
    perf_model: KernelPerfModel


#: A resolve step: (configuration, label, payload) -> the configuration
#: the segment denotes.  ``payload`` is the target's non-registry object
#: for the kind (a custom ModelConfig or GPUSpec), else ``None``.
Resolver = Callable[[Configuration, str, Any], Configuration]

#: A derive step: (compiled graph, context) -> the compiled graph of
#: ``context.target``.
Handler = Callable[[CompiledGraph, DeriveContext], CompiledGraph]

#: kind -> (resolve step, derive step, workload family or ``None`` for both).
_REGISTRY: dict[str, tuple[Resolver, Handler, str | None]] = {}


def register_manipulation(kind: str, resolve: Resolver, *,
                          workload: str | None = None) -> Callable[[Handler], Handler]:
    """Decorator: register ``fn`` as the derive step of ``kind``.

    ``resolve`` is the kind's resolve step; ``workload`` restricts the
    kind to training or serving bases (:func:`resolve` refuses the other).
    """
    def decorator(fn: Handler) -> Handler:
        _REGISTRY[kind] = (resolve, fn, workload)
        return fn
    return decorator


def registered_kinds() -> list[str]:
    """The registered manipulation kinds, sorted."""
    return sorted(_REGISTRY)


def _lookup(kind: str) -> tuple[Resolver, Handler, str | None]:
    if kind not in _REGISTRY:
        raise ValueError(f"unknown configuration kind '{kind}'")
    return _REGISTRY[kind]


def resolve(base: Configuration, manipulations: Iterable[tuple[str, str]], *,
            model: "ModelConfig | None" = None,
            gpu: "GPUSpec | None" = None) -> list[Configuration]:
    """``base`` and the configuration after each segment of a chain.

    Raises the first step's refusal.  ``model`` / ``gpu`` are the
    target's non-registry payloads (see :class:`~repro.api.target.Target`).
    """
    payloads = {KIND_ARCHITECTURE: model, KIND_HARDWARE: gpu}
    configurations = [base]
    for kind, label in manipulations:
        resolve_step, _, workload = _lookup(kind)
        config = configurations[-1]
        if workload == WORKLOAD_TRAINING and config.inference is not None:
            raise ValueError(
                f"'{kind}' targets apply to training bases, but the base trace "
                "is a serving episode; use serving targets (batch=/prompt=/tp=) "
                "instead")
        if workload == WORKLOAD_SERVING and config.inference is None:
            raise ValueError(
                "serving targets (batch=/prompt=/tp=) need an inference base, "
                "but the base trace is a training iteration; open the study over "
                "an emulated serving episode (or set base.inference in a sweep spec)")
        configurations.append(resolve_step(config, label, payloads.get(kind)))
    return configurations


def derive(source: CompiledGraph, kind: str,
           context: DeriveContext) -> tuple[CompiledGraph, int]:
    """Apply the derive step of ``kind`` to ``source``, ``context.source``'s graph.

    ``context`` carries what :func:`resolve` returned for the segment,
    which is all the step reads.  Returns the target's compiled graph (a
    retime's is a view of ``source``) and its world size.
    """
    return _lookup(kind)[1](source, context), context.target.parallel.world_size


# -- built-in kinds -----------------------------------------------------------
# Baseline and 3D-parallelism register here: the former is trivial and the
# latter spans two manipulation modules (data_parallel / pipeline_parallel),
# so neither has a single home module to self-register from.  Architecture,
# serving and hardware register in their own modules.


def _resolve_baseline(config: Configuration, label: str, payload: Any) -> Configuration:
    return config


@register_manipulation(KIND_BASELINE, _resolve_baseline)
def _derive_baseline(source: CompiledGraph, context: DeriveContext) -> CompiledGraph:
    return source


def _resolve_parallelism(config: Configuration, label: str,
                         payload: Any) -> Configuration:
    parallel = ParallelismConfig.parse(label)
    base_tp = config.parallel.tp
    if parallel.tp != base_tp:
        raise ManipulationRefusal(
            f"target parallelism {parallel.label()} changes tensor parallelism "
            f"(base TP={base_tp}, target TP={parallel.tp}); graph "
            "manipulation does not support TP modifications",
            base_tp=base_tp, target_tp=parallel.tp)
    if config.model is not None:
        parallel.validate_for_model(config.model.n_layers)
    return replace(config, parallel=parallel)


@register_manipulation(KIND_PARALLELISM, _resolve_parallelism,
                       workload=WORKLOAD_TRAINING)
def _derive_parallelism(source: CompiledGraph, context: DeriveContext) -> CompiledGraph:
    base_parallel, parallel = context.source.parallel, context.target.parallel
    # A DP=1 base traced no gradient all-reduce for the DP path to retime,
    # so a DP change from it is synthesised like a PP change.
    if parallel.pp == base_parallel.pp and (base_parallel.dp > 1 or parallel.dp == 1):
        return scale_data_parallelism(source, base_parallel, parallel.dp,
                                      context.perf_model)
    return compile_graph(scale_pipeline_parallelism(
        source.graph, context.source.model, base_parallel, context.training,
        parallel.pp, context.perf_model, new_data_parallel=parallel.dp))
