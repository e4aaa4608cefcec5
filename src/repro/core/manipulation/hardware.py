"""Hardware retargeting: re-time a profiled trace for a hypothetical GPU.

The paper's §3.4 recipe — observed duration × analytical(new) /
analytical(old), so systematic model error cancels in the ratio — extends
naturally from shape changes to *hardware* changes: the analytical models
in :mod:`repro.kernels` are parameterised by a :class:`GPUSpec`, so
evaluating them once on the profiled part and once on a hypothetical part
yields a per-kernel roofline rescaling factor.  Every GPU task is
classified through the same cost model the calibration pass used:

* **communication** — the alpha-beta collective model on a target cluster
  whose intra-node tier runs at the new part's NVLink bandwidth (the
  inter-node fabric is held fixed: a GPU swap does not re-cable the
  datacenter);
* **GEMM** — the roofline ratio of :func:`~repro.kernels.gemm.gemm_time_us`
  at the shape parsed from the kernel name (compute-bound GEMMs scale by
  the TFLOPS ratio, bandwidth-bound ones by the HBM ratio, automatically);
* **attention / decode attention** — roofline ratios over the FLOPs and
  bytes the emulator recorded in the event args;
* **memory-bound classes** (layernorm, elementwise, optimizer, ...) — the
  HBM-bandwidth ratio applied to the duration in excess of the fixed
  kernel overhead, with the overhead swapped for the target part's
  (`kernel_fixed_overhead_us` delta);
* **anything else with recorded FLOPs + bytes** — a generic roofline max
  of the compute and memory ratios.

A factor depends on the kernel's analytical signature alone, so the
source's tasks are keyed once per compiled graph (:func:`_hardware_key`),
one rescale is evaluated per key and the rescales are applied to the
source's duration column.  The result is a view of the source's compiled
graph (:meth:`~repro.core.engine.CompiledGraph.retimed`) that builds its
tasks only when read; over a data-parallel or serving view, a key is the
pair of the view's update code and the source's key.

Kernels that fit none of these classes cannot be retargeted confidently.
A small unclassified residue is tolerated (its durations are kept
verbatim); past :data:`UNCLASSIFIED_BUDGET` of total GPU time the
manipulation refuses with a typed error.  The hardware resolve step
refuses a target whose ``memory_gb`` cannot hold the estimated rank-local
footprint of the configuration the target chain resolves to (its own
model, parallelism and serving knobs), whenever the profiled GPU is
known — mirroring how unsupported TP changes are refused rather than
guessed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.engine import CompiledGraph, as_compiled
from repro.core.graph import ExecutionGraph
from repro.core.manipulation.dispatch import (
    KIND_HARDWARE,
    Configuration,
    DeriveContext,
    ManipulationRefusal,
    register_manipulation,
)
from repro.core.perf_model import (
    _KEEP,
    KernelPerfModel,
    _Rescale,
    parse_gemm_shape,
    rescale_durations,
)
from repro.core.tasks import Task, TaskKind
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GPUSpec, resolve_gpu
from repro.kernels.attention import attention_time_us
from repro.kernels.collectives import collective_time_us, point_to_point_time_us
from repro.kernels.decode import decode_attention_time_us
from repro.kernels.gemm import gemm_time_us
from repro.kernels.memory_bound import BANDWIDTH_EFFICIENCY
from repro.observability import tracing as observability
from repro.trace.events import CudaRuntimeName
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import ModelConfig
from repro.workload.operators import CollectiveKind, OpClass
from repro.workload.parallelism import ParallelismConfig

#: Machine-readable refusal code: the target GPU's memory cannot hold the
#: workload's estimated rank-local footprint.
REFUSE_CAPACITY = "hardware-memory-capacity"

#: Machine-readable refusal code: too much GPU time sits in kernels the
#: cost models cannot classify, so the retarget would be a guess.
REFUSE_UNCLASSIFIED = "hardware-unclassified-kernel"

#: Fraction of total GPU time that may stay unclassified (kept verbatim)
#: before the retarget refuses.
UNCLASSIFIED_BUDGET = 0.01

#: Bytes per parameter of mixed-precision training state: bf16 weights and
#: gradients (2 + 2) plus fp32 master weights and two Adam moments
#: (4 + 4 + 4) — the standard Megatron accounting, with fp32 gradient
#: accumulation folded in.  Activations are deliberately excluded: the
#: estimate is a lower bound, and refusing on a lower-bound overflow is
#: always sound.
TRAINING_BYTES_PER_PARAM = 18.0


class HardwareManipulationError(ManipulationRefusal):
    """A typed hardware-retarget refusal; :attr:`code` names the reason."""


def estimate_rank_memory_bytes(model: ModelConfig, parallel: ParallelismConfig,
                               *, inference: InferenceConfig | None = None,
                               dtype_bytes: int = 2) -> float:
    """Lower-bound estimate of one rank's persistent memory footprint.

    Weights shard over TP×PP (data parallelism replicates).  Training
    ranks additionally hold gradients and fp32 optimizer state
    (:data:`TRAINING_BYTES_PER_PARAM`); serving ranks hold bf16 weights
    plus the fully-decoded KV cache.  Activations are excluded, so an
    overflow of this estimate is definitely an overflow.
    """
    params_per_rank = model.num_parameters / (parallel.tp * parallel.pp)
    if inference is None:
        return params_per_rank * TRAINING_BYTES_PER_PARAM
    weights = params_per_rank * dtype_bytes
    return weights + inference.kv_cache_bytes(model, parallel)


def _check_capacity(gpu: GPUSpec, config: Configuration) -> None:
    parallel, inference = config.parallel, config.inference
    required = estimate_rank_memory_bytes(config.model, parallel, inference=inference)
    capacity = gpu.memory_gb * 2**30
    if required > capacity:
        workload = "serving" if inference is not None else "training"
        raise HardwareManipulationError(
            f"retargeting to {gpu.name} would not fit: the {config.model.name} "
            f"{workload} workload needs at least {required / 2**30:.1f} GiB per rank "
            f"(weights sharded {parallel.tp}x{parallel.pp} over TPxPP"
            f"{', plus KV cache' if inference is not None else ', plus gradients and optimizer state'}) "
            f"but {gpu.name} has {gpu.memory_gb:g} GiB; shard further or "
            "pick a larger-memory spec", code=REFUSE_CAPACITY)


def _cluster_pair(representatives: tuple[Task, ...], gpu: GPUSpec,
                  profiled: ClusterSpec) -> tuple[ClusterSpec, ClusterSpec]:
    """Profiled and target clusters holding every rank a collective names.

    The GPU count only bounds which ranks the cost models accept, and the
    representatives carry every ``group_ranks`` the factors read.
    """
    needed = max((max(task.args["group_ranks"]) + 1 for task in representatives
                  if task.args.get("group_ranks")), default=1)
    old_cluster = replace(profiled, num_gpus=max(profiled.num_gpus, needed))
    # A GPU swap swaps the NVLink generation with it (the cluster reads it
    # from its GPU); the inter-node fabric (NICs, switches) stays.
    return old_cluster, replace(old_cluster, gpu=gpu)


def _roofline_us(flops: float, bytes_accessed: float, gpu: GPUSpec) -> float:
    """Raw-peak roofline time; efficiencies cancel in old/new ratios."""
    compute_us = flops / gpu.bf16_flops_per_us
    memory_us = bytes_accessed / gpu.memory_bytes_per_us
    return max(compute_us, memory_us) + gpu.kernel_fixed_overhead_us


def _communication_rescale(task: Task, old_cluster: ClusterSpec,
                           new_cluster: ClusterSpec) -> _Rescale | None:
    kind = task.args.get("collective")
    ranks = tuple(task.args.get("group_ranks", ()))
    if kind is None or not ranks:
        # A name-marked NCCL kernel without collective metadata cannot be
        # attributed to a link tier.
        return None
    size_bytes = float(task.args.get("size_bytes", 0.0))
    try:
        if kind in CollectiveKind.POINT_TO_POINT:
            old = point_to_point_time_us(size_bytes, ranks[0], ranks[-1], old_cluster)
            new = point_to_point_time_us(size_bytes, ranks[0], ranks[-1], new_cluster)
        else:
            old = collective_time_us(kind, size_bytes, ranks, old_cluster)
            new = collective_time_us(kind, size_bytes, ranks, new_cluster)
    except ValueError:
        return None
    return _Rescale(new, old) if old > 0 else _KEEP


def _retime_factor(task: Task, old_gpu: GPUSpec, new_gpu: GPUSpec,
                   old_cluster: ClusterSpec, new_cluster: ClusterSpec,
                   dtype_bytes: int) -> tuple[str, _Rescale] | None:
    """Classify one GPU kernel: (category, rescale), or ``None``.

    The factor depends only on the kernel's analytical signature
    (:func:`_hardware_key`), never on its observed duration, so it is
    evaluated once per code of the hardware column: the same kernel repeats
    across layers, microbatches and ranks, and the analytical models are the
    expensive part of the retarget.  A compute- or bandwidth-bound class without a
    shape scales the duration above the profiled fixed kernel overhead and
    swaps the overhead for the target part's.
    """
    if task.is_communication:
        rescale = _communication_rescale(task, old_cluster, new_cluster)
        return None if rescale is None else ("communication", rescale)
    op_class = task.op_class
    flops = float(task.args.get("flops", 0.0))
    bytes_accessed = float(task.args.get("bytes_accessed", 0.0))

    def overheaded(ratio: float) -> _Rescale:
        return _Rescale(ratio, 1.0, old_gpu.kernel_fixed_overhead_us,
                        new_gpu.kernel_fixed_overhead_us)

    compute = overheaded(old_gpu.bf16_flops_per_us / new_gpu.bf16_flops_per_us)
    roofline = (_Rescale(_roofline_us(flops, bytes_accessed, new_gpu)
                         / _roofline_us(flops, bytes_accessed, old_gpu), 1.0)
                if flops > 0 and bytes_accessed > 0 else None)
    if op_class == OpClass.GEMM:
        shape = parse_gemm_shape(task.name)
        if shape is not None:
            old = gemm_time_us(*shape, dtype_bytes=dtype_bytes, gpu=old_gpu)
            new = gemm_time_us(*shape, dtype_bytes=dtype_bytes, gpu=new_gpu)
            return "gemm", _Rescale(new, old)
        # A GEMM is confidently compute-bound even without a shape.
        return "gemm", roofline or compute
    if op_class == OpClass.DECODE_ATTENTION and bytes_accessed > 0:
        old = decode_attention_time_us(flops, bytes_accessed, old_gpu)
        new = decode_attention_time_us(flops, bytes_accessed, new_gpu)
        return "decode_attention", _Rescale(new, old)
    if op_class == OpClass.ATTENTION:
        if flops > 0 or bytes_accessed > 0:
            old = attention_time_us(flops, bytes_accessed, old_gpu)
            new = attention_time_us(flops, bytes_accessed, new_gpu)
            return "attention", _Rescale(new, old)
        return "attention", compute
    if op_class in BANDWIDTH_EFFICIENCY:
        # Bandwidth-bound by class: the per-class efficiency cancels, so
        # the variable part scales by the raw HBM ratio and the fixed
        # overhead swaps for the target part's.
        return "memory_bound", overheaded(old_gpu.memory_bytes_per_us
                                          / new_gpu.memory_bytes_per_us)
    return None if roofline is None else ("roofline", roofline)


def _hardware_key(task: Task) -> tuple | str | None:
    """Everything :func:`_retime_factor` reads of a GPU kernel besides its
    duration; ``"launch"`` for a kernel launch, ``None`` for other CPU tasks."""
    if task.kind != TaskKind.GPU:
        return "launch" if task.name == CudaRuntimeName.LAUNCH_KERNEL else None
    args = task.args
    return (task.name, task.op_class, args.get("flops"), args.get("bytes_accessed"),
            args.get("collective"), args.get("size_bytes"), tuple(args.get("group_ranks", ())))


#: What :func:`retarget_hardware` counts an unclassified kernel's time under.
_UNCLASSIFIED = "unclassified"


def retarget_hardware(graph: ExecutionGraph | CompiledGraph, gpu: GPUSpec, *,
                      perf_model: KernelPerfModel) -> CompiledGraph:
    """Derive the compiled graph of the same workload on a different GPU.

    Parameters
    ----------
    graph:
        The graph to retarget, compiled or not — the base replay's, or the
        output of an upstream manipulation in a composite chain (a
        compiled one is retimed without compiling anything).
    gpu:
        The hypothetical target part.  Whether the workload fits its
        memory is the hardware resolve step's check, not this function's.
    perf_model:
        Kernel performance model calibrated on the profiled hardware;
        supplies ``dtype_bytes`` (ratios need no calibration factors —
        they cancel) and its cluster, the one the trace was profiled on:
        that cluster's GPU is the ratio denominator and its fabric is
        carried over (with the NVLink tier swapped for the target part's).

    One rescale is evaluated per key of the source's hardware column
    (:func:`_hardware_key`) and applied to every task of the key with a
    positive duration; the per-category totals of ``hardware_rescale``
    accumulate in task order.  Raises :class:`HardwareManipulationError`
    (:data:`REFUSE_UNCLASSIFIED`) when too much GPU time sits in kernels the
    cost models cannot classify.
    """
    source = as_compiled(graph)
    old_gpu = perf_model.cluster.gpu
    codes, representatives = source.column(_hardware_key)
    old_cluster, new_cluster = _cluster_pair(representatives, gpu, perf_model.cluster)
    launch = (_Rescale(gpu.kernel_launch_overhead_us / old_gpu.kernel_launch_overhead_us,
                       1.0)
              if old_gpu.kernel_launch_overhead_us > 0 else _KEEP)

    rescales: list[_Rescale | None] = []
    categories: list[str | None] = []
    for task in representatives:
        if task.kind == TaskKind.GPU:
            category, rescale = _retime_factor(task, old_gpu, gpu, old_cluster, new_cluster,
                                               perf_model.dtype_bytes) or (_UNCLASSIFIED, None)
        elif task.name == CudaRuntimeName.LAUNCH_KERNEL and launch.new != 1.0:
            category, rescale = "launch", launch
        else:
            category, rescale = None, None
        categories.append(category)
        rescales.append(rescale)
    # Tasks without time keep it; they join an uncounted code of their own.
    observed = source.durations
    codes = np.where(observed > 0, codes, len(rescales))
    rescales.append(None)
    categories.append(None)
    durations = rescale_durations(observed, codes, rescales)

    # ``bincount`` adds its weights in task order, as a loop over the tasks would.
    names = sorted({category for category in categories if category is not None})
    category_of = np.array([-1 if category is None else names.index(category)
                            for category in categories])[codes]
    counted = category_of >= 0
    old_totals, new_totals = (
        np.bincount(category_of[counted], weights=vector[counted],
                    minlength=len(names)).tolist()
        for vector in (observed, durations))
    if _UNCLASSIFIED in names:
        kernel = np.array([category not in (None, "launch")
                           for category in categories])[codes]
        gpu_us = np.bincount(kernel, weights=observed, minlength=2)[1]
        unclassified_us = old_totals[names.index(_UNCLASSIFIED)]
        if unclassified_us > UNCLASSIFIED_BUDGET * gpu_us:
            by_name: dict[str, float] = {}
            for index in np.flatnonzero(category_of == names.index(_UNCLASSIFIED)).tolist():
                name = representatives[codes[index]].name  # the name is part of the key
                by_name[name] = by_name.get(name, 0.0) + float(observed[index])
            worst = sorted(by_name.items(), key=lambda item: -item[1])[:3]
            examples = ", ".join(f"'{name}' ({time:.0f}us)" for name, time in worst)
            raise HardwareManipulationError(
                f"cannot retarget to {gpu.name}: "
                f"{unclassified_us / gpu_us:.0%} of GPU time sits in kernels the "
                f"cost models cannot classify (e.g. {examples}); a confident "
                "roofline rescale needs op-class or flops/bytes metadata on "
                "these kernels", code=REFUSE_UNCLASSIFIED)

    factors = {name: new_totals[index] / old_totals[index]
               for index, name in enumerate(names)
               if name != _UNCLASSIFIED and old_totals[index] > 0}
    for category, factor in factors.items():
        observability.gauge(f"hardware.rescale.{category}", factor)
    previous = source.metadata.get("manipulated")
    return source.retimed(durations, {
        **source.metadata,
        "manipulated": f"{previous}+hardware" if previous else "hardware",
        "gpu": gpu.name, "hardware_rescale": factors})


def _resolve_hardware(config: Configuration, label: str,
                      gpu: GPUSpec | None) -> Configuration:
    name = label.removeprefix("gpu=")
    if gpu is None or gpu.name != name:
        gpu = resolve_gpu(name)
    if config.gpu is not None:
        _check_capacity(gpu, config)
    return replace(config, gpu=gpu)


@register_manipulation(KIND_HARDWARE, _resolve_hardware)
def _derive_hardware(source: CompiledGraph, context: DeriveContext) -> CompiledGraph:
    return retarget_hardware(source, context.target.gpu, perf_model=context.perf_model)
