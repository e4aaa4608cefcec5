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

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.dispatch import (
    KIND_HARDWARE,
    Configuration,
    DeriveContext,
    ManipulationRefusal,
    register_manipulation,
)
from repro.core.perf_model import KernelPerfModel, parse_gemm_shape
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


def _cluster_pair(graph: ExecutionGraph, gpu: GPUSpec,
                  profiled: ClusterSpec) -> tuple[ClusterSpec, ClusterSpec]:
    """Profiled and target clusters covering every rank the graph touches."""
    needed = 1
    for task in graph.tasks.values():
        needed = max(needed, task.rank + 1)
        ranks = task.args.get("group_ranks")
        if ranks:
            needed = max(needed, max(ranks) + 1)
    old_cluster = replace(profiled, num_gpus=max(profiled.num_gpus, needed))
    # A GPU swap swaps the NVLink generation with it (the cluster reads it
    # from its GPU); the inter-node fabric (NICs, switches) stays.
    return old_cluster, replace(old_cluster, gpu=gpu)


def _scale_overheaded(observed: float, variable_ratio: float,
                      old_gpu: GPUSpec, new_gpu: GPUSpec) -> float:
    """Swap the fixed kernel overhead and rescale the variable remainder."""
    variable = max(observed - old_gpu.kernel_fixed_overhead_us, 0.0)
    return new_gpu.kernel_fixed_overhead_us + variable * variable_ratio


def _roofline_us(flops: float, bytes_accessed: float, gpu: GPUSpec) -> float:
    """Raw-peak roofline time; efficiencies cancel in old/new ratios."""
    compute_us = flops / gpu.bf16_flops_per_us
    memory_us = bytes_accessed / gpu.memory_bytes_per_us
    return max(compute_us, memory_us) + gpu.kernel_fixed_overhead_us


#: A factor scales the observed duration one of two ways: ``RATIO``
#: multiplies it outright; ``OVERHEADED`` multiplies only the part in
#: excess of the profiled fixed kernel overhead and swaps the overhead for
#: the target part's (:func:`_scale_overheaded`).
_RATIO = "ratio"
_OVERHEADED = "overheaded"


def _communication_pair(task: Task, old_cluster: ClusterSpec,
                        new_cluster: ClusterSpec) -> tuple[float, float] | None:
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
    if old <= 0:
        return 1.0, 1.0
    return new, old


def _retime_factor(task: Task, old_gpu: GPUSpec, new_gpu: GPUSpec,
                   old_cluster: ClusterSpec, new_cluster: ClusterSpec,
                   dtype_bytes: int) -> tuple[str, str, float, float] | None:
    """Classify one GPU kernel: (category, mode, new, old), or ``None``.

    The factor depends only on the kernel's analytical signature, never on
    its observed duration, so callers memoize it by signature
    (:func:`_factor_key`) — the same kernel repeats across layers,
    microbatches and ranks, and the analytical models are the expensive
    part of the retarget.  ``_RATIO`` factors keep the analytical pair
    (new, old) rather than their quotient so the applied expression
    ``observed * new / old`` is bit-identical to an unmemoized retime.
    """
    if task.is_communication:
        pair = _communication_pair(task, old_cluster, new_cluster)
        if pair is None:
            return None
        return ("communication", _RATIO) + pair
    op_class = task.op_class
    flops = float(task.args.get("flops", 0.0))
    bytes_accessed = float(task.args.get("bytes_accessed", 0.0))
    compute_ratio = old_gpu.bf16_flops_per_us / new_gpu.bf16_flops_per_us
    bandwidth_ratio = old_gpu.memory_bytes_per_us / new_gpu.memory_bytes_per_us
    if op_class == OpClass.GEMM:
        shape = parse_gemm_shape(task.name)
        if shape is not None:
            old = gemm_time_us(*shape, dtype_bytes=dtype_bytes, gpu=old_gpu)
            new = gemm_time_us(*shape, dtype_bytes=dtype_bytes, gpu=new_gpu)
            return "gemm", _RATIO, new, old
        if flops > 0 and bytes_accessed > 0:
            ratio = _roofline_us(flops, bytes_accessed, new_gpu) \
                / _roofline_us(flops, bytes_accessed, old_gpu)
            return "gemm", _RATIO, ratio, 1.0
        # A GEMM is confidently compute-bound even without a shape.
        return "gemm", _OVERHEADED, compute_ratio, 1.0
    if op_class == OpClass.DECODE_ATTENTION and bytes_accessed > 0:
        old = decode_attention_time_us(flops, bytes_accessed, old_gpu)
        new = decode_attention_time_us(flops, bytes_accessed, new_gpu)
        return "decode_attention", _RATIO, new, old
    if op_class == OpClass.ATTENTION:
        if flops > 0 or bytes_accessed > 0:
            old = attention_time_us(flops, bytes_accessed, old_gpu)
            new = attention_time_us(flops, bytes_accessed, new_gpu)
            return "attention", _RATIO, new, old
        return "attention", _OVERHEADED, compute_ratio, 1.0
    if op_class in BANDWIDTH_EFFICIENCY:
        # Bandwidth-bound by class: the per-class efficiency cancels, so
        # the variable part scales by the raw HBM ratio and the fixed
        # overhead swaps for the target part's.
        return "memory_bound", _OVERHEADED, bandwidth_ratio, 1.0
    if flops > 0 and bytes_accessed > 0:
        ratio = _roofline_us(flops, bytes_accessed, new_gpu) \
            / _roofline_us(flops, bytes_accessed, old_gpu)
        return "roofline", _RATIO, ratio, 1.0
    return None


def _factor_key(task: Task) -> tuple:
    """Everything :func:`_retime_factor` reads besides the duration."""
    return (task.name, task.op_class, task.args.get("flops"),
            task.args.get("bytes_accessed"), task.args.get("collective"),
            task.args.get("size_bytes"),
            tuple(task.args.get("group_ranks", ())))


def _retime_gpu_task(task: Task, old_gpu: GPUSpec, new_gpu: GPUSpec,
                     old_cluster: ClusterSpec, new_cluster: ClusterSpec,
                     dtype_bytes: int,
                     memo: dict[tuple, tuple[str, str, float, float] | None],
                     ) -> tuple[str, float] | None:
    """Retime one GPU kernel via the memoized factor; ``None`` = unclassified."""
    key = _factor_key(task)
    try:
        factor = memo[key]
    except KeyError:
        factor = memo[key] = _retime_factor(task, old_gpu, new_gpu,
                                            old_cluster, new_cluster,
                                            dtype_bytes)
    if factor is None:
        return None
    category, mode, new, old = factor
    if mode == _RATIO:
        return category, task.duration * new / old
    return category, _scale_overheaded(task.duration, new, old_gpu, new_gpu)


def retarget_hardware(graph: ExecutionGraph, gpu: GPUSpec, *,
                      perf_model: KernelPerfModel) -> ExecutionGraph:
    """Derive the execution graph of the same workload on a different GPU.

    Parameters
    ----------
    graph:
        Execution graph to retarget — the base replay or the output of an
        upstream manipulation in a composite chain.
    gpu:
        The hypothetical target part.  Whether the workload fits its
        memory is the hardware resolve step's check, not this function's.
    perf_model:
        Kernel performance model calibrated on the profiled hardware;
        supplies ``dtype_bytes`` (ratios need no calibration factors —
        they cancel) and its cluster, the one the trace was profiled on:
        that cluster's GPU is the ratio denominator and its fabric is
        carried over (with the NVLink tier swapped for the target part's).

    Raises :class:`HardwareManipulationError` (:data:`REFUSE_UNCLASSIFIED`)
    when too much GPU time sits in kernels the cost models cannot classify.
    """
    old_gpu = perf_model.cluster.gpu
    dtype_bytes = perf_model.dtype_bytes
    old_cluster, new_cluster = _cluster_pair(graph, gpu, perf_model.cluster)
    launch_ratio = (gpu.kernel_launch_overhead_us
                    / old_gpu.kernel_launch_overhead_us
                    if old_gpu.kernel_launch_overhead_us > 0 else 1.0)

    old_totals: dict[str, float] = {}
    new_totals: dict[str, float] = {}
    unclassified_us = 0.0
    gpu_us = 0.0
    unclassified_names: dict[str, float] = {}
    factor_memo: dict[tuple, tuple[str, str, float, float] | None] = {}
    # The retarget changes only durations, so the new graph shares the base
    # graph's topology and tasks, copying a task only when its duration
    # actually moves (copy-on-write): for a same-die target like H100→H200
    # every compute-bound kernel rescales by exactly 1.0 and is shared.
    new_tasks: dict[int, Task] = {}
    for task_id, task in graph.tasks.items():
        if task.kind == TaskKind.GPU and task.duration > 0:
            gpu_us += task.duration
            retimed = _retime_gpu_task(task, old_gpu, gpu, old_cluster,
                                       new_cluster, dtype_bytes, factor_memo)
            if retimed is None:
                unclassified_us += task.duration
                unclassified_names[task.name] = (
                    unclassified_names.get(task.name, 0.0) + task.duration)
            else:
                category, duration = retimed
                old_totals[category] = old_totals.get(category, 0.0) + task.duration
                new_totals[category] = new_totals.get(category, 0.0) + duration
                if duration != task.duration:
                    task = task.copy()
                    task.duration = duration
        elif (task.kind == TaskKind.CPU and task.duration > 0
                and task.name == CudaRuntimeName.LAUNCH_KERNEL
                and launch_ratio != 1.0):
            old_totals["launch"] = old_totals.get("launch", 0.0) + task.duration
            duration = task.duration * launch_ratio
            new_totals["launch"] = new_totals.get("launch", 0.0) + duration
            task = task.copy()
            task.duration = duration
        new_tasks[task_id] = task

    if gpu_us > 0 and unclassified_us > UNCLASSIFIED_BUDGET * gpu_us:
        worst = sorted(unclassified_names.items(), key=lambda item: -item[1])[:3]
        examples = ", ".join(f"'{name}' ({time:.0f}us)" for name, time in worst)
        raise HardwareManipulationError(
            f"cannot retarget to {gpu.name}: "
            f"{unclassified_us / gpu_us:.0%} of GPU time sits in kernels the "
            f"cost models cannot classify (e.g. {examples}); a confident "
            "roofline rescale needs op-class or flops/bytes metadata on "
            "these kernels", code=REFUSE_UNCLASSIFIED)

    factors = {category: new_totals[category] / old_totals[category]
               for category in sorted(old_totals) if old_totals[category] > 0}
    for category, factor in factors.items():
        observability.gauge(f"hardware.rescale.{category}", factor)

    new_graph = graph.clone(tasks=new_tasks)
    previous = graph.metadata.get("manipulated")
    new_graph.metadata["manipulated"] = \
        f"{previous}+hardware" if previous else "hardware"
    new_graph.metadata["gpu"] = gpu.name
    new_graph.metadata["hardware_rescale"] = factors
    return new_graph


def _resolve_hardware(config: Configuration, label: str,
                      gpu: GPUSpec | None) -> Configuration:
    name = label.removeprefix("gpu=")
    if gpu is None or gpu.name != name:
        gpu = resolve_gpu(name)
    if config.gpu is not None:
        _check_capacity(gpu, config)
    return replace(config, gpu=gpu)


@register_manipulation(KIND_HARDWARE, _resolve_hardware)
def _derive_hardware(graph: ExecutionGraph, context: DeriveContext) -> ExecutionGraph:
    return retarget_hardware(graph, context.target.gpu, perf_model=context.perf_model)
