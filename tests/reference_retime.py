"""The per-task retimes, verbatim: the oracle of the columnar ones.

These are the data-parallel, hardware and serving retimes as they were
before each became a duration column over its source's compiled graph
(:mod:`repro.core.manipulation`): every task is visited, copied when it
changes, and the result is an :class:`~repro.core.graph.ExecutionGraph`
clone.  ``tests/test_properties.py`` checks that each columnar retime,
materialised, equals these task for task (durations bit-equal, args and
metadata equal), as ``tests/reference_simulator.py`` does for the engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.dispatch import Configuration
from repro.core.manipulation.hardware import (
    REFUSE_UNCLASSIFIED,
    UNCLASSIFIED_BUDGET,
    HardwareManipulationError,
)
from repro.core.manipulation.serving import resolve_serving
from repro.core.perf_model import KernelPerfModel, parse_gemm_shape
from repro.core.tasks import Task, TaskKind
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GPUSpec
from repro.kernels.attention import attention_time_us
from repro.kernels.collectives import collective_time_us, point_to_point_time_us
from repro.kernels.decode import decode_attention_time_us
from repro.kernels.gemm import gemm_time_us
from repro.kernels.memory_bound import BANDWIDTH_EFFICIENCY
from repro.observability import tracing as observability
from repro.trace.events import CudaRuntimeName
from repro.workload.arrivals import STREAM_METADATA_KEY, StreamPlan
from repro.workload.inference import (
    InferenceConfig,
    ServingTarget,
    decode_embedding_ops,
    decode_head_ops,
    decode_layer_ops,
    prefill_embedding_ops,
    prefill_head_ops,
    prefill_layer_ops,
)
from repro.workload.model_config import ModelConfig
from repro.workload.operators import CollectiveKind, OpClass, OpSpec
from repro.workload.parallelism import ParallelismConfig

_OpKey = tuple[str, str, int | None]


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


def _op_table(model: ModelConfig, parallel: ParallelismConfig,
              config: InferenceConfig, plan: StreamPlan | None) -> dict[_OpKey, OpSpec]:
    """Regenerate a serving episode's operators, keyed like trace tasks.

    ``plan`` is a stream's admission schedule, held fixed so the same
    chunks and steps are regenerated at the target shapes; a fixed episode
    (``None``) is the one-chunk schedule of ``config``'s own batch.
    Prefill ops key on their chunk index, decode ops on their global step
    index (shapes depend on the step through the KV-cache contexts).
    Layers are architecturally identical, so the layer index is not part
    of the key.
    """
    if plan is None:
        plan = StreamPlan.one_chunk(config.batch_size, config.decode_length)
    table: dict[_OpKey, OpSpec] = {}
    for chunk, admitted in enumerate(plan.chunk_requests):
        chunk_config = config.with_changes(batch_size=len(admitted))
        for op in (prefill_embedding_ops(model, parallel, chunk_config)
                   + prefill_layer_ops(model, parallel, chunk_config)
                   + prefill_head_ops(model, parallel, chunk_config)):
            table[("prefill", op.name, chunk)] = op
    for step in range(plan.num_steps):
        contexts = plan.step_contexts(config.prompt_length, step)
        for op in (decode_embedding_ops(model, parallel, config, contexts)
                   + decode_layer_ops(model, parallel, config, contexts)
                   + decode_head_ops(model, parallel, config, contexts)):
            table[("decode", op.name, step)] = op
    return table


def _task_key(task: Task) -> _OpKey | None:
    phase = task.args.get("phase")
    op_name = task.args.get("op_name")
    if phase not in ("prefill", "decode") or not op_name:
        return None
    return (str(phase), str(op_name), task.args.get("microbatch"))


def rescale_serving_graph(graph: ExecutionGraph,
                          target: ServingTarget | Configuration, *,
                          base_model: ModelConfig,
                          base_parallel: ParallelismConfig,
                          base_inference: InferenceConfig,
                          perf_model: KernelPerfModel) -> ExecutionGraph:
    """Derive the execution graph for a new serving configuration.

    Parameters
    ----------
    graph:
        Execution graph built from the base serving episode's trace.
    target:
        The batch / prompt / TP knobs to change, resolved (or refused) by
        :func:`resolve_serving`; the registered derive step passes the
        configuration that step already resolved instead.
    base_model, base_parallel, base_inference:
        The configuration the base trace was collected with.
    perf_model:
        Kernel performance model calibrated from the base trace; supplies
        the analytical ratios, evaluated on its profiled cluster grown to
        hold the base and the target (the old collective groups are
        evaluated too).
    """
    if isinstance(target, ServingTarget):
        target = resolve_serving(
            Configuration(base_model, base_parallel, base_inference), target)
    new_parallel, new_inference = target.parallel, target.inference
    stream_payload = graph.metadata.get(STREAM_METADATA_KEY)
    plan = None if stream_payload is None else StreamPlan.from_json(stream_payload)
    scaled_model = perf_model.covering(base_parallel, new_parallel)

    # A stream's schedule is the same on both sides: a target that would
    # reschedule it is the ``batch=`` refusal of :func:`resolve_serving`.
    old_ops = _op_table(base_model, base_parallel, base_inference, plan)
    new_ops = _op_table(base_model, new_parallel, new_inference, plan)
    new_tp_ranks = new_parallel.groups().tp_group(0).ranks

    # Re-timing changes durations and shape args only, so the derived graph
    # is a copy-on-write clone: it keeps the base's task ids and edges and
    # copies just the GPU tasks it retimes.  An operator instance's rescale
    # is evaluated once per recorded group.
    rescales: dict[tuple, Callable[[float], float] | None] = {}
    new_tasks: dict[int, Task] = {}
    gpu_tasks = matched = 0
    for task_id, task in graph.tasks.items():
        if task.kind == TaskKind.GPU:
            gpu_tasks += 1
            key = _task_key(task)
            old_op = old_ops.get(key) if key is not None else None
            new_op = new_ops.get(key) if key is not None else None
            if old_op is not None and new_op is not None:
                matched += 1
                group = (key, tuple(task.args.get("group_ranks", ())))
                if group not in rescales:
                    rescales[group] = _rescale(old_op, new_op, group[1], scaled_model,
                                               new_tp_ranks)
                rescale = rescales[group]
                task = task.copy()
                if rescale is not None:
                    task.duration = rescale(task.duration)
                _update_args(task, new_op, new_tp_ranks)
            elif (old_op is not None and old_op.is_communication
                    and new_parallel.tp == 1):
                # The TP=1 decomposition emits no collectives at all, so
                # the lookup misses; the observed collective degenerates
                # to a rank-local no-op.  Keeping the (empty) task
                # preserves the graph topology.
                matched += 1
                task = task.copy()
                task.duration = 0.0
                task.args["group_ranks"] = list(new_tp_ranks)
                task.args["group_size"] = 1
        new_tasks[task_id] = task
    if gpu_tasks and not matched:
        # Every lookup missed: the trace is not a serving episode of this
        # configuration (e.g. an inference= override forced onto a
        # training trace).  Returning the unmodified graph would report
        # the base time as a confident "prediction" — refuse instead.
        raise ValueError(
            "no GPU task of the trace matched the serving operator "
            "decomposition; the base trace does not look like a serving "
            "episode of this model/parallelism/inference configuration")
    return graph.clone(metadata={
        **graph.metadata,
        "manipulated": "serving",
        "parallelism": new_parallel.label(),
        "inference": new_inference.to_json(),
    }, tasks=new_tasks)


def _rescale(old_op: OpSpec, new_op: OpSpec, old_ranks: tuple[int, ...],
             perf_model: KernelPerfModel,
             new_tp_ranks: tuple[int, ...]) -> Callable[[float], float] | None:
    """Observed duration × analytical(new) / analytical(old) per op class.

    ``None`` keeps the observed duration.
    """
    if old_op == new_op:
        # Unchanged shape — keep the observed duration bit-exact instead
        # of multiplying by a ratio that is 1.0 only up to rounding.
        return None
    if old_op.is_communication:
        assert new_op.collective is not None and old_op.collective is not None
        if not old_ranks:
            return None
        return perf_model.scale_collective(
            kind=old_op.collective.kind,
            old_size=old_op.collective.size_bytes, old_ranks=old_ranks,
            new_size=new_op.collective.size_bytes, new_ranks=new_tp_ranks)
    if old_op.op_class == OpClass.GEMM:
        return perf_model.scale_gemm((old_op.m, old_op.n, old_op.k),
                                     (new_op.m, new_op.n, new_op.k))
    if old_op.op_class == OpClass.DECODE_ATTENTION:
        return perf_model.scale_decode_attention(
            old_op.flops, old_op.bytes_accessed,
            new_op.flops, new_op.bytes_accessed)
    if old_op.op_class == OpClass.ATTENTION:
        return perf_model.scale_flops_bound(old_op.flops, new_op.flops)
    return perf_model.scale_memory_bound(old_op.bytes_accessed,
                                         new_op.bytes_accessed)


def _update_args(clone: Task, new_op: OpSpec, new_tp_ranks: tuple[int, ...]) -> None:
    """Refresh the shape-describing args so breakdowns stay meaningful."""
    if new_op.is_communication:
        clone.args["group_ranks"] = list(new_tp_ranks)
        clone.args["group_size"] = len(new_tp_ranks)
        assert new_op.collective is not None
        clone.args["size_bytes"] = new_op.collective.size_bytes
    else:
        if clone.args.get("flops"):
            clone.args["flops"] = new_op.flops
        if clone.args.get("bytes_accessed"):
            clone.args["bytes_accessed"] = new_op.bytes_accessed
