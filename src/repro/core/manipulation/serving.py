"""Serving (inference) graph manipulation.

A serving episode's task graph is *topology-invariant* under the three
what-if knobs the inference workload family exposes — request batch size,
prompt length and tensor-parallel degree: the same kernels run in the same
order, only their shapes (and the TP communicator) change.  Deriving the
graph for a serving target is therefore a pure re-timing pass: every GPU
task is matched back to its operator (the emulator records ``op_name``,
``phase`` and the prefill-chunk or decode-step index in the event args),
the operator's shape is regenerated for the base and the target
configuration from the decomposition (:mod:`repro.workload.inference`)
and the schedule the emulator used (a stream's plan from the graph
metadata, the one-chunk schedule for a fixed-batch episode), and the
observed duration is rescaled by the analytical ratio — the paper's §3.4
recipe, where systematic model error cancels in the ratio.  An operator
instance repeats on every layer and rank, so the base's tasks are keyed
once per compiled base (:func:`_serving_key`: the operator instance, its
recorded group and which shape args it records), the base's operators
are regenerated once per base, and a derive evaluates one rescale and
one args update per key and applies them to the base's duration column
(bit-identical to evaluating them per task).  The result is a view of
the base's compiled graph (:meth:`~repro.core.engine.CompiledGraph.
retimed`): it keeps the base's task ids, edges, batch plan and columns,
and builds its tasks only when read.

Knobs that would change the topology are refused up front by the serving
resolve step (:func:`resolve_serving`), the one copy of the serving
refusals that both the chain walk and direct callers of
:func:`rescale_serving_graph` go through: changing ``decode_length`` adds
or removes whole decode steps, resharding a TP=1 base *up* would have to
invent collective tasks that the base trace never contained, and changing
the batch cap of a continuous-batching stream changes its admission
schedule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.engine import CompiledGraph, as_compiled
from repro.core.graph import ExecutionGraph
from repro.core.manipulation.dispatch import (
    KIND_SERVING,
    Configuration,
    DeriveContext,
    ManipulationRefusal,
    register_manipulation,
)
from repro.core.perf_model import KernelPerfModel, _Rescale, rescale_durations
from repro.core.tasks import Task, TaskKind
from repro.workload.arrivals import STREAM_METADATA_KEY, StreamPlan
from repro.workload.inference import (
    WORKLOAD_SERVING,
    InferenceConfig,
    ServingTarget,
    decode_embedding_ops,
    decode_head_ops,
    decode_layer_ops,
    prefill_embedding_ops,
    prefill_head_ops,
    prefill_layer_ops,
    validate_tp_for_model,
)
from repro.workload.model_config import ModelConfig
from repro.workload.operators import OpClass, OpSpec
from repro.workload.parallelism import ParallelismConfig

#: Lookup key of one operator instance: (phase, op_name, index), where the
#: index is the prefill chunk or the global decode step — the ``microbatch``
#: the emulator recorded on the task.
_OpKey = tuple[str, str, int | None]

#: Machine-readable refusal code: a ``batch=`` target that changes the cap
#: of a continuous-batching stream base (the cap drives the admission
#: schedule, so the derived program's topology would change).
REFUSE_STREAM_BATCH = "serving-stream-batch-policy"


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


def _serving_key(task: Task) -> tuple | None:
    """What a GPU task's serving retime reads besides the configurations.

    Its operator instance's :data:`_OpKey` (``None`` when it records none),
    its recorded group and which shape args it records; ``None`` for CPU
    tasks.
    """
    if task.kind != TaskKind.GPU:
        return None
    args = task.args
    phase, op_name = args.get("phase"), args.get("op_name")
    op_key = ((str(phase), str(op_name), args.get("microbatch"))
              if phase in ("prefill", "decode") and op_name else None)
    return (op_key, tuple(args.get("group_ranks", ())), bool(args.get("flops")),
            bool(args.get("bytes_accessed")))


def resolve_serving(config: Configuration, target: ServingTarget) -> Configuration:
    """The serving configuration ``target`` denotes from ``config``.

    The serving kind's resolve step: raises the serving refusals instead
    of returning a configuration the retime could not derive soundly.
    """
    inference, parallel = target.resolve(config.inference, config.parallel)
    parallel.validate_for_inference()
    if config.model is not None:
        validate_tp_for_model(config.model, parallel.tp)
    if parallel.tp > config.parallel.tp == 1:
        raise ValueError(
            f"cannot reshard a TP=1 base to TP={parallel.tp}: the base trace "
            "contains no tensor-parallel collectives to rescale; emulate a "
            "TP>1 base episode instead")
    if config.inference.is_stream and inference.batch_size != config.inference.batch_size:
        raise ManipulationRefusal(
            "cannot change 'batch' on a continuous-batching stream base: the "
            "batch-size cap drives the admission schedule, so the derived "
            "program's topology would change; re-emulate with the new cap "
            "instead", code=REFUSE_STREAM_BATCH)
    return replace(config, parallel=parallel, inference=inference)


def _resolve_serving(config: Configuration, label: str, payload: Any) -> Configuration:
    return resolve_serving(config, ServingTarget.parse(label))


def rescale_serving_graph(graph: ExecutionGraph | CompiledGraph,
                          target: ServingTarget | Configuration, *,
                          base_model: ModelConfig,
                          base_parallel: ParallelismConfig,
                          base_inference: InferenceConfig,
                          perf_model: KernelPerfModel) -> CompiledGraph:
    """Derive the compiled graph for a new serving configuration.

    Parameters
    ----------
    graph:
        The base serving episode's graph, compiled or not (a compiled one
        is retimed without compiling anything).
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
    source = as_compiled(graph)
    codes, representatives = source.column(_serving_key)
    stream_payload = source.metadata.get(STREAM_METADATA_KEY)
    plan = None if stream_payload is None else StreamPlan.from_json(stream_payload)
    scaled_model = perf_model.covering(base_parallel, new_parallel)

    # A stream's schedule is the same on both sides: a target that would
    # reschedule it is the ``batch=`` refusal of :func:`resolve_serving`.
    # The base's operators are kept with the source's columns, so every
    # target derived from one base regenerates them once.
    base = ("serving base operators", base_model, base_parallel, base_inference, plan)
    if base not in source._columns:
        source._columns[base] = _op_table(base_model, base_parallel, base_inference, plan)
    old_table = source._columns[base]
    new_table = _op_table(base_model, new_parallel, new_inference, plan)
    new_tp_ranks = new_parallel.groups().tp_group(0).ranks

    # One rescale and one args update per operator instance and recorded
    # group; the view keeps every task id and edge.
    rescales: list[_Rescale | None] = []
    updates: list[dict | None] = []
    gpu_tasks = matched = False
    for task in representatives:
        key = _serving_key(task)
        gpu_tasks |= key is not None
        old_op, new_op = ((None, None) if key is None or key[0] is None else
                          (old_table.get(key[0]), new_table.get(key[0])))
        rescale = update = None
        if old_op is not None and new_op is not None:
            matched = True
            rescale = _rescale(old_op, new_op, key[1], scaled_model, new_tp_ranks)
            update = _args_update(task, new_op, new_tp_ranks)
        elif (old_op is not None and old_op.is_communication
                and new_parallel.tp == 1):
            # The TP=1 decomposition emits no collectives at all, so
            # the lookup misses; the observed collective degenerates
            # to a rank-local no-op.  Keeping the (empty) task
            # preserves the graph topology.
            matched = True
            rescale = _Rescale(0.0, 1.0)
            update = {"group_ranks": list(new_tp_ranks), "group_size": 1}
        rescales.append(rescale)
        updates.append(update)
    if gpu_tasks and not matched:
        # Every lookup missed: the trace is not a serving episode of this
        # configuration (e.g. an inference= override forced onto a
        # training trace).  Returning the unmodified graph would report
        # the base time as a confident "prediction" — refuse instead.
        raise ValueError(
            "no GPU task of the trace matched the serving operator "
            "decomposition; the base trace does not look like a serving "
            "episode of this model/parallelism/inference configuration")
    return source.retimed(
        rescale_durations(source.durations, codes, rescales),
        {**source.metadata, "manipulated": "serving",
         "parallelism": new_parallel.label(), "inference": new_inference.to_json()},
        codes=codes, updates=updates)


@register_manipulation(KIND_SERVING, _resolve_serving, workload=WORKLOAD_SERVING)
def _derive_serving(compiled: CompiledGraph, context: DeriveContext) -> CompiledGraph:
    source = context.source
    return rescale_serving_graph(
        compiled, context.target, base_model=source.model,
        base_parallel=source.parallel, base_inference=source.inference,
        perf_model=context.perf_model)


def _rescale(old_op: OpSpec, new_op: OpSpec, old_ranks: tuple[int, ...],
             perf_model: KernelPerfModel,
             new_tp_ranks: tuple[int, ...]) -> _Rescale | None:
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


def _args_update(task: Task, new_op: OpSpec,
                 new_tp_ranks: tuple[int, ...]) -> dict[str, Any]:
    """The shape-describing args a retimed task takes, so breakdowns stay meaningful."""
    if new_op.is_communication:
        assert new_op.collective is not None
        return {"group_ranks": list(new_tp_ranks), "group_size": len(new_tp_ranks),
                "size_bytes": new_op.collective.size_bytes}
    update: dict[str, Any] = {}
    if task.args.get("flops"):
        update["flops"] = new_op.flops
    if task.args.get("bytes_accessed"):
        update["bytes_accessed"] = new_op.bytes_accessed
    return update
