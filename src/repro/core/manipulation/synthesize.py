"""Synthesis of an execution graph for a new configuration.

Given an :class:`~repro.core.manipulation.templates.IterationTemplate`
extracted from the profiled execution graph, the synthesizer rebuilds the
graph for a target (model, parallelism) configuration:

* the 1F1B pipeline schedule is regenerated for the target pipeline degree
  (Figure 4 in the paper);
* the model's layers are re-partitioned across the new stages and the
  observed per-layer task groups are re-inserted under the new schedule;
* pipeline point-to-point transfers, data-parallel gradient buckets and the
  optimizer step are re-created at the appropriate points;
* the dependency pattern of the original trace — launch → kernel,
  intra-stream order, compute↔communication fencing via inter-stream edges,
  cross-rank alignment of send/recv pairs and the blocking synchronisations
  before the optimizer and at the end of the iteration — is preserved in
  the new graph;
* durations of shape- or topology-sensitive kernels (GEMMs, attention,
  collectives, optimizer) are re-estimated with the kernel performance
  model; all other durations are reused as observed.

The synthesized graph models one representative rank per target pipeline
stage and places all CPU tasks of a rank on a single thread (the training
loop is a single Python sequencer; the thread split in the original trace
does not change the dependency structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.templates import IterationTemplate, KernelTemplate
from repro.core.perf_model import KernelPerfModel, parse_gemm_shape
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.trace.events import Category, CudaRuntimeName
from repro.workload.model_config import ModelConfig
from repro.workload.operators import (
    OpClass,
    OpSpec,
    dp_gradient_buckets,
    embedding_backward_ops,
    embedding_forward_ops,
    head_backward_ops,
    head_forward_ops,
    layer_backward_ops,
    layer_forward_ops,
    pp_activation_bytes,
)
from repro.workload.parallelism import ParallelismConfig
from repro.workload.pipeline import one_f_one_b_schedule, stage_layers
from repro.workload.training import TrainingConfig

_CPU_THREAD = 1


@dataclass
class _RankState:
    """Per-rank bookkeeping while the new graph is being emitted."""

    rank: int
    sequence: float = 0.0
    cpu_prev: int | None = None
    stream_last: dict[int, int] = field(default_factory=dict)
    last_compute: int | None = None
    pending_to_compute: list[int] = field(default_factory=list)
    streams: set[int] = field(default_factory=set)

    def next_ts(self) -> float:
        self.sequence += 1.0
        return self.sequence


class GraphSynthesizer:
    """Builds an execution graph for a target configuration from templates."""

    def __init__(self, template: IterationTemplate, target_model: ModelConfig,
                 target_parallel: ParallelismConfig,
                 perf_model: KernelPerfModel,
                 training: TrainingConfig | None = None) -> None:
        if target_parallel.tp != template.base_parallel.tp:
            raise NotImplementedError(
                "tensor-parallelism changes are not supported by graph manipulation "
                "(matching the paper's scope)"
            )
        target_parallel.validate_for_model(target_model.n_layers)
        self.template = template
        self.target_model = target_model
        self.target_parallel = target_parallel
        self.training = training or template.training
        # Re-time on the profiled cluster, grown to hold the template's
        # (old) collective groups as well as the target's.
        self.perf_model = perf_model.covering(template.base_parallel, target_parallel)
        self.groups = target_parallel.groups()
        self._op_tables = _OpTables(template.base_model, template.base_parallel,
                                    target_model, target_parallel, self.training)

    # -- public API ------------------------------------------------------------------

    def build(self) -> ExecutionGraph:
        """Synthesize the execution graph for the target configuration."""
        graph = ExecutionGraph(metadata={
            "synthesized": True,
            "model": self.target_model.name,
            "parallelism": self.target_parallel.label(),
            "num_microbatches": self.training.num_microbatches,
        })
        for stage in range(self.target_parallel.pp):
            rank = self.groups.rank_of(0, 0, stage)
            self._build_rank(graph, rank, stage)
        return graph

    # -- per-rank emission --------------------------------------------------------------

    def _build_rank(self, graph: ExecutionGraph, rank: int, stage: int) -> None:
        pp = self.target_parallel.pp
        state = _RankState(rank=rank)
        layers = stage_layers(self.target_model.n_layers, pp, stage)
        schedule = one_f_one_b_schedule(self.training.num_microbatches, pp, stage)
        template = self.template

        buckets = dp_gradient_buckets(self.target_model, self.target_parallel, self.training,
                                      layers, include_embedding=(stage == 0))
        bucket_of_layer: dict[int, int] = {}
        bucket_remaining: list[set[int]] = []
        for index, (bucket_layers, _) in enumerate(buckets):
            bucket_remaining.append(set(bucket_layers))
            for layer in bucket_layers:
                bucket_of_layer[layer] = index

        self._add_cpu(graph, state, "data_loader_next", template.cpu.data_loader_us)

        for action in schedule:
            if action.kind == "F":
                self._emit_forward(graph, state, stage, layers, action.microbatch)
            else:
                self._emit_backward(graph, state, stage, layers, action.microbatch,
                                    buckets, bucket_of_layer, bucket_remaining)

        self._emit_optimizer(graph, state, stage, layers)

    def _emit_forward(self, graph: ExecutionGraph, state: _RankState, stage: int,
                      layers: list[int], microbatch: int) -> None:
        pp = self.target_parallel.pp
        template = self.template
        self._add_cpu(graph, state, "python_forward_step", template.cpu.python_step_us)

        if stage > 0:
            self._emit_p2p(graph, state, stage, direction="recv", peer_stage=stage - 1,
                           comm_key=f"act:{stage}:{microbatch}", microbatch=microbatch,
                           phase="forward")
        else:
            for kernel in template.embedding_forward:
                self._add_kernel(graph, state, kernel,
                                 duration=self._adjust(kernel, self._op_tables.embedding_forward),
                                 layer=None, microbatch=microbatch, phase="forward")

        for layer in layers:
            for kernel in template.layer_template(layer, "forward"):
                self._add_kernel(graph, state, kernel,
                                 duration=self._adjust(kernel, self._op_tables.layer_forward),
                                 layer=layer, microbatch=microbatch, phase="forward")

        if stage == pp - 1:
            for kernel in template.head_forward:
                self._add_kernel(graph, state, kernel,
                                 duration=self._adjust(kernel, self._op_tables.head_forward),
                                 layer=None, microbatch=microbatch, phase="forward")
        else:
            self._emit_p2p(graph, state, stage, direction="send", peer_stage=stage + 1,
                           comm_key=f"act:{stage + 1}:{microbatch}", microbatch=microbatch,
                           phase="forward")

    def _emit_backward(self, graph: ExecutionGraph, state: _RankState, stage: int,
                       layers: list[int], microbatch: int,
                       buckets: list[tuple[list[int], float]],
                       bucket_of_layer: dict[int, int],
                       bucket_remaining: list[set[int]]) -> None:
        pp = self.target_parallel.pp
        template = self.template
        is_last_microbatch = microbatch == self.training.num_microbatches - 1
        self._add_cpu(graph, state, "python_backward_step", template.cpu.python_step_us)

        if stage < pp - 1:
            self._emit_p2p(graph, state, stage, direction="recv", peer_stage=stage + 1,
                           comm_key=f"grad:{stage}:{microbatch}", microbatch=microbatch,
                           phase="backward")
        else:
            for kernel in template.head_backward:
                self._add_kernel(graph, state, kernel,
                                 duration=self._adjust(kernel, self._op_tables.head_backward),
                                 layer=None, microbatch=microbatch, phase="backward")

        for layer in reversed(layers):
            for kernel in template.layer_template(layer, "backward"):
                self._add_kernel(graph, state, kernel,
                                 duration=self._adjust(kernel, self._op_tables.layer_backward),
                                 layer=layer, microbatch=microbatch, phase="backward")
            if is_last_microbatch and self.target_parallel.dp > 1 and layer in bucket_of_layer:
                bucket = bucket_of_layer[layer]
                bucket_remaining[bucket].discard(layer)
                if not bucket_remaining[bucket]:
                    self._emit_dp_bucket(graph, state, bucket, buckets[bucket][1])

        if stage == 0:
            for kernel in template.embedding_backward:
                self._add_kernel(graph, state, kernel,
                                 duration=self._adjust(kernel, self._op_tables.embedding_backward),
                                 layer=None, microbatch=microbatch, phase="backward")
            if is_last_microbatch and self.target_parallel.dp > 1 and buckets:
                embedding_bucket = len(buckets) - 1
                if not bucket_remaining[embedding_bucket]:
                    self._emit_dp_bucket(graph, state, embedding_bucket,
                                         buckets[embedding_bucket][1])
        else:
            self._emit_p2p(graph, state, stage, direction="send", peer_stage=stage - 1,
                           comm_key=f"grad:{stage - 1}:{microbatch}", microbatch=microbatch,
                           phase="backward")

    def _emit_optimizer(self, graph: ExecutionGraph, state: _RankState, stage: int,
                        layers: list[int]) -> None:
        template = self.template
        self._add_cpu(graph, state, "optimizer_prep", template.cpu.python_step_us)

        dp_stream = self._dp_stream()
        if self.target_parallel.dp > 1 and dp_stream is not None:
            self._add_sync(graph, state, CudaRuntimeName.STREAM_SYNCHRONIZE, (dp_stream,))

        scale = self._optimizer_scale(stage, len(layers))
        for kernel in template.optimizer:
            duration = (template.cpu.sync_call_us if kernel.duration <= 0
                        else kernel.duration * scale)
            self._add_kernel(graph, state, kernel, duration=duration, layer=None,
                             microbatch=None, phase="optimizer")

        self._add_sync(graph, state, CudaRuntimeName.DEVICE_SYNCHRONIZE,
                       tuple(sorted(state.streams)))
        self._add_cpu(graph, state, "iteration_end_logging", template.cpu.iteration_end_us)

    # -- task helpers ----------------------------------------------------------------------

    def _add_cpu(self, graph: ExecutionGraph, state: _RankState, name: str,
                 duration: float, category: str = Category.CPU_OP,
                 sync_streams: tuple[int, ...] = (),
                 args: dict | None = None) -> Task:
        task = graph.add_task(Task(
            task_id=-1, rank=state.rank, kind=TaskKind.CPU, name=name,
            duration=max(duration, 0.0), trace_ts=state.next_ts(), thread=_CPU_THREAD,
            category=category, args=dict(args or {}), sync_streams=sync_streams,
        ))
        if state.cpu_prev is not None:
            graph.add_dependency(state.cpu_prev, task.task_id, DependencyType.CPU_INTRA_THREAD)
        state.cpu_prev = task.task_id
        return task

    def _add_sync(self, graph: ExecutionGraph, state: _RankState, name: str,
                  streams: tuple[int, ...]) -> Task:
        return self._add_cpu(graph, state, name, self.template.cpu.sync_call_us,
                             category=Category.CUDA_RUNTIME, sync_streams=streams,
                             args={"stream": streams[0]} if len(streams) == 1 else {})

    def _add_kernel(self, graph: ExecutionGraph, state: _RankState, template: KernelTemplate,
                    duration: float, layer: int | None, microbatch: int | None,
                    phase: str | None, comm_key: str | None = None,
                    args_override: dict | None = None) -> Task:
        launch = self._add_cpu(graph, state, CudaRuntimeName.LAUNCH_KERNEL,
                               self.template.cpu.launch_us, category=Category.CUDA_RUNTIME)

        args = template.clone_args()
        if args_override:
            args.update(args_override)
        if layer is not None:
            args["layer"] = layer
        if microbatch is not None:
            args["microbatch"] = microbatch
        if phase is not None:
            args["phase"] = phase

        kernel = graph.add_task(Task(
            task_id=-1, rank=state.rank, kind=TaskKind.GPU, name=template.name,
            duration=max(duration, 0.0), trace_ts=state.next_ts(), stream=template.stream,
            category=Category.KERNEL, args=args, collective_group=comm_key,
        ))
        graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)

        stream = template.stream
        state.streams.add(stream)
        if stream in state.stream_last:
            graph.add_dependency(state.stream_last[stream], kernel.task_id,
                                 DependencyType.GPU_INTRA_STREAM)
        state.stream_last[stream] = kernel.task_id

        is_communication = bool(args.get("collective"))
        if is_communication:
            group = args.get("group")
            if state.last_compute is not None:
                graph.add_dependency(state.last_compute, kernel.task_id,
                                     DependencyType.GPU_INTER_STREAM)
            if group == "tp":
                # Subsequent compute consumes the all-reduce output.
                state.pending_to_compute.append(kernel.task_id)
        else:
            for pending in state.pending_to_compute:
                graph.add_dependency(pending, kernel.task_id, DependencyType.GPU_INTER_STREAM)
            state.pending_to_compute = []
            state.last_compute = kernel.task_id
        return kernel

    def _emit_p2p(self, graph: ExecutionGraph, state: _RankState, stage: int, direction: str,
                  peer_stage: int, comm_key: str, microbatch: int, phase: str) -> None:
        template = (self.template.pp_send_sample if direction == "send"
                    else self.template.pp_recv_sample)
        rank = state.rank
        peer = self.groups.rank_of(0, 0, peer_stage)
        pair = (rank, peer) if direction == "send" else (peer, rank)
        size_bytes = pp_activation_bytes(self.target_model, self.training)

        if template is not None:
            duration = self.perf_model.scale_collective(
                kind=template.args.get("collective", direction),
                old_size=float(template.args.get("size_bytes", size_bytes)),
                old_ranks=tuple(template.args.get("group_ranks", pair)) or pair,
                new_size=size_bytes, new_ranks=pair)(template.duration)
            base = template
        else:
            duration = self.perf_model.predict_collective_us(direction, size_bytes, pair,
                                                             group="pp")
            base = KernelTemplate(name=f"ncclDevKernel_SendRecv({direction})", op_name=None,
                                  op_class=OpClass.COMM, stream=28 if direction == "send" else 30,
                                  duration=duration,
                                  args={"collective": direction, "group": "pp"})
        overrides = {
            "collective": direction, "group": "pp", "group_ranks": list(pair),
            "group_size": 2, "size_bytes": size_bytes, "comm_id": comm_key,
        }
        kernel = self._add_kernel(graph, state, base, duration=duration, layer=None,
                                  microbatch=microbatch, phase=phase, comm_key=comm_key,
                                  args_override=overrides)
        if direction == "recv":
            state.pending_to_compute.append(kernel.task_id)

    def _emit_dp_bucket(self, graph: ExecutionGraph, state: _RankState, bucket_index: int,
                        size_bytes: float) -> None:
        new_ranks = self.groups.dp_group(state.rank).ranks
        sample = self.template.dp_bucket_sample
        if sample is not None:
            duration = self.perf_model.scale_collective(
                kind="all_reduce",
                old_size=float(sample.args.get("size_bytes", size_bytes)),
                old_ranks=tuple(sample.args.get("group_ranks", new_ranks)) or new_ranks,
                new_size=size_bytes, new_ranks=new_ranks)(sample.duration)
            base = sample
        else:
            duration = self.perf_model.predict_collective_us("all_reduce", size_bytes,
                                                             new_ranks, group="dp")
            base = KernelTemplate(name="ncclDevKernel_AllReduce_Sum_bf16_RING(dp)",
                                  op_name=None, op_class=OpClass.COMM, stream=24,
                                  duration=duration,
                                  args={"collective": "all_reduce", "group": "dp"})
        overrides = {
            "collective": "all_reduce", "group": "dp", "group_ranks": list(new_ranks),
            "group_size": len(new_ranks), "size_bytes": size_bytes,
        }
        self._add_kernel(graph, state, base, duration=duration, layer=None, microbatch=None,
                         phase="backward", args_override=overrides)

    # -- duration adjustment -----------------------------------------------------------------

    def _adjust(self, kernel: KernelTemplate, table: "_OpPair") -> float:
        """Re-estimate a template kernel's duration for the target configuration."""
        op_name = kernel.op_name
        if op_name is None:
            return kernel.duration
        base_op = table.base.get(op_name)
        target_op = table.target.get(op_name)
        if base_op is None or target_op is None:
            return kernel.duration

        if base_op.is_communication and target_op.is_communication:
            old_ranks = tuple(kernel.args.get("group_ranks", ())) or \
                self.groups.tp_group(0).ranks
            return self.perf_model.scale_collective(
                kind=base_op.collective.kind,
                old_size=base_op.collective.size_bytes, old_ranks=old_ranks,
                new_size=target_op.collective.size_bytes, new_ranks=old_ranks)(kernel.duration)
        if base_op.op_class == OpClass.GEMM:
            old_shape = parse_gemm_shape(kernel.name) or (base_op.m, base_op.n, base_op.k)
            return self.perf_model.scale_gemm(
                old_shape, (target_op.m, target_op.n, target_op.k))(kernel.duration)
        if base_op.op_class == OpClass.ATTENTION:
            return self.perf_model.scale_flops_bound(base_op.flops,
                                                     target_op.flops)(kernel.duration)
        return self.perf_model.scale_memory_bound(base_op.bytes_accessed,
                                                  target_op.bytes_accessed)(kernel.duration)

    # -- sizing helpers -------------------------------------------------------------------------

    def _optimizer_scale(self, stage: int, n_layers: int) -> float:
        template = self.template
        base_params = template.optimizer_stage_layers * template.base_model.layer_parameters
        if template.optimizer_includes_embedding:
            base_params += template.base_model.embedding_parameters
        target_params = n_layers * self.target_model.layer_parameters
        if stage == 0:
            target_params += self.target_model.embedding_parameters
        if base_params <= 0:
            return 1.0
        return target_params / base_params

    def _dp_stream(self) -> int | None:
        if self.template.dp_bucket_sample is not None:
            return self.template.dp_bucket_sample.stream
        return 24


@dataclass(frozen=True)
class _OpPair:
    """Op-name → OpSpec lookup tables for the base and target configurations."""

    base: dict[str, OpSpec]
    target: dict[str, OpSpec]


class _OpTables:
    """All base/target op lookups used for duration adjustment."""

    def __init__(self, base_model: ModelConfig, base_parallel: ParallelismConfig,
                 target_model: ModelConfig, target_parallel: ParallelismConfig,
                 training: TrainingConfig) -> None:
        def table(factory) -> _OpPair:
            return _OpPair(
                base={op.name: op for op in factory(base_model, base_parallel, training)},
                target={op.name: op for op in factory(target_model, target_parallel, training)},
            )

        self.layer_forward = table(layer_forward_ops)
        self.layer_backward = table(layer_backward_ops)
        self.embedding_forward = table(embedding_forward_ops)
        self.embedding_backward = table(embedding_backward_ops)
        self.head_forward = table(head_forward_ops)
        self.head_backward = table(head_backward_ops)


def synthesize_graph(template: IterationTemplate, target_model: ModelConfig,
                     target_parallel: ParallelismConfig, perf_model: KernelPerfModel,
                     training: TrainingConfig | None = None) -> ExecutionGraph:
    """Convenience wrapper around :class:`GraphSynthesizer`."""
    return GraphSynthesizer(template, target_model, target_parallel, perf_model,
                            training=training).build()
