"""Builds per-rank serving programs from an inference workload description.

The builder expands a (model, parallelism, inference) configuration into
the instruction stream of one *serving episode* on one representative rank
(tensor-parallel peers execute mirrored work whose cost is captured
through communicator group sizes; data-parallel replicas serve independent
request batches and never communicate).  The episode follows one
schedule, a :class:`~repro.workload.arrivals.StreamPlan` of items:

* a **prefill** chunk runs its admitted requests' prompts through every
  layer — the same large compute kernels as a training forward pass — and
  samples their first tokens;
* a **decode** step runs one token per in-flight request through every
  layer: skinny GEMMs, a memory-bound KV-cache attention sweep over each
  request's context, and (under TP) a per-step all-reduce after the
  attention and MLP blocks, fenced against compute exactly like training
  TP collectives;
* a **wait** idles the host until the next request arrives.

A continuous-batching stream gets its plan from the FCFS
:class:`ContinuousBatchingPlanner`.  A fixed-batch episode is the
one-chunk schedule (:meth:`~repro.workload.arrivals.StreamPlan.one_chunk`):
one prefill chunk of ``batch_size`` requests, then ``decode_length`` steps.

The emulated serving loop launches ahead, async-engine style: sampled
tokens stay on-device and feed the next step through compute-stream
ordering, and the host only blocks on a final device synchronisation
before detokenising the responses.  (Mid-episode ``cudaStreamSynchronize``
calls would also break the replay engine's full-drain synchronisation
invariant — a blocking sync must be the last consumer of its streams.)
Everything runs on the main thread (no autograd thread, no pipeline
streams), so the emitted graphs keep the per-processor dependency chains
that make the batched simulation kernel's fast path provable.
"""

from __future__ import annotations

from repro.emulator.program import (
    CpuCompute,
    DeviceSync,
    RankProgram,
    Threads,
)
from repro.emulator.program_builder import (
    _DATA_LOADER_US,
    _ITERATION_END_US,
    ProgramEmitter,
    _RankContext,
)
from repro.hardware.cluster import ClusterSpec
from repro.kernels.registry import KernelCostModel
from repro.observability import tracing as observability
from repro.workload.arrivals import RequestSchedule, StreamPlan
from repro.workload.inference import (
    InferenceConfig,
    decode_embedding_ops,
    decode_head_ops,
    decode_layer_ops,
    prefill_embedding_ops,
    prefill_head_ops,
    prefill_layer_ops,
    validate_tp_for_model,
)
from repro.workload.model_config import ModelConfig
from repro.workload.operators import OpSpec
from repro.workload.parallelism import ParallelismConfig

_TOKENIZE_US = 350.0
_TOKENIZE_PER_REQUEST_US = 45.0
_PREFILL_PYTHON_US = 80.0
_DECODE_PYTHON_US = 45.0


class ContinuousBatchingPlanner:
    """Deterministic FCFS continuous-batching scheduler.

    Plays the engine's admission policy forward over the (seeded,
    deterministic) arrival schedule using the analytical kernel cost
    model as the clock:

    * whenever at least one request has arrived and the decode batch has
      a free slot, the earliest arrivals are admitted (up to
      ``batch_size``) as one *prefill chunk*;
    * otherwise, if any request is in flight, one decode step runs with
      the current batch (each request at its own KV context length);
    * otherwise the host idles until the next arrival (a ``wait`` item).

    A request leaves the batch at its decode horizon
    (``decode_length`` steps after its prefill).  The output
    :class:`StreamPlan` fixes the program structure; the simulated
    timings later come from replay/calibration, so the cost model here
    only decides *scheduling order*, never the reported latencies.
    """

    def __init__(self, model: ModelConfig, parallel: ParallelismConfig,
                 config: InferenceConfig, cost: KernelCostModel,
                 groups) -> None:
        if config.arrival is None:
            raise ValueError("continuous batching needs an arrival process "
                             "(InferenceConfig.arrival)")
        self.model = model
        self.parallel = parallel
        self.config = config
        self.cost = cost
        self._tp_ranks = groups.tp_group(0).ranks

    def _op_us(self, op) -> float:
        if op.is_communication:
            return self.cost.duration_us(op, dtype_bytes=self.config.dtype_bytes,
                                         group_ranks=self._tp_ranks)
        return self.cost.duration_us(op, dtype_bytes=self.config.dtype_bytes)

    def _ops_us(self, ops) -> float:
        return sum(self._op_us(op) + InferenceProgramBuilder.launch_call_us
                   for op in ops)

    def _prefill_us(self, batch: int) -> float:
        config = self.config.with_changes(batch_size=batch)
        total = _TOKENIZE_PER_REQUEST_US * batch + _PREFILL_PYTHON_US
        total += self._ops_us(prefill_embedding_ops(self.model, self.parallel, config))
        total += self.model.n_layers * self._ops_us(prefill_layer_ops(
            self.model, self.parallel, config))
        total += self._ops_us(prefill_head_ops(self.model, self.parallel, config))
        return total

    def _decode_us(self, contexts: tuple[int, ...]) -> float:
        total = _DECODE_PYTHON_US
        total += self._ops_us(decode_embedding_ops(
            self.model, self.parallel, self.config, contexts))
        total += self.model.n_layers * self._ops_us(decode_layer_ops(
            self.model, self.parallel, self.config, contexts))
        total += self._ops_us(decode_head_ops(
            self.model, self.parallel, self.config, contexts))
        return total

    def plan(self) -> StreamPlan:
        config = self.config
        arrivals = config.arrival.arrival_times_us()
        cap = config.batch_size
        n = len(arrivals)
        pending = list(range(n))  # arrivals are non-decreasing, so FCFS order
        active: dict[int, int] = {}  # request -> decode steps completed
        first_step: dict[int, int] = {}
        last_step: dict[int, int] = {}
        chunk_of: dict[int, int] = {}
        chunks: list[tuple[int, ...]] = []
        steps: list[tuple[int, ...]] = []
        items: list[tuple[str, int]] = []
        waits: list[float] = []
        clock = 0.0
        max_queue = 0

        while pending or active:
            arrived = [r for r in pending if arrivals[r] <= clock]
            max_queue = max(max_queue, len(arrived))
            free = cap - len(active)
            if arrived and free > 0:
                admitted = arrived[:free]
                for request in admitted:
                    pending.remove(request)
                    chunk_of[request] = len(chunks)
                    first_step[request] = len(steps)
                    active[request] = 0
                items.append(("prefill", len(chunks)))
                chunks.append(tuple(admitted))
                clock += self._prefill_us(len(admitted))
                continue
            if not active:
                next_arrival = min(arrivals[r] for r in pending)
                wait = next_arrival - clock
                if wait > 0:
                    items.append(("wait", len(waits)))
                    waits.append(wait)
                clock = next_arrival
                continue
            step = len(steps)
            participants = tuple(sorted(active))
            contexts = tuple(config.prompt_length + (step - first_step[r])
                             for r in participants)
            items.append(("decode", step))
            steps.append(participants)
            clock += self._decode_us(contexts)
            for request in participants:
                active[request] += 1
                if active[request] >= config.decode_length:
                    last_step[request] = step
                    del active[request]

        requests = tuple(
            RequestSchedule(request=r, arrival_us=arrivals[r],
                            prefill_chunk=chunk_of[r], first_step=first_step[r],
                            last_step=last_step[r])
            for r in range(n))
        return StreamPlan(arrival=config.arrival, requests=requests,
                          chunk_requests=tuple(chunks), step_requests=tuple(steps),
                          items=tuple(items), waits_us=tuple(waits),
                          max_queue_depth=max_queue)


class InferenceProgramBuilder(ProgramEmitter):
    """Expands an inference workload configuration into per-rank programs."""

    # Decode is launch-bound, so the wrapper-op / runtime-call split must
    # survive the graph builder's wrapper-dropping (see ProgramEmitter):
    # fold the whole launch cost into the runtime call.
    launch_op_us = 0.0
    launch_call_us = ProgramEmitter.launch_op_us + ProgramEmitter.launch_call_us

    def __init__(self, model: ModelConfig, parallel: ParallelismConfig,
                 inference: InferenceConfig, cluster: ClusterSpec | None = None,
                 cost_model: KernelCostModel | None = None) -> None:
        parallel.validate_for_inference()
        validate_tp_for_model(model, parallel.tp)
        if cluster is None:
            cluster = ClusterSpec.for_world_size(parallel.world_size)
        if parallel.world_size > cluster.num_gpus:
            raise ValueError(
                f"configuration {parallel.label()} needs {parallel.world_size} GPUs "
                f"but the cluster has {cluster.num_gpus}"
            )
        self.model = model
        self.parallel = parallel
        self.inference = inference
        self.cluster = cluster
        self.cost = cost_model or KernelCostModel(cluster)
        self.groups = parallel.groups()
        #: The continuous-batching schedule (None for fixed episodes).  The
        #: emulator serialises it into trace metadata so replayed graphs can
        #: be scored with per-request serving metrics.
        self.stream_plan: StreamPlan | None = None
        if inference.arrival is not None:
            planner = ContinuousBatchingPlanner(model, parallel, inference,
                                                self.cost, self.groups)
            self.stream_plan = planner.plan()
            plan = self.stream_plan
            observability.gauge("serving.requests", plan.num_requests)
            observability.gauge("serving.prefill_chunks", plan.num_chunks)
            observability.gauge("serving.decode_steps", plan.num_steps)
            observability.gauge("serving.max_queue_depth", plan.max_queue_depth)
            observability.gauge("serving.max_step_batch", plan.max_step_batch)

    @property
    def dtype_bytes(self) -> int:
        return self.inference.dtype_bytes

    # -- public API -----------------------------------------------------------

    def build(self) -> dict[int, RankProgram]:
        """Build the program of the one representative serving rank."""
        return {0: self._build_rank(0)}

    # -- per-rank construction ------------------------------------------------
    # Prefill chunks carry their chunk index in ``microbatch`` and decode
    # steps their global step index (phase disambiguates).  A fixed
    # episode's prefill is chunk 0.  The structure keeps the batched-kernel
    # fast path provable: all kernels chain on the compute stream, TP
    # collectives stay event-fenced, waits are plain host compute, and the
    # only blocking sync is the final full drain.

    def _build_rank(self, rank: int) -> RankProgram:
        inference = self.inference
        plan = self.stream_plan or StreamPlan.one_chunk(inference.batch_size,
                                                        inference.decode_length)
        context = _RankContext(rank=rank, stage=0,
                               program=RankProgram(rank=rank, stage=0))
        program = context.program
        program.append(CpuCompute(thread=Threads.MAIN, name="request_batch_next",
                                  duration_us=_DATA_LOADER_US, phase="other"))
        for kind, index in plan.items:
            if kind == "wait":
                program.append(CpuCompute(thread=Threads.MAIN, name="await_requests",
                                          duration_us=plan.waits_us[index],
                                          phase="other"))
            elif kind == "prefill":
                self._emit_prefill(context, index, len(plan.chunk_requests[index]))
            else:
                self._emit_decode(context, index,
                                  plan.step_contexts(inference.prompt_length, index))
        program.append(DeviceSync(thread=Threads.MAIN))
        program.append(CpuCompute(thread=Threads.MAIN, name="detokenize_responses",
                                  duration_us=_ITERATION_END_US, phase="other"))
        return program

    def _emit_prefill(self, context: _RankContext, chunk: int, batch: int) -> None:
        """One prefill chunk of ``batch`` admitted requests."""
        # A fixed episode tokenizes its whole batch up front; a stream
        # tokenizes each chunk's requests as they are admitted.
        tokenize_us = (_TOKENIZE_PER_REQUEST_US * batch
                       if self.stream_plan is not None else _TOKENIZE_US)
        context.program.append(CpuCompute(thread=Threads.MAIN, name="tokenize_prompts",
                                          duration_us=tokenize_us, phase="other"))
        context.program.append(CpuCompute(thread=Threads.MAIN, name="python_prefill_step",
                                          duration_us=_PREFILL_PYTHON_US, phase="prefill"))
        config = self.inference.with_changes(batch_size=batch)
        self._emit_pass(context, chunk,
                        prefill_embedding_ops(self.model, self.parallel, config),
                        prefill_layer_ops(self.model, self.parallel, config),
                        prefill_head_ops(self.model, self.parallel, config))

    def _emit_decode(self, context: _RankContext, step: int,
                     contexts: tuple[int, ...]) -> None:
        """One autoregressive step over the in-flight requests' ``contexts``."""
        context.program.append(CpuCompute(thread=Threads.MAIN, name="python_decode_step",
                                          duration_us=_DECODE_PYTHON_US, phase="decode"))
        self._emit_pass(context, step,
                        decode_embedding_ops(self.model, self.parallel, self.inference,
                                             contexts),
                        decode_layer_ops(self.model, self.parallel, self.inference,
                                         contexts),
                        decode_head_ops(self.model, self.parallel, self.inference,
                                        contexts))

    def _emit_pass(self, context: _RankContext, microbatch: int,
                   embedding: list[OpSpec], layer: list[OpSpec],
                   head: list[OpSpec]) -> None:
        """Launch one pass: the embedding, every layer, then the head."""
        for op in embedding:
            self._launch_op(context, op, layer=None, microbatch=microbatch,
                            thread=Threads.MAIN)
        for index in range(self.model.n_layers):
            for op in layer:
                self._launch_op(context, op, layer=index, microbatch=microbatch,
                                thread=Threads.MAIN)
        for op in head:
            self._launch_op(context, op, layer=None, microbatch=microbatch,
                            thread=Threads.MAIN)
