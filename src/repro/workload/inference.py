"""LLM inference (serving) workload configuration and operator decomposition.

The training path expands a (model, parallelism, training) triple into the
kernels of one 3D-parallel training iteration; this module is its serving
counterpart.  A *serving episode* runs its requests through

* **prefill** chunks — each admitted request's full prompt goes through
  every layer at once, so the kernels are the same large GEMM/attention
  shapes as a training forward pass over the re-batched configuration
  (``batch_size`` = the chunk's request count); and
* **autoregressive decode steps** — each step processes one new token per
  in-flight request, so GEMMs become skinny (``m`` = requests in flight)
  and attention becomes a memory-bound sweep over every request's own
  accumulated KV cache (the ``contexts`` tuple), with a per-step
  tensor-parallel all-reduce after the attention and MLP blocks, exactly
  as in Megatron-style inference.

A continuous-batching stream admits requests in several chunks and decodes
a varying batch; a fixed-batch episode is its one-chunk case: one prefill
chunk of ``batch_size`` requests, then ``decode_length`` steps at
contexts ``(prompt_length + step,) * batch_size``.

The emulator turns these :class:`~repro.workload.operators.OpSpec` lists
into launched kernels; the serving graph manipulation
(:mod:`repro.core.manipulation.serving`) regenerates them for a target
configuration and rescales the observed kernels by the analytical ratio.

Pipeline parallelism is not supported for decode: the token loop
serialises the stages, so a PP>1 deployment would leave ``pp - 1`` stages
idle per step.  :meth:`~repro.workload.parallelism.ParallelismConfig.validate_for_inference`
rejects such degrees up front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.workload.arrivals import ArrivalConfig
from repro.workload.model_config import ModelConfig
from repro.workload.operators import (
    CollectiveKind,
    CollectiveSpec,
    OpClass,
    OpSpec,
    _gemm,
    _memory_bound,
    layer_forward_ops,
)
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

_DTYPE_BYTES = {"bf16": 2, "fp16": 2, "fp32": 4}
_KV_DTYPE_BYTES = {"bf16": 2, "fp16": 2, "fp32": 4, "fp8": 1}

#: Values of the ``workload`` trace-metadata field.  Defined here (the
#: lowest layer that knows about workload families) so the emulator that
#: writes the metadata and the Study facade that recovers it share one
#: definition.
WORKLOAD_TRAINING = "training"
WORKLOAD_SERVING = "serving"


@dataclass(frozen=True)
class InferenceConfig:
    """Serving-episode parameters.

    Attributes
    ----------
    batch_size:
        Concurrent requests in one continuous-batching decode batch.
    prompt_length:
        Prompt tokens per request (the prefill sequence length).
    decode_length:
        Tokens generated per request (the number of decode steps).
    dtype:
        Activation/weight datatype ("bf16", "fp16" or "fp32").
    kv_dtype:
        KV-cache storage datatype; "fp8" models quantised caches.
    arrival:
        Optional request-arrival process.  When set, the episode is a
        *continuous-batching stream*: ``arrival.num_requests`` requests
        arrive over time, ``batch_size`` caps the concurrent decode
        batch, and each request runs ``decode_length`` decode steps
        after its prefill.  When ``None`` (the default) the episode is
        one fixed batch: all ``batch_size`` requests are prefilled as one
        chunk and decoded together for ``decode_length`` steps.
    """

    batch_size: int = 8
    prompt_length: int = 512
    decode_length: int = 64
    dtype: str = "bf16"
    kv_dtype: str = "bf16"
    arrival: ArrivalConfig | None = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.prompt_length <= 0:
            raise ValueError("prompt_length must be positive")
        if self.decode_length <= 0:
            raise ValueError("decode_length must be positive")
        if self.dtype not in _DTYPE_BYTES:
            raise ValueError(f"unsupported dtype '{self.dtype}'")
        if self.kv_dtype not in _KV_DTYPE_BYTES:
            raise ValueError(f"unsupported kv_dtype '{self.kv_dtype}'")

    # -- datatype accounting -------------------------------------------------

    @property
    def dtype_bytes(self) -> int:
        return _DTYPE_BYTES[self.dtype]

    @property
    def kv_dtype_bytes(self) -> int:
        return _KV_DTYPE_BYTES[self.kv_dtype]

    @property
    def is_stream(self) -> bool:
        """True for continuous-batching stream episodes (arrival process set)."""
        return self.arrival is not None

    # -- token accounting ----------------------------------------------------

    @property
    def prefill_tokens(self) -> int:
        """Tokens processed by the prefill phase across the batch."""
        return self.batch_size * self.prompt_length

    # -- KV-cache accounting -------------------------------------------------

    def kv_bytes_per_token_layer(self, model: ModelConfig,
                                 parallel: ParallelismConfig) -> float:
        """KV-cache bytes one token adds to one layer's rank-local cache.

        K and V each store ``attention_dim / tp`` elements per token per
        layer under Megatron head partitioning.
        """
        heads_local = max(1, model.n_heads // parallel.tp)
        return 2.0 * heads_local * model.d_head * self.kv_dtype_bytes

    def kv_cache_bytes(self, model: ModelConfig, parallel: ParallelismConfig,
                       context: int | None = None) -> float:
        """Rank-local KV-cache footprint for the whole batch at ``context`` tokens.

        ``context`` defaults to the fully-decoded episode
        (``prompt_length + decode_length``).
        """
        if context is None:
            context = self.prompt_length + self.decode_length
        return (self.batch_size * context * model.n_layers
                * self.kv_bytes_per_token_layer(model, parallel))

    def kv_cache_gb(self, model: ModelConfig, parallel: ParallelismConfig,
                    context: int | None = None) -> float:
        """Rank-local KV-cache footprint in GiB."""
        return self.kv_cache_bytes(model, parallel, context) / 2**30

    # -- derivation and serialisation ----------------------------------------

    def with_changes(self, batch_size: int | None = None,
                     prompt_length: int | None = None,
                     decode_length: int | None = None) -> "InferenceConfig":
        """Return a copy with the given fields replaced."""
        return replace(
            self,
            batch_size=batch_size if batch_size is not None else self.batch_size,
            prompt_length=prompt_length if prompt_length is not None else self.prompt_length,
            decode_length=decode_length if decode_length is not None else self.decode_length,
        )

    def prefill_training(self) -> TrainingConfig:
        """The :class:`TrainingConfig` whose forward pass equals this prefill.

        Prefill is exactly one forward micro-batch of ``batch_size``
        sequences of ``prompt_length`` tokens, which lets the serving
        builder reuse the training operator decomposition verbatim.
        """
        return TrainingConfig(micro_batch_size=self.batch_size, num_microbatches=1,
                              sequence_length=self.prompt_length, dtype=self.dtype)

    def to_json(self) -> dict[str, Any]:
        payload = {
            "batch_size": self.batch_size,
            "prompt_length": self.prompt_length,
            "decode_length": self.decode_length,
            "dtype": self.dtype,
            "kv_dtype": self.kv_dtype,
        }
        # Omitted when unset so pre-stream serving traces (and their golden
        # snapshots / cache keys) serialise byte-identically.
        if self.arrival is not None:
            payload["arrival"] = self.arrival.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "InferenceConfig":
        arrival = payload.get("arrival")
        return cls(
            batch_size=int(payload.get("batch_size", cls.batch_size)),
            prompt_length=int(payload.get("prompt_length", cls.prompt_length)),
            decode_length=int(payload.get("decode_length", cls.decode_length)),
            dtype=str(payload.get("dtype", cls.dtype)),
            kv_dtype=str(payload.get("kv_dtype", cls.kv_dtype)),
            arrival=None if arrival is None else ArrivalConfig.from_json(arrival),
        )


@dataclass(frozen=True)
class ServingTarget:
    """A what-if target for a serving study: which base knobs change.

    Targets are compact ``key=value`` labels (``"batch=16"``,
    ``"tp=4,prompt=1024"``) over three topology-preserving knobs: the
    request batch size, the prompt length and the tensor-parallel degree.
    ``decode`` is deliberately not a knob — changing the number of
    generated tokens changes the task-graph *topology* (more decode
    steps), which graph manipulation cannot express; re-emulate instead.
    """

    batch_size: int | None = None
    prompt_length: int | None = None
    tensor_parallel: int | None = None

    _KEYS = ("batch", "prompt", "tp")

    def __post_init__(self) -> None:
        for value, name in ((self.batch_size, "batch"),
                            (self.prompt_length, "prompt"),
                            (self.tensor_parallel, "tp")):
            if value is not None and value <= 0:
                raise ValueError(f"serving target '{name}' must be positive")

    @classmethod
    def parse(cls, label: str) -> "ServingTarget":
        """Parse a ``key=value[,key=value...]`` serving target label."""
        values: dict[str, int] = {}
        for part in str(label).split(","):
            part = part.strip()
            if not part:
                continue
            key, _, raw = part.partition("=")
            key = key.strip().lower()
            if key in ("decode", "decode_length"):
                raise ValueError(
                    "serving targets cannot change 'decode': the number of "
                    "generated tokens changes the task-graph topology; "
                    "re-emulate the new episode instead")
            if key in ("pp", "dp"):
                raise ValueError(
                    f"serving targets cannot change '{key}': decode supports "
                    "only tensor parallelism (tp=N)")
            if key not in cls._KEYS:
                raise ValueError(
                    f"unknown serving target key '{key}' "
                    f"(expected one of {cls._KEYS})")
            if key in values:
                raise ValueError(f"duplicate serving target key '{key}'")
            try:
                values[key] = int(raw)
            except ValueError as error:
                raise ValueError(
                    f"serving target '{part}' is not an integer assignment") from error
        if not values:
            raise ValueError(
                f"empty serving target '{label}' "
                f"(expected key=value with keys {cls._KEYS})")
        return cls(batch_size=values.get("batch"),
                   prompt_length=values.get("prompt"),
                   tensor_parallel=values.get("tp"))

    def label(self) -> str:
        """Canonical label (fixed key order, so equal targets hash equal)."""
        parts = []
        if self.batch_size is not None:
            parts.append(f"batch={self.batch_size}")
        if self.prompt_length is not None:
            parts.append(f"prompt={self.prompt_length}")
        if self.tensor_parallel is not None:
            parts.append(f"tp={self.tensor_parallel}")
        return ",".join(parts)

    def resolve(self, base: InferenceConfig,
                base_parallel: ParallelismConfig) -> tuple[InferenceConfig, ParallelismConfig]:
        """Apply this target to a base configuration."""
        config = base.with_changes(batch_size=self.batch_size,
                                   prompt_length=self.prompt_length)
        parallel = base_parallel.with_changes(tensor_parallel=self.tensor_parallel)
        return config, parallel

    def is_noop(self, base: InferenceConfig, base_parallel: ParallelismConfig) -> bool:
        """True when applying the target changes nothing."""
        config, parallel = self.resolve(base, base_parallel)
        return config == base and parallel == base_parallel


def validate_tp_for_model(model: ModelConfig, tensor_parallel: int) -> None:
    """Reject TP degrees whose Megatron shards would silently drop work.

    Head, MLP and vocabulary partitioning all use integer division, so a
    degree that does not divide the sharded dimensions would model only
    part of the deployment's work and underestimate it.
    """
    for value, name in ((model.n_heads, "n_heads"), (model.d_ff, "d_ff"),
                        (model.vocab_size, "vocab_size")):
        if value % tensor_parallel:
            raise ValueError(
                f"tensor parallelism {tensor_parallel} does not divide the "
                f"model's {name} ({value}); the shards would silently drop "
                "modeled work")


# -- operator decomposition ----------------------------------------------------
# (_gemm / _memory_bound come from the training decomposition so the cost
# accounting has exactly one implementation.)


def _activation_bytes(model: ModelConfig, config: InferenceConfig, tokens: int) -> float:
    return float(tokens * model.d_model * config.dtype_bytes)


def _tp_collective(name: str, kind: str, size_bytes: float) -> OpSpec:
    return OpSpec(name=name, op_class=OpClass.COMM,
                  collective=CollectiveSpec(kind=kind, size_bytes=size_bytes, group="tp"),
                  stream_role="tp_comm")


def _decode_attention(model: ModelConfig, parallel: ParallelismConfig,
                      config: InferenceConfig, contexts: tuple[int, ...]) -> OpSpec:
    """The per-step KV-cache attention kernel (flash-decoding style).

    One query token per in-flight request attends over that request's own
    cached tokens: the kernel streams the rank-local KV cache once (the
    dominant cost, so the traffic is the *sum* of the per-request context
    lengths) and appends the new tokens' K/V, so it is bandwidth-bound on
    the KV traffic rather than FLOP-bound like prefill attention.  The
    tile shape is reported at the longest context.
    """
    b = len(contexts)
    total = sum(contexts)
    longest = max(contexts)
    heads_local = max(1, model.n_heads // parallel.tp)
    a_local = heads_local * model.d_head
    kv_read = total * 2.0 * a_local * config.kv_dtype_bytes
    kv_append = b * 2.0 * a_local * config.kv_dtype_bytes
    qo_bytes = 4.0 * b * a_local * config.dtype_bytes
    flops = 4.0 * heads_local * model.d_head * total
    return OpSpec(name="decode_attention", op_class=OpClass.DECODE_ATTENTION,
                  flops=flops, bytes_accessed=kv_read + kv_append + qo_bytes,
                  m=b * heads_local, n=longest, k=model.d_head,
                  metadata={"context": longest})


def _tagged(ops: list[OpSpec], phase: str) -> list[OpSpec]:
    tagged = []
    for op in ops:
        metadata = dict(op.metadata)
        metadata["phase"] = phase
        tagged.append(op.scaled(metadata=metadata))
    return tagged


def prefill_embedding_ops(model: ModelConfig, parallel: ParallelismConfig,
                          config: InferenceConfig) -> list[OpSpec]:
    """Token/position embedding lookup over the whole prompt batch."""
    act = _activation_bytes(model, config, config.prefill_tokens)
    ops = [
        _memory_bound("token_embedding", OpClass.EMBEDDING, 2 * act),
        _memory_bound("position_embedding_add", OpClass.ELEMENTWISE, 2 * act),
    ]
    return _tagged(ops, phase="prefill")


def prefill_layer_ops(model: ModelConfig, parallel: ParallelismConfig,
                      config: InferenceConfig) -> list[OpSpec]:
    """One transformer layer's prefill pass.

    Bit-for-bit the training forward decomposition at
    ``micro_batch = batch_size`` and ``sequence = prompt_length`` (prefill
    *is* a forward pass), retagged with the serving phase.
    """
    ops = layer_forward_ops(model, parallel, config.prefill_training())
    return _tagged(ops, phase="prefill")


def _head_ops(model: ModelConfig, parallel: ParallelismConfig,
              config: InferenceConfig, batch: int, norm_bytes: float,
              phase: str) -> list[OpSpec]:
    """Final norm, next-token logits and sampling — shared by both phases.

    Serving only needs logits for each of the ``batch`` requests' *last*
    position (``m = batch``); only the final layer norm's traffic differs
    (the whole prompt batch after prefill, one token per request in
    decode).
    """
    tp = parallel.tp
    dtype = config.dtype_bytes
    vocab_local = model.vocab_size // tp

    ops = [
        _memory_bound("final_layer_norm", OpClass.LAYERNORM, norm_bytes),
        _gemm("lm_head", m=batch, n=vocab_local, k=model.d_model, dtype_bytes=dtype),
    ]
    if tp > 1:
        ops.append(_tp_collective("tp_all_gather_logits", CollectiveKind.ALL_GATHER,
                                  float(batch * vocab_local * dtype)))
    ops.append(_memory_bound("sample_token", OpClass.ELEMENTWISE,
                             float(batch * model.vocab_size * dtype)))
    return _tagged(ops, phase=phase)


def prefill_head_ops(model: ModelConfig, parallel: ParallelismConfig,
                     config: InferenceConfig) -> list[OpSpec]:
    """Final norm over the prompt batch, first-token logits and sampling."""
    act = _activation_bytes(model, config, config.prefill_tokens)
    return _head_ops(model, parallel, config, config.batch_size,
                     norm_bytes=2 * act, phase="prefill")


# A decode step's ``contexts[i]`` is the KV context length of its i-th
# in-flight request (see :meth:`~repro.workload.arrivals.StreamPlan.step_contexts`);
# the GEMM batch is ``len(contexts)``.


def decode_embedding_ops(model: ModelConfig, parallel: ParallelismConfig,
                         config: InferenceConfig,
                         contexts: tuple[int, ...]) -> list[OpSpec]:
    """Embedding lookup for the in-flight requests' new tokens."""
    act = _activation_bytes(model, config, len(contexts))
    return _tagged([_memory_bound("token_embedding", OpClass.EMBEDDING, 2 * act)],
                   phase="decode")


def decode_layer_ops(model: ModelConfig, parallel: ParallelismConfig,
                     config: InferenceConfig,
                     contexts: tuple[int, ...]) -> list[OpSpec]:
    """One transformer layer of one autoregressive decode step.

    The GEMMs are the training forward shapes with one token per in-flight
    request (skinny ``m``); attention is the memory-bound KV-cache kernel
    over each request's cached tokens; under TP the attention and MLP
    block outputs are all-reduced every step.
    """
    if not contexts:
        raise ValueError("a decode step needs at least one in-flight request")
    b = len(contexts)
    h, f = model.d_model, model.d_ff
    a = model.attention_dim
    tp = parallel.tp
    dtype = config.dtype_bytes
    act = _activation_bytes(model, config, b)

    ops: list[OpSpec] = [
        _memory_bound("layer_norm_in", OpClass.LAYERNORM, 2 * act),
        _gemm("attn_qkv", m=b, n=3 * a // tp, k=h, dtype_bytes=dtype),
        _decode_attention(model, parallel, config, contexts),
        _gemm("attn_proj", m=b, n=h, k=a // tp, dtype_bytes=dtype),
    ]
    if tp > 1:
        ops.append(_tp_collective("tp_all_reduce_attn_decode",
                                  CollectiveKind.ALL_REDUCE, act))
    ops.extend([
        _memory_bound("residual_attn", OpClass.ELEMENTWISE, 3 * act),
        _memory_bound("layer_norm_post_attn", OpClass.LAYERNORM, 2 * act),
        _gemm("mlp_fc1", m=b, n=f // tp, k=h, dtype_bytes=dtype),
        _memory_bound("gelu", OpClass.GELU, 2.0 * b * (f // tp) * dtype),
        _gemm("mlp_fc2", m=b, n=h, k=f // tp, dtype_bytes=dtype),
    ])
    if tp > 1:
        ops.append(_tp_collective("tp_all_reduce_mlp_decode",
                                  CollectiveKind.ALL_REDUCE, act))
    ops.append(_memory_bound("residual_mlp", OpClass.ELEMENTWISE, 3 * act))
    return _tagged(ops, phase="decode")


def decode_head_ops(model: ModelConfig, parallel: ParallelismConfig,
                    config: InferenceConfig,
                    contexts: tuple[int, ...]) -> list[OpSpec]:
    """Final norm, next-token logits and sampling of one decode step."""
    act = _activation_bytes(model, config, len(contexts))
    return _head_ops(model, parallel, config, len(contexts),
                     norm_bytes=2 * act, phase="decode")
