"""The :class:`Study` facade: one stateful object for the paper's workflow.

Figure 2 of the paper is a loop — profile, replay, calibrate, manipulate,
predict — and every step after "profile" shares expensive state: the base
replay, the calibrated :class:`~repro.core.perf_model.KernelPerfModel`, and
one compiled :class:`~repro.core.engine.SimulationSession` per derived
configuration.  A :class:`Study` owns that state and memoizes it:

* the base trace is replayed once (:meth:`Study.replay`);
* the perf model is calibrated lazily, on the first manipulation that
  needs it (:attr:`Study.perf_model`);
* every target is folded onto one :class:`~repro.api.target.Target` key
  (segments equal to the base configuration fold away, so a target equal
  to the base *is* the base), and each key's compiled graph (a retime's
  is a view of its source's, whose tasks are built only when read) with
  its session, and its prediction, are cached per key: a repeated
  :meth:`Study.predict` of the same configuration is a lookup, and a
  batch of :meth:`Study.whatif` scenarios against one target is one
  simulation call on a single session, whose row 0 is the target itself;
* the base trace's content digest — the sweep cache's key — is hashed
  once (:attr:`Study.trace_digest`).

The sweep runner (:mod:`repro.sweep.runner`) and the CLI are thin clients
of this class, which derives every key's graph one manipulation at a time
through :func:`repro.core.manipulation.derive`.  Every sweep is a study's
sweep (:meth:`Study.sweep`): ``repro.sweep``, the CLI and service workers
open a study for their spec and sweep on it.

Every entry point (this class, the CLI, JSON sweep specs, service
admission) reads a trace's base by one rule, :func:`resolve_base`, and a
guessed model or parallelism never feeds a derive.  A JSON spec run on a
study takes the base keys it omits from the study's own base.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.api.errors import PredictError, StudyError
from repro.api.target import Target, TargetLike, on_gpu, parse_target, resolve_target
from repro.core import whatif as whatif_mod
from repro.core.breakdown import ExecutionBreakdown
from repro.core.engine import CompiledGraph, SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.manipulation import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    KIND_SERVING,
    Configuration,
    DeriveContext,
    dispatch,
)
from repro.core.perf_model import KernelPerfModel
from repro.core.replay import ReplayResult
from repro.core.replay import replay as _replay_trace
from repro.core.serving_metrics import (
    ServingMetrics,
    metrics_from_task_times,
    stream_plan_of,
)
from repro.observability import tracing as observability
from repro.core.tasks import Task
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import H100_SXM, GPUSpec, registry_gpu
from repro.trace.kineto import TraceBundle
from repro.workload.inference import (
    WORKLOAD_SERVING,
    WORKLOAD_TRAINING,
    InferenceConfig,
    ServingTarget,
)
from repro.workload.model_config import ModelConfig, gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

if TYPE_CHECKING:
    from pathlib import Path

    from repro.core.graph_builder import GraphBuilderOptions
    from repro.core.whatif import WhatIfResult
    from repro.emulator.api import EmulationResult
    from repro.emulator.noise import NoiseConfig
    from repro.sweep.cache import SweepCache
    from repro.sweep.runner import SweepResult
    from repro.sweep.spec import SweepSpec, WhatIfSpec

#: The one table of base defaults (the values sweep cache keys hash);
#: ``SweepSpec``'s field defaults and ``emulate``'s flags read it.
BASE_DEFAULTS: Mapping[str, Any] = MappingProxyType({
    "model": "gpt3-15b", "parallelism": "2x2x4",
    "micro_batch_size": 2, "num_microbatches": 4})

#: Why a derive, a JSON sweep spec or a service job refuses a guessed base.
GUESSED_BASE = ("the trace did not record its base model/parallelism, so graph "
                "manipulation would run against a guessed base configuration; "
                "pass model= and parallelism= explicitly when opening the study")


def resolve_base(metadata: Mapping[str, Any],
                 named: Mapping[str, Any] | None = None) -> tuple[dict[str, Any], bool]:
    """A trace's base block and whether its model or parallelism was guessed.

    Each key of :data:`BASE_DEFAULTS` is what the caller ``named`` (``None``
    is not named; typed objects and other keys pass through), else what the
    trace ``metadata`` records (a model or parallelism only if it
    resolves), else the default.  A named or recorded value that resolves
    is kept canonical, so one base has one spelling and one cache key.  A
    serving episode's ``inference`` is the named one, else the metadata's
    parsed block; :class:`StudyError` if a serving mark has no block that
    parses.
    """
    base = {key: value for key, value in (named or {}).items() if value is not None}
    guessed = False
    for key, default in BASE_DEFAULTS.items():
        value = base.get(key, metadata.get(key))
        canonical = _canonical(key, value)
        if key not in base:
            guessed |= canonical is None and key in ("model", "parallelism")
            value = default
        base[key] = value if canonical is None else canonical
    if "inference" not in base and metadata.get("workload") == WORKLOAD_SERVING:
        payload = metadata.get("inference")
        if not isinstance(payload, Mapping):
            # A training base would report confident wrong predictions.
            raise StudyError(
                "the trace metadata marks a serving episode but carries "
                "no inference configuration; pass inference= explicitly")
        try:
            base["inference"] = InferenceConfig.from_json(payload)
        except (TypeError, ValueError) as exc:
            raise StudyError(
                f"trace metadata carries a malformed inference "
                f"configuration: {exc}") from exc
    return base, guessed


def _canonical(key: str, value: Any) -> Any:
    """A base key's value, canonical, or ``None`` if absent or unresolvable."""
    try:
        if key == "model":
            return gpt3_model(str(value)).name
        if key == "parallelism":
            return ParallelismConfig.parse(str(value)).label()
        return int(value)
    except (KeyError, TypeError, ValueError):
        return None


def _training(base: Mapping[str, Any]) -> TrainingConfig:
    return TrainingConfig(micro_batch_size=base["micro_batch_size"],
                          num_microbatches=base["num_microbatches"])


def _resolve_model(model: ModelConfig | str) -> ModelConfig:
    if isinstance(model, ModelConfig):
        return model
    try:
        return gpt3_model(model)
    except KeyError as exc:
        raise StudyError(str(exc.args[0])) from exc


def _resolve_parallelism(parallelism: ParallelismConfig | str) -> ParallelismConfig:
    if isinstance(parallelism, ParallelismConfig):
        return parallelism
    try:
        return ParallelismConfig.parse(parallelism)
    except ValueError as exc:
        raise StudyError(str(exc)) from exc


def _serving_metrics(result: ReplayResult,
                     deadline_ms: float | None) -> ServingMetrics | None:
    """Score a result's run against its graph's stream plan, if it has one."""
    run = result.run
    plan = stream_plan_of(run.compiled.metadata)
    if plan is None:
        return None
    return metrics_from_task_times(run.compiled.sample_tokens, run.starts,
                                   run.durations, plan, deadline_ms=deadline_ms)


@dataclass(frozen=True)
class Prediction:
    """Outcome of predicting one target configuration from a base trace."""

    target: str
    kind: str
    world_size: int
    base_time_us: float
    result: ReplayResult

    @property
    def label(self) -> str:
        return self.target

    @property
    def iteration_time_us(self) -> float:
        return self.result.iteration_time_us

    @property
    def iteration_time_ms(self) -> float:
        return self.result.iteration_time_ms

    @property
    def speedup_vs_base(self) -> float:
        if self.iteration_time_us <= 0:
            return float("inf")
        return self.base_time_us / self.iteration_time_us

    @property
    def graph(self) -> ExecutionGraph:
        """The predicted graph; a retimed target's is built on first read."""
        return self.result.graph

    def breakdown(self) -> ExecutionBreakdown:
        return self.result.breakdown()

    @property
    def is_stream(self) -> bool:
        """Whether the predicted graph is a continuous-batching episode."""
        return stream_plan_of(self.result.run.compiled.metadata) is not None

    def serving_metrics(self, deadline_ms: float | None = None) -> ServingMetrics | None:
        """Per-request serving metrics of the predicted episode.

        ``None`` for targets whose graph carries no continuous-batching
        stream plan (training iterations and fixed-batch serving
        episodes).  ``deadline_ms`` sets the SLO-attainment deadline
        (default :data:`~repro.core.serving_metrics.DEFAULT_SLO_MS`).
        """
        return _serving_metrics(self.result, deadline_ms)


class WhatIfBuilder:
    """Fluent batch of what-if scenarios against one study configuration.

    Builder methods queue :class:`~repro.core.whatif.Scenario` objects and
    return ``self``; :meth:`run` evaluates the whole batch against the
    study's memoized session for the bound configuration — one compile,
    one simulation call over the stacked duration matrix, whose row 0 is
    the configuration itself (bit-identical to evaluating each scenario
    alone)::

        results = (study.whatif()
                   .kernel_class("gemm", 2.0)
                   .communication(2.0, group="dp")
                   .launch_overhead()
                   .run())
    """

    def __init__(self, study: "Study", key: Target) -> None:
        self._study = study
        self._key = key
        self._scenarios: list[whatif_mod.Scenario] = []

    def __len__(self) -> int:
        return len(self._scenarios)

    # -- scenario vocabulary (mirrors repro.core.whatif) --------------------

    def kernel_class(self, op_class: str, speedup: float = 2.0) -> "WhatIfBuilder":
        """What if every kernel of one class (e.g. ``"gemm"``) were faster?"""
        return self.apply("kernel_class", op_class=op_class, speedup=speedup)

    def communication(self, speedup: float = 2.0, *,
                      group: str | None = None) -> "WhatIfBuilder":
        """What if communication kernels (optionally one group) were faster?"""
        return self.apply("communication", group=group, speedup=speedup)

    def launch_overhead(self) -> "WhatIfBuilder":
        """What if CPU-side kernel-launch overhead were free?"""
        return self.apply("launch_overhead")

    def scenario(self, name: str, predicate: Callable[[Task], bool],
                 speedup: float = 2.0) -> "WhatIfBuilder":
        """A custom scenario: rescale every task matching ``predicate``."""
        self._scenarios.append(whatif_mod.Scenario(name=name, predicate=predicate,
                                                   speedup=speedup))
        return self

    def apply(self, kind: str, *, op_class: str | None = None,
              group: str | None = None, speedup: float = 2.0) -> "WhatIfBuilder":
        """Queue a scenario by its declarative kind (see ``scenario_for``)."""
        self._scenarios.append(whatif_mod.scenario_for(kind, op_class=op_class,
                                                       group=group, speedup=speedup))
        return self

    # -- evaluation ---------------------------------------------------------

    def run(self) -> "list[WhatIfResult]":
        """Evaluate every queued scenario in one simulation call.

        Row 0 of the call times the configuration itself, the baseline
        of every result.  On a continuous-batching serving study every
        result also carries the scenario's own :class:`~repro.core.
        serving_metrics.ServingMetrics` (computed from the same
        simulation, no extra run) in
        :attr:`~repro.core.whatif.WhatIfResult.serving`.
        """
        if not self._scenarios:
            raise StudyError("no what-if scenarios queued; add one before run()")
        with observability.trace_span("study.whatif", kind=self._key.kind,
                                      target=self._key.label,
                                      scenarios=len(self._scenarios)):
            compiled, _, session = self._study.config_state(self._key)
            results = whatif_mod.evaluate_scenarios(compiled, self._scenarios,
                                                    session=session)
        observability.count("study.whatif_scenarios", len(results))
        return results

    def best(self) -> "WhatIfResult":
        """Evaluate the batch and return the scenario with the lowest time."""
        return min(self.run(), key=lambda result: result.scenario_time_us)


class Study:
    """Stateful facade over the replay / predict / what-if / sweep workflow.

    Construct with :meth:`from_trace` (a saved or in-memory trace bundle)
    or :meth:`from_emulation` (run the cluster emulator first).  All
    expensive state is materialised lazily and memoized; see the module
    docstring for exactly what is shared.

    Instances pickle (the sweep runner ships one to its worker processes):
    the trace bundle, emulation result, base replay and per-target memos
    stay behind, while the base graph, base iteration time and calibrated
    perf model travel — call :meth:`prepare` before pickling.
    """

    def __init__(self, trace: TraceBundle | None = None, *,
                 model: ModelConfig | str | None = None,
                 parallelism: ParallelismConfig | str | None = None,
                 training: TrainingConfig | None = None,
                 cluster: ClusterSpec | None = None,
                 options: "GraphBuilderOptions | None" = None,
                 inference: InferenceConfig | None = None) -> None:
        # What the caller names resolves strictly; replay never consults
        # the base, but a guessed one makes every derive refuse.
        base, self._base_guessed = resolve_base(
            trace.metadata if trace is not None else {},
            {"model": model, "parallelism": parallelism, "inference": inference})
        self.base_model = _resolve_model(base["model"])
        self.base_parallel = _resolve_parallelism(base["parallelism"])
        self.training = training or _training(base)
        self.inference = base.get("inference")
        if self.inference is not None:
            try:
                self.base_parallel.validate_for_inference()
            except ValueError as exc:
                raise StudyError(str(exc)) from exc
        self.calibrations = 0
        self._bundle = trace
        self._trace_digest: str | None = None
        self._options = options
        # Unless named, the part and node size the trace records (an H100
        # of an 8-GPU node when it records none the registry knows).
        recorded = trace.metadata if trace is not None else {}
        gpus_per_node = _canonical("gpus_per_node", recorded.get("gpus_per_node"))
        self._cluster = cluster or ClusterSpec.for_world_size(
            self.base_parallel.world_size,
            gpus_per_node=gpus_per_node if gpus_per_node and gpus_per_node > 0 else 8,
            gpu=registry_gpu(str(recorded.get("gpu", ""))) or H100_SXM)
        self._emulation: "EmulationResult | None" = None
        self._replay: ReplayResult | None = None
        self._base_graph: ExecutionGraph | None = None
        self._base_time: float | None = None
        self._perf_model: KernelPerfModel | None = None
        #: Non-registry architecture targets by name (predict(<ModelConfig>)).
        #: Part of the picklable snapshot so pool workers can derive them.
        self._custom_models: dict[str, ModelConfig] = {}
        #: Non-registry GPU specs by name (predict(GPUSpec) / JSON spec
        #: files); travels in the picklable snapshot like custom models.
        self._custom_gpus: dict[str, GPUSpec] = {}
        #: Per-target memos, keyed by the folded :class:`Target` (:meth:`_key`):
        #: the session over each target's compiled graph (a retime's is a
        #: view of its source's) with its world size, and its prediction.
        self._configs: dict[Target, tuple[SimulationSession, int]] = {}
        self._predictions: dict[Target, Prediction] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: "TraceBundle | str | Path", *,
                   model: ModelConfig | str | None = None,
                   parallelism: ParallelismConfig | str | None = None,
                   micro_batch_size: int | None = None,
                   num_microbatches: int | None = None,
                   training: TrainingConfig | None = None,
                   cluster: ClusterSpec | None = None,
                   options: "GraphBuilderOptions | None" = None,
                   inference: InferenceConfig | None = None) -> "Study":
        """Open a study over a profiled trace (a bundle or its directory).

        A ``None`` base argument applies :func:`resolve_base` (the
        emulator records the whole base; a bundle saved before it recorded
        the micro-batch size opens at the default unless it is named), so
        ``Study.from_trace(trace)`` is ``Study(trace)``; a study on a
        guessed model or parallelism replays but refuses to manipulate.
        """
        bundle = trace if isinstance(trace, TraceBundle) else TraceBundle.load(trace)
        if training is None:
            # A named inference block spares the trace's own its checks.
            base, _ = resolve_base(bundle.metadata, {
                "micro_batch_size": micro_batch_size,
                "num_microbatches": num_microbatches, "inference": inference})
            training = _training(base)
        return cls(bundle, model=model, parallelism=parallelism, training=training,
                   cluster=cluster, options=options, inference=inference)

    @classmethod
    def from_emulation(cls, model: ModelConfig | str,
                       parallelism: ParallelismConfig | str,
                       training: TrainingConfig | None = None, *,
                       inference: InferenceConfig | None = None,
                       iterations: int = 2, seed: int = 0,
                       noise: "NoiseConfig | None" = None,
                       cluster: ClusterSpec | None = None,
                       options: "GraphBuilderOptions | None" = None) -> "Study":
        """Emulate a training job (or serving episode) and study its trace.

        Pass ``inference=`` to emulate a prefill + autoregressive-decode
        serving episode instead of a training iteration (``training`` and
        ``inference`` are mutually exclusive).  The full
        :class:`~repro.emulator.api.EmulationResult` stays reachable
        through :attr:`emulation` (e.g. for validating predictions against
        the independently-measured iteration).
        """
        from repro.emulator.api import emulate

        base_model = _resolve_model(model)
        base_parallel = _resolve_parallelism(parallelism)
        if inference is not None:
            if training is not None:
                raise StudyError("pass either a training or an inference "
                                 "configuration, not both")
            try:
                base_parallel.validate_for_inference()
                emulation = emulate(base_model, base_parallel, cluster=cluster,
                                    iterations=iterations, seed=seed, noise=noise,
                                    inference=inference)
            except ValueError as exc:
                # The builder's own validation (TP divisibility, cluster
                # size) surfaces as the same typed error as PP rejection.
                raise StudyError(str(exc)) from exc
        else:
            training = training or TrainingConfig()
            emulation = emulate(base_model, base_parallel, training, cluster=cluster,
                                iterations=iterations, seed=seed, noise=noise)
        # A serving study names the training its inline specs always hashed.
        study = cls(emulation.profiled, model=base_model, parallelism=base_parallel,
                    training=training or TrainingConfig(), cluster=emulation.cluster,
                    options=options, inference=inference)
        study._emulation = emulation
        return study

    # -- shared state (lazy, memoized) --------------------------------------

    @property
    def trace(self) -> TraceBundle:
        """The profiled base trace bundle."""
        if self._bundle is None:
            raise StudyError("this study has no trace bundle "
                             "(it was pickled for a worker process)")
        return self._bundle

    @property
    def trace_digest(self) -> str:
        """Content digest of :attr:`trace`, hashed once and then memoized.

        The same digest :func:`~repro.sweep.hashing.hash_trace_bundle`
        computes, so sweep cache entries and service job ids keyed by
        either agree.  Like the replay, it assumes the bundle is not
        mutated after the study opened it.
        """
        if self._trace_digest is None:
            # Imported here: repro.sweep.runner imports this module.
            from repro.sweep.hashing import hash_trace_bundle

            self._trace_digest = hash_trace_bundle(self.trace)
        return self._trace_digest

    @property
    def emulation(self) -> "EmulationResult":
        """The emulation this study was built from (``from_emulation`` only)."""
        if self._emulation is None:
            raise StudyError("this study was not built by from_emulation")
        return self._emulation

    @property
    def cluster(self) -> ClusterSpec:
        """The cluster the base trace was profiled on; every derive re-times on it.

        Unless ``cluster=`` names it, the GPU and node size the trace
        records (the emulator writes both), else H100 nodes of 8.
        """
        return self._cluster

    def replay(self) -> ReplayResult:
        """The base replay — performed once, then served from memory."""
        if self._replay is None:
            with observability.trace_span("study.replay",
                                          workload=self.workload) as span:
                self._replay = _replay_trace(self.trace, self._options)
                span.set(tasks=len(self._replay.graph))
            self._base_graph = self._replay.graph
            self._base_time = self._replay.iteration_time_us
        return self._replay

    @property
    def base_graph(self) -> ExecutionGraph:
        """The execution graph of the base replay."""
        if self._base_graph is None:
            self.replay()
        return self._base_graph

    @property
    def base_time_us(self) -> float:
        """Replayed base iteration time in microseconds."""
        if self._base_time is None:
            self.replay()
        return self._base_time

    @property
    def base_time_ms(self) -> float:
        """Replayed base iteration time in milliseconds."""
        return self.base_time_us / 1000.0

    @property
    def perf_model(self) -> KernelPerfModel:
        """The calibrated kernel perf model (calibrated on first use)."""
        if self._perf_model is None:
            with observability.trace_span("study.calibrate"):
                self._perf_model = KernelPerfModel.calibrate(self.base_graph,
                                                             self.cluster)
            self.calibrations += 1
            observability.count("study.calibrations")
        return self._perf_model

    def breakdown(self) -> ExecutionBreakdown:
        """Execution breakdown of the replayed base iteration."""
        return self.replay().breakdown()

    @property
    def stream_plan(self):
        """The base episode's continuous-batching plan, or ``None``.

        Present exactly when the study was opened over a serving episode
        emulated with an arrival process (``InferenceConfig.arrival``).
        """
        return stream_plan_of(self.base_graph.metadata)

    def base_serving_metrics(self, deadline_ms: float | None = None) -> ServingMetrics | None:
        """Per-request serving metrics of the replayed base episode.

        ``None`` unless the base trace is a continuous-batching serving
        episode (see :attr:`stream_plan`).
        """
        return _serving_metrics(self.replay(), deadline_ms)

    def prepare(self) -> "Study":
        """Force-materialise the base replay and perf model; returns self.

        Call before pickling (the picklable snapshot carries only the
        materialised state) or to front-load the expensive work.
        """
        self.base_time_us
        self.perf_model
        return self

    # -- configuration resolution and caches --------------------------------

    @property
    def workload(self) -> str:
        """Which workload family the base trace came from."""
        return WORKLOAD_TRAINING if self.inference is None else WORKLOAD_SERVING

    def _key(self, target: TargetLike | None = None) -> Target:
        """Fold a target onto this study's memo key.

        ``target`` is any form :func:`~repro.api.target.parse_target`
        accepts, or ``None`` for the base configuration.  Segments equal
        to the base fold away: a workload segment matching the base
        becomes the baseline, a hardware segment naming the profiled GPU
        is dropped.  So every spelling of one configuration is one key,
        and a target equal to the base shares the base replay instead of
        deriving a no-op graph.  Custom model and GPU payloads ride on
        the key, resolved by name.
        """
        base = Target(KIND_BASELINE, self.base_parallel.label())
        if target is None:
            return base
        resolved = parse_target(target)
        workload, gpu = base, None
        for kind, label in resolved.manipulations:
            if kind == KIND_HARDWARE:
                gpu = (self._register(resolved.gpu) if resolved.gpu is not None
                       else label.removeprefix("gpu="))
            elif kind == KIND_SERVING:
                serving = ServingTarget.parse(label)
                if (self.inference is None
                        or not serving.is_noop(self.inference, self.base_parallel)):
                    workload = Target(KIND_SERVING, serving.label())
            elif kind == KIND_ARCHITECTURE:
                name = (self._register(resolved.model)
                        if resolved.model is not None else label)
                if name != self.base_model.name:
                    workload = Target(KIND_ARCHITECTURE, name,
                                      model=self._custom_models.get(name))
            elif kind == KIND_PARALLELISM:
                label = ParallelismConfig.parse(label).label()
                if label != base.label:
                    workload = Target(KIND_PARALLELISM, label)
        if gpu is None or gpu == self.cluster.gpu.name:
            return workload
        return on_gpu(workload, gpu, self._custom_gpus.get(gpu))

    def _register(self, payload: "ModelConfig | GPUSpec") -> str:
        """Record a custom target model or GPU spec by name, refusing collisions.

        Predictions are memoized by name, so two different payloads sharing
        one name would silently serve each other's cached results.
        """
        name = payload.name
        if isinstance(payload, ModelConfig):
            noun, base, memo = "model", self.base_model, self._custom_models
            try:
                registered = gpt3_model(name)
            except KeyError:
                registered = None
        else:
            noun, base, memo = "GPU spec", self.cluster.gpu, self._custom_gpus
            registered = registry_gpu(name)
        if name == base.name and payload != base:
            raise PredictError(
                f"custom {noun} is named like the base {noun.removesuffix(' spec')} "
                f"({name!r}) but differs from it; give the variant a distinct name")
        previous = memo.get(name)
        if previous is not None and previous != payload:
            raise PredictError(
                f"a different {noun} named {name!r} was already predicted by "
                "this study; give the variant a distinct name")
        if registered is not None and registered != payload:
            raise PredictError(
                f"custom {noun} {name!r} shadows the registry {noun} of the "
                "same name; give the variant a distinct name")
        memo[name] = payload
        return name

    def _derive(self, key: Target) -> tuple[CompiledGraph, int]:
        if self._base_guessed:
            raise StudyError(GUESSED_BASE)
        # The whole chain is judged before any graph work; the profiled GPU
        # is known here, so a hardware segment also checks memory.
        base = Configuration(self.base_model, self.base_parallel, self.inference,
                             self.cluster.gpu)
        *_, source, target = resolve_target(key, base)
        # A composite chain resumes from its memoized workload prefix: in a
        # hardware-crossed sweep every ``<workload>+hardware`` scenario
        # shares its workload sibling's derivation, so the composite pays
        # only the final retime (a duration column over the prefix).
        *prefix, (kind, label) = key.manipulations
        source_key = Target(*prefix[0], model=key.model) if prefix else self._key()
        context = DeriveContext(source=source, target=target, training=self.training,
                                perf_model=self.perf_model)
        compiled = self._config(source_key)[0].compiled
        with observability.trace_span("study.derive_graph", kind=kind,
                                      target=label) as span:
            try:
                derived = dispatch.derive(compiled, kind, context)
            except ValueError as exc:
                raise PredictError.from_refusal(exc) from exc
            span.set(tasks=len(derived[0]))
        return derived

    def _replays_base(self, key: Target) -> bool:
        """Whether ``key`` is the base and this study can replay its trace.

        A study pickled for a worker process has neither its bundle nor
        its replay, only the base graph, so its base compiles that.
        """
        return key.kind == KIND_BASELINE and (self._replay is not None
                                              or self._bundle is not None)

    def _config(self, key: Target) -> tuple[SimulationSession, int]:
        """The (memoized) session over ``key``'s compiled graph, and its world size."""
        if key not in self._configs:
            if key.kind != KIND_BASELINE:
                compiled, world_size = self._derive(key)
            else:
                # The replay already compiled the base graph — reuse it.
                compiled = (self.replay().run.compiled if self._replays_base(key)
                            else compile_graph(self.base_graph))
                world_size = self.base_parallel.world_size
            self._configs[key] = (SimulationSession(compiled), world_size)
        return self._configs[key]

    def derived_graph(self, target: TargetLike | None) -> tuple[ExecutionGraph, int]:
        """The (memoized) derived graph and world size for one target.

        ``target`` takes any form :func:`~repro.api.target.parse_target`
        accepts; a target equal to the base is the base graph.  A retimed
        target's graph is built on this first read.
        """
        session, world_size = self._config(self._key(target))
        return session.compiled.graph, world_size

    def config_state(self, target: TargetLike | None) \
            -> tuple[CompiledGraph, int, SimulationSession]:
        """Compiled graph, world size and session for one target.

        Nothing is simulated: what-if evaluation times the configuration
        as row 0 of its own call.  The compiled graph of a retime is a view
        of its source's, whose tasks are not built by this call.  All three
        are memoized on the study, like :meth:`predict`'s; :meth:`release`
        drops them.
        """
        session, world_size = self._config(self._key(target))
        return session.compiled, world_size, session

    def release(self) -> None:
        """Drop the memoized per-target compiled graphs, sessions and predictions.

        The base replay and calibrated perf model stay, and so does the
        base's compiled graph with its columns (and so the serving retime's
        base operators), its topology's structure and its batch plan; use
        this to bound memory on long-lived studies that have visited many
        targets.
        """
        self._configs.clear()
        self._predictions.clear()

    # -- the paper workflow -------------------------------------------------

    def predict(self, target: TargetLike | None = None) -> Prediction:
        """Predict a new parallelism, model, serving or hardware setup.

        ``target`` takes any form :func:`~repro.api.target.parse_target`
        accepts: ``study.predict("2x4x4")`` scales the deployment (§3.4),
        ``study.predict("model:gpt3-v1")`` (or a :class:`ModelConfig`)
        changes the architecture (§4.3.2), on a serving study
        ``study.predict("serving:batch=16")`` (or a
        :class:`ServingTarget`; bare ``"batch=16"`` auto-detects) rescales
        the episode's batch size, prompt length or TP degree, and
        ``study.predict("gpu=H200-SXM")`` (or a
        :class:`~repro.hardware.gpu.GPUSpec`) retargets the trace onto a
        hypothetical GPU — composable with one workload axis, e.g.
        ``"tp=8,gpu=H200-SXM"`` or ``"parallelism=2x2x8,gpu=B200"``.
        Repeated predictions of the same target are served from the
        study's caches.  Raises :class:`PredictError` for unsupported
        targets — notably tensor-parallelism changes of training bases —
        and for unsound hardware extrapolations (memory capacity,
        unclassifiable kernels).
        """
        if target is None:
            raise PredictError("predict requires a target parallelism, a "
                               "target model or a serving target")
        key = self._key(target)
        if key not in self._predictions:
            with observability.trace_span("study.predict", kind=key.kind,
                                          target=key.label):
                session, world_size = self._config(key)
                # The base keeps the replay's run; any other target runs
                # its session once.
                result = (self.replay() if self._replays_base(key)
                          else ReplayResult(session.run()))
                self._predictions[key] = Prediction(
                    target=key.label, kind=key.kind, world_size=world_size,
                    base_time_us=self.base_time_us, result=result)
            observability.count("study.predictions")
        return self._predictions[key]

    def whatif(self, kind: str | None = None, *,
               target: TargetLike | None = None,
               op_class: str | None = None, group: str | None = None,
               speedup: float = 2.0) -> "WhatIfBuilder | WhatIfResult":
        """What-if scenarios (§5) against the base or a predicted target.

        With no ``kind``, returns a :class:`WhatIfBuilder` to queue several
        scenarios fluently.  With a ``kind`` (``"kernel_class"``,
        ``"communication"`` or ``"launch_overhead"``), evaluates that one
        scenario immediately and returns its
        :class:`~repro.core.whatif.WhatIfResult`.
        """
        builder = WhatIfBuilder(self, self._key(target))
        if kind is None:
            return builder
        return builder.apply(kind, op_class=op_class, group=group,
                             speedup=speedup).run()[0]

    def sweep(self, spec: "SweepSpec | Mapping[str, Any] | str | Path | None" = None, *,
              parallelism: Iterable[str] = (), models: Iterable[str] = (),
              serving: Iterable[str] = (), hardware: Iterable[str] = (),
              whatif: "Iterable[WhatIfSpec | str | Mapping[str, Any]]" = (),
              slo_ms: float | None = None,
              include_baseline: bool = True, workers: int = 1,
              cache: "SweepCache | None" = None,
              cache_dir: "str | Path | None" = None,
              force: bool = False) -> "SweepResult":
        """Evaluate a scenario grid, reusing this study's calibrated state.

        Pass a full :class:`~repro.sweep.spec.SweepSpec` (an object, which
        names its whole base, or a JSON mapping or spec-file path, which
        takes the base keys it omits from this study) whose base must
        match this study, or just the axes (``parallelism`` / ``models`` /
        ``serving`` / ``hardware`` / ``whatif`` — what-if entries may be
        specs, mappings, or compact CLI strings like ``"gemm:2"``; serving
        entries are ``batch=/prompt=/tp=`` labels and require a
        serving-episode study; hardware entries are registry GPU names
        like ``"H200-SXM"`` and cross with every workload configuration),
        which make the JSON spec :func:`~repro.sweep.spec.inline_spec`
        builds.  ``slo_ms`` sets the latency deadline of the per-request
        serving metrics attached to continuous-batching scenario results
        (goodput ranking).
        """
        from pathlib import Path as _Path

        from repro.sweep.cache import SweepCache as _SweepCache
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import SweepSpec as _SweepSpec
        from repro.sweep.spec import inline_spec

        if spec is None:
            spec = inline_spec(whatif=whatif, parallelism=parallelism, models=models,
                               serving=serving, hardware=hardware,
                               include_baseline=include_baseline)
        elif (parallelism or models or serving or hardware or whatif
                or slo_ms is not None or not include_baseline):
            raise StudyError("pass either a full spec or inline axes, not both")
        # A JSON spec takes the base keys it omits from this study, not the trace.
        spec = _SweepSpec.coerce(spec, {}, {
            "model": self.base_model.name, "parallelism": self.base_parallel.label(),
            "micro_batch_size": self.training.micro_batch_size,
            "num_microbatches": self.training.num_microbatches,
            "inference": self.inference, "slo_ms": slo_ms})
        if cache is None and cache_dir is not None:
            cache = _SweepCache(_Path(cache_dir))
        with observability.trace_span("study.sweep", workers=workers):
            return run_sweep(self, spec, workers=workers, cache=cache, force=force)

    def report(self) -> dict[str, Any]:
        """The structured run report of the active-or-last pipeline profile.

        A thin window onto :func:`repro.observability.report`: per-stage
        wall times, the metrics registry snapshot (cache hit rate, batch
        fast-path vs. fallback counts, calibration residuals ...) and the
        span tree collected while a profile was active.  When no profile
        has ever been active the report carries ``"enabled": False`` and
        empty sections — instrumentation stays a strict no-op.
        """
        return observability.report()

    def ensure_matches(self, spec: "SweepSpec") -> None:
        """Reject a sweep spec whose base differs from this study's base."""
        problems = []
        if (_canonical("model", spec.base_model) or spec.base_model) != self.base_model.name:
            problems.append(f"model {spec.base_model!r} != {self.base_model.name!r}")
        if _resolve_parallelism(spec.base_parallelism).label() != self.base_parallel.label():
            problems.append(f"parallelism {spec.base_parallelism!r} != "
                            f"{self.base_parallel.label()!r}")
        if self.inference is None and (
                spec.micro_batch_size != self.training.micro_batch_size
                or spec.num_microbatches != self.training.num_microbatches):
            # Serving bases ignore the training batching knobs: the episode
            # shape lives in the inference configuration instead.
            problems.append(
                f"batching {spec.micro_batch_size}x{spec.num_microbatches} != "
                f"{self.training.micro_batch_size}x{self.training.num_microbatches}")
        if spec.inference != self.inference:
            problems.append(f"inference base {spec.inference!r} != {self.inference!r}")
        if problems:
            raise StudyError("sweep spec base does not match this study: "
                             + "; ".join(problems))

    # -- pickling (worker-process transport) --------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        # The picklable snapshot is the calibrated core (base graph, base
        # time, perf model, configs).  Caches and the bundle stay behind:
        # workers rebuild sessions for their own scenario groups.
        state["_bundle"] = None
        state["_emulation"] = None
        state["_replay"] = None
        state["_configs"] = {}
        state["_predictions"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        status = "calibrated" if self._perf_model is not None else (
            "replayed" if self._replay is not None else "lazy")
        return (f"Study(model={self.base_model.name!r}, "
                f"parallelism={self.base_parallel.label()!r}, {status})")


def predict(trace: "TraceBundle | str | Path",
            target: TargetLike | None = None, *,
            base_model: ModelConfig | str | None = None,
            base_parallelism: ParallelismConfig | str | None = None,
            micro_batch_size: int | None = None,
            num_microbatches: int | None = None,
            training: TrainingConfig | None = None) -> Prediction:
    """One-call prediction: open a throwaway :class:`Study` and predict.

    Serving-episode traces are recognised from their metadata, so
    ``predict(trace, "serving:batch=16")`` works directly on a bundle
    saved by ``repro-lumos emulate --workload serving``.  Prefer a
    long-lived :class:`Study` when predicting several targets from the
    same trace — it shares the replay and calibration across calls.
    """
    study = Study.from_trace(trace, model=base_model, parallelism=base_parallelism,
                             micro_batch_size=micro_batch_size,
                             num_microbatches=num_microbatches, training=training)
    return study.predict(target)
