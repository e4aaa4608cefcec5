"""High-level emulation API.

:func:`emulate` plays the role of "run the job on the cluster and profile
it": it returns Kineto-style traces for a profiled iteration plus
independently-perturbed traces for a measured iteration, which the
evaluation compares Lumos's replay against (mirroring how the paper
validates replay against real measurements rather than against the very
iteration that was profiled).

Two workload families share this entry point: 3D-parallel **training**
iterations (the default) and LLM **serving** episodes (pass
``inference=``), which emit prefill + autoregressive-decode traces through
the same executor and trace schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.emulator.emit import tasks_to_trace
from repro.emulator.executor import ProgramExecutor
from repro.emulator.inference_builder import InferenceProgramBuilder
from repro.emulator.noise import NoiseConfig, NoiseModel
from repro.emulator.program import RankProgram
from repro.emulator.program_builder import ProgramBuilder
from repro.hardware.cluster import ClusterSpec
from repro.observability import tracing as observability
from repro.trace.kineto import DistributedInfo, TraceBundle
from repro.workload.arrivals import STREAM_METADATA_KEY
from repro.workload.inference import (
    WORKLOAD_SERVING,
    WORKLOAD_TRAINING,
    InferenceConfig,
)
from repro.workload.model_config import ModelConfig
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

_ITERATION_START_US = 1000.0


@dataclass
class EmulationResult:
    """Traces produced by one emulated training run or serving episode."""

    model: ModelConfig
    parallel: ParallelismConfig
    training: TrainingConfig
    cluster: ClusterSpec
    inference: InferenceConfig | None = None
    iterations: list[TraceBundle] = field(default_factory=list)

    @property
    def workload(self) -> str:
        """Which workload family produced the traces."""
        return WORKLOAD_TRAINING if self.inference is None else WORKLOAD_SERVING

    @property
    def profiled(self) -> TraceBundle:
        """The iteration handed to Lumos (what the profiler captured)."""
        return self.iterations[0]

    @property
    def measured(self) -> TraceBundle:
        """The iteration used as ground truth for validation."""
        return self.iterations[-1]

    def iteration_time(self, index: int) -> float:
        """Wall-clock time of iteration ``index`` in microseconds."""
        return self.iterations[index].iteration_time()

    def measured_iteration_time(self) -> float:
        """Ground-truth iteration time in microseconds."""
        return self.measured.iteration_time()


class ClusterEmulator:
    """Emulates a 3D-parallel training job (or serving episode) on a cluster."""

    def __init__(self, model: ModelConfig, parallel: ParallelismConfig,
                 training: TrainingConfig | None = None,
                 cluster: ClusterSpec | None = None,
                 seed: int = 0, noise: NoiseConfig | None = None,
                 inference: InferenceConfig | None = None) -> None:
        if inference is not None and training is not None:
            raise ValueError("pass either a training or an inference "
                             "configuration, not both")
        self.model = model
        self.parallel = parallel
        self.training = training or TrainingConfig()
        self.inference = inference
        self.cluster = cluster or ClusterSpec.for_world_size(parallel.world_size)
        self.noise_model = NoiseModel(seed=seed, config=noise)
        if inference is not None:
            self._builder = InferenceProgramBuilder(model, parallel, inference,
                                                    self.cluster)
        else:
            self._builder = ProgramBuilder(model, parallel, self.training, self.cluster)
        self._programs: dict[int, RankProgram] | None = None

    def programs(self) -> dict[int, RankProgram]:
        """The per-rank programs of one iteration (built lazily, cached)."""
        if self._programs is None:
            with observability.trace_span("emulate.build_programs",
                                          workload=self.workload,
                                          ranks=self.parallel.world_size):
                self._programs = self._builder.build()
        return self._programs

    @property
    def workload(self) -> str:
        """Which workload family this emulator builds."""
        return WORKLOAD_TRAINING if self.inference is None else WORKLOAD_SERVING

    def run(self, iterations: int = 2) -> EmulationResult:
        """Emulate ``iterations`` training iterations and return their traces."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        programs = self.programs()
        result = EmulationResult(model=self.model, parallel=self.parallel,
                                 training=self.training, cluster=self.cluster,
                                 inference=self.inference)
        for iteration in range(iterations):
            result.iterations.append(self._run_iteration(programs, iteration))
        return result

    def _run_iteration(self, programs: dict[int, RankProgram], iteration: int) -> TraceBundle:
        noise_streams = {
            rank: self.noise_model.rank_stream(iteration, rank) for rank in programs
        }
        executor = ProgramExecutor(noise_streams=noise_streams)
        with observability.trace_span("emulate.iteration", iteration=iteration):
            executed = executor.execute(programs, start_time=_ITERATION_START_US)
        metadata = {
            "model": self.model.name,
            "parallelism": self.parallel.label(),
            "iteration": iteration,
            "gpu": self.cluster.gpu.name,
            "gpus_per_node": self.cluster.gpus_per_node,
        }
        if self.inference is not None:
            metadata["workload"] = WORKLOAD_SERVING
            metadata["inference"] = self.inference.to_json()
            stream_plan = getattr(self._builder, "stream_plan", None)
            if stream_plan is not None:
                metadata[STREAM_METADATA_KEY] = stream_plan.to_json()
        else:
            metadata["micro_batch_size"] = self.training.micro_batch_size
            metadata["num_microbatches"] = self.training.num_microbatches
        bundle = TraceBundle(metadata=metadata)
        for rank, tasks in executed.items():
            distributed = DistributedInfo(
                rank=rank, world_size=self.parallel.world_size,
                tensor_parallel=self.parallel.tp, pipeline_parallel=self.parallel.pp,
                data_parallel=self.parallel.dp,
            )
            bundle.add(tasks_to_trace(rank, tasks, iteration, distributed))
        return bundle


def emulate(model: ModelConfig, parallel: ParallelismConfig,
            training: TrainingConfig | None = None, cluster: ClusterSpec | None = None,
            iterations: int = 2, seed: int = 0,
            noise: NoiseConfig | None = None,
            inference: InferenceConfig | None = None) -> EmulationResult:
    """Emulate a training job (or, with ``inference=``, a serving episode)."""
    emulator = ClusterEmulator(model=model, parallel=parallel, training=training,
                               cluster=cluster, seed=seed, noise=noise,
                               inference=inference)
    return emulator.run(iterations=iterations)
