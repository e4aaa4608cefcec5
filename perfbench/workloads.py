"""The three benchmark workloads and the passes that measure them.

Every input is generated from the workload seed: it seeds the emulator's
noise for the profiled base trace and for every ground-truth run, and the
arrival process of the serving stream.

``predict-cold``
    Cold :meth:`Study.predict` calls over a fixed target ladder;
    :meth:`Study.release` before each call makes every call derive,
    compile, simulate and materialise.
``serving-stream``
    A continuous-batching serving sweep: the base and 4 serving targets,
    8 rows each, with per-request serving metrics on every row.
``service``
    An in-process :class:`ServiceApp` with one worker thread, driven by one
    closed-loop :class:`ServiceClient` that submits the next job only after
    fetching the previous result: a cold pass over distinct sweep jobs that
    share no scenario, then warm resubmissions served from the cache.

A pass is a set-up followed by operations.  A timed pass runs operations
until ``seconds`` have elapsed and the cycle in progress is complete, so
each target or job weighs the same in every run; the traced pass repeats
exactly the operations of the untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import heapq
import itertools
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from layers import LAYERS, LayerTracer
from repro.api import Study, parse_target
from repro.emulator import api as emulator
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import resolve_gpu
from repro.service import ServiceApp, ServiceClient, validate_result_payload
from repro.sweep import SweepSpec, WhatIfSpec
from repro.workload.arrivals import parse_arrival
from repro.workload.inference import InferenceConfig, ServingTarget
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

BASE_MODEL = "gpt3-15b"
TRAINING_BASE = "2x2x2"
TRAINING = TrainingConfig(micro_batch_size=1, num_microbatches=2)

PREDICT_TARGETS = (
    "parallelism=2x2x4", "parallelism=2x4x2", "parallelism=2x1x2",
    "parallelism=2x2x8", "model:gpt3-v1", "model:gpt3-v3", "gpu=H200-SXM",
    "gpu=B200", "parallelism=2x2x4,gpu=H200-SXM",
)

SERVING_BASE = "2x1x1"
SERVING_ARRIVAL = "poisson:rate=400,n={requests},seed={seed}"
#: Small enough that a sweep takes about a second, so a run holds many and
#: the reference computations bracket each one closely.
SERVING_REQUESTS = 4
SERVING_DECODE = 2
SERVING_TARGETS = ("prompt=1024", "prompt=256", "tp=1", "tp=4")
SERVING_WHATIF = ("decode_attention:1.5", "decode_attention:2", "gemm:1.5",
                  "gemm:2", "comm:1.5", "comm:2", "launch")
SERVING_SLO_MS = 200.0

#: One sweep job per target, so no two jobs share a scenario; the warm-up
#: job's target is not among them.
SERVICE_TARGETS = ("2x1x2", "2x1x4", "2x2x1", "2x4x1", "2x2x4", "2x4x2")
SERVICE_WARMUP = "2x1x1"
SERVICE_HARDWARE = "H200-SXM"
SERVICE_WHATIF = "gemm:2"
SERVICE_PHASES = ("admit", "queue_wait", "run", "notify", "result")
#: The worker's idle poll.  At the 50 ms default a warm job spends a third
#: of its time asleep, which the host's speed does not scale, so the
#: reference ratio would drift with the host by a third as much.
SERVICE_POLL_S = 0.01

#: Client-side latencies of the untraced pass, reported with the layers.
CLIENT_METRICS = ("client.latency_ms.p50", "client.predict_ms.p90",
                  "client.job_cold_ms.p50", "client.job_warm_ms.p90")

#: Entries in :func:`reference_seconds`'s table (about 12 ms of work on a
#: 2.1 GHz Xeon).
REFERENCE_SIZE = 1 << 14

#: Set-ups before and again after the timed window of an untraced run;
#: ``setup_s`` is the median of all of them, so one slow stretch of the
#: host sways it less.
SETUPS = 3
#: A no-what-if prediction further than this (relative) from its emulated
#: ground truth fails its operation.
SANITY_BAND = 0.25


@dataclass
class Outcome:
    """One operation: its host time, what it produced and what failed."""

    seconds: float
    scenarios: int = 0
    #: Simulated outputs, compared between the untraced and traced passes.
    output: Any = None
    #: Predicted no-what-if iteration times (us) by ground-truth key.
    predicted: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: A resubmitted service job, served from the sweep cache.
    warm: bool = False
    #: Mean time (s) of the reference computations timed just before and
    #: just after this operation; 0 when none ran.
    reference: float = 0.0


def _check_times(rows: list[tuple[str, float]], failures: list[str]) -> None:
    for label, value in rows:
        if not (math.isfinite(value) and value > 0):
            failures.append(f"{label}: iteration time {value!r} is not finite and positive")


def _check_rows(rows: list[tuple[str, float]], spec: SweepSpec,
                failures: list[str]) -> None:
    """``(label, iteration_time_us)`` rows must be ``spec.expand()``, in order."""
    expected = [scenario.label for scenario in spec.expand()]
    if [label for label, _ in rows] != expected:
        failures.append(f"sweep returned {len(rows)} rows that differ from the "
                        f"{len(expected)} of SweepSpec.expand()")
    _check_times(rows, failures)


def _training_key(kind: str, target: str) -> tuple[str, str, str | None]:
    """Ground-truth key ``(model, parallelism, gpu)`` of a training target."""
    model, parallelism, gpu = BASE_MODEL, TRAINING_BASE, None
    for segment_kind, label in zip(kind.split("+"), target.split("+")):
        if segment_kind == "parallelism":
            parallelism = label
        elif segment_kind == "architecture":
            model = label
        elif segment_kind == "hardware":
            gpu = label.removeprefix("gpu=")
    return model, parallelism, gpu


def _training_study(seed: int) -> Study:
    return Study.from_emulation(BASE_MODEL, TRAINING_BASE, TRAINING,
                                iterations=1, seed=seed).prepare()


def _ms(outcomes: list[Outcome]) -> list[float]:
    return [outcome.seconds * 1e3 for outcome in outcomes]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Workload:
    """One benchmark workload; subclasses implement the hooks."""

    name = ""
    #: Operations per cycle; a timed pass ends on a cycle boundary.
    cycle = 1
    #: Fewest operations a timed pass runs.
    min_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def operate(self, index: int) -> Outcome:
        raise NotImplementedError

    def emulate_truth(self, key: Any) -> float:
        """Emulated iteration time (us) of one ground-truth configuration."""
        model, parallelism, gpu = key
        parallel = ParallelismConfig.parse(parallelism)
        cluster = (None if gpu is None else
                   ClusterSpec.for_world_size(parallel.world_size, gpu=resolve_gpu(gpu)))
        return emulator.emulate(gpt3_model(model), parallel, TRAINING, cluster=cluster,
                                iterations=1, seed=self.seed).measured_iteration_time()

    def steady_outcomes(self, outcomes: list[Outcome]) -> list[Outcome]:
        """The operations the latency and ``scenarios_per_s`` metrics cover."""
        return outcomes

    def client_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        """Workload-specific client latencies (ms, samples) of an untraced pass."""
        return {}

    def phases(self) -> list[tuple[float, float, str]]:
        """Client-side service phases ``(start, end, name)`` of the last pass."""
        return []


class PredictCold(Workload):
    name = "predict-cold"

    def __init__(self, seed: int, workdir: Path,
                 targets: tuple[str, ...] = PREDICT_TARGETS) -> None:
        super().__init__(seed, workdir)
        self.targets = targets
        self.cycle = self.min_ops = len(targets)
        self.keys = {text: _training_key(parse_target(text).kind, parse_target(text).label)
                     for text in targets}

    def setup(self) -> None:
        self.study = _training_study(self.seed)

    def teardown(self) -> None:
        self.study = None

    def operate(self, index: int) -> Outcome:
        target = self.targets[index % len(self.targets)]
        self.study.release()
        started = time.perf_counter()
        prediction = self.study.predict(target)
        seconds = time.perf_counter() - started
        value = prediction.iteration_time_us
        outcome = Outcome(seconds, 1, (target, value), {self.keys[target]: value})
        _check_times([(target, value)], outcome.failures)
        return outcome

    def client_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        return {"client.predict_ms.p90": (_p90(_ms(outcomes)), len(outcomes))}


class ServingStream(Workload):
    name = "serving-stream"

    def __init__(self, seed: int, workdir: Path, requests: int = SERVING_REQUESTS,
                 decode: int = SERVING_DECODE,
                 targets: tuple[str, ...] = SERVING_TARGETS,
                 whatif: tuple[str, ...] = SERVING_WHATIF) -> None:
        super().__init__(seed, workdir)
        self.inference = InferenceConfig(
            batch_size=4, prompt_length=512, decode_length=decode,
            arrival=parse_arrival(SERVING_ARRIVAL.format(requests=requests, seed=seed)))
        self.spec = SweepSpec(base_model=BASE_MODEL, base_parallelism=SERVING_BASE,
                              inference=self.inference, slo_ms=SERVING_SLO_MS,
                              serving=tuple(targets),
                              whatif=tuple(WhatIfSpec.parse(text) for text in whatif))

    def setup(self) -> None:
        self.study = Study.from_emulation(BASE_MODEL, SERVING_BASE, inference=self.inference,
                                          iterations=1, seed=self.seed).prepare()

    def teardown(self) -> None:
        self.study = None

    def operate(self, index: int) -> Outcome:
        self.study.release()
        started = time.perf_counter()
        results = self.study.sweep(self.spec, workers=1).results
        seconds = time.perf_counter() - started
        outcome = Outcome(
            seconds, len(results),
            tuple((row.label, row.iteration_time_us, row.serving) for row in results),
            {row.target: row.iteration_time_us
             for row in results if row.whatif is None and row.kind == "serving"})
        _check_rows([(row.label, row.iteration_time_us) for row in results],
                    self.spec, outcome.failures)
        missing = [row.label for row in results if row.serving is None]
        if missing:
            outcome.failures.append(f"rows without serving metrics: {', '.join(missing)}")
        return outcome

    def emulate_truth(self, key: Any) -> float:
        inference, parallel = ServingTarget.parse(key).resolve(
            self.inference, ParallelismConfig.parse(SERVING_BASE))
        return emulator.emulate(gpt3_model(BASE_MODEL), parallel, inference=inference,
                                iterations=1, seed=self.seed).measured_iteration_time()


class Service(Workload):
    name = "service"

    def __init__(self, seed: int, workdir: Path,
                 targets: tuple[str, ...] = SERVICE_TARGETS,
                 warmup: str = SERVICE_WARMUP) -> None:
        super().__init__(seed, workdir)
        self.targets = targets
        self.warmup = warmup
        self.cycle = len(targets)
        self.min_ops = 2 * len(targets)
        self.app: ServiceApp | None = None
        self.client: ServiceClient | None = None
        self.root: Path | None = None
        self.setups = 0
        #: Per round trip, on the perf-counter clock: the client sends, the
        #: record is submitted, started and finished, the client has the
        #: terminal record, the client has the result.
        self.trips: list[tuple[float, ...]] = []

    def setup(self) -> None:
        self.setups += 1
        self.root = self.workdir / f"{self.name}-{self.setups}"
        bundle = self.root / "bundle"
        emulator.emulate(gpt3_model(BASE_MODEL), ParallelismConfig.parse(TRAINING_BASE),
                         TRAINING, iterations=1, seed=self.seed).profiled.save(bundle)
        self.app = ServiceApp(self.root / "service", workers=1, poll_interval=SERVICE_POLL_S,
                              traces={"base": bundle}).start()
        self.client = ServiceClient(self.app.url)
        self.trips = []
        warm_up = self._round_trip(self.warmup, cold=True)
        if warm_up.failures:
            raise RuntimeError(f"the service warm-up job failed: {warm_up.failures}")

    def teardown(self) -> None:
        if self.app is not None:
            self.app.stop()
            self.app = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def operate(self, index: int) -> Outcome:
        return self._round_trip(self.targets[index % len(self.targets)],
                                cold=index < len(self.targets))

    def steady_outcomes(self, outcomes: list[Outcome]) -> list[Outcome]:
        return [outcome for outcome in outcomes if outcome.warm]

    def client_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        cold = _ms([outcome for outcome in outcomes if not outcome.warm])
        warm = _ms(self.steady_outcomes(outcomes))
        return {"client.job_cold_ms.p50": (statistics.median(cold), len(cold)),
                "client.job_warm_ms.p90": (_p90(warm), len(warm))}

    def phases(self) -> list[tuple[float, float, str]]:
        spans = []
        for stamps in self.trips:
            bounded, previous = [], stamps[0]
            for stamp in stamps:
                previous = min(max(stamp, previous), stamps[-1])
                bounded.append(previous)
            spans += [(start, end, name) for (start, end), name
                      in zip(itertools.pairwise(bounded), SERVICE_PHASES)]
        return spans

    def _round_trip(self, target: str, *, cold: bool) -> Outcome:
        spec = {"parallelism": [target], "hardware": [SERVICE_HARDWARE],
                "whatif": [WhatIfSpec.parse(SERVICE_WHATIF).to_json()],
                "include_baseline": False}
        body = {"kind": "sweep", "trace": "base", "spec": spec,
                "base": {"micro_batch_size": TRAINING.micro_batch_size}}
        unix_offset = time.time() - time.perf_counter()
        sent = time.perf_counter()
        job_id = self.client.submit(body)["job"]["job_id"]
        record = self.client.wait(job_id, timeout=120.0)
        answered = time.perf_counter()
        result = self.client.result(job_id)["result"] if record["state"] == "done" else None
        fetched = time.perf_counter()
        stamps = [record[key] or record["submitted_unix"]
                  for key in ("submitted_unix", "started_unix", "finished_unix")]
        self.trips.append((sent, *(stamp - unix_offset for stamp in stamps),
                           answered, fetched))
        outcome = Outcome(fetched - sent, warm=not cold)
        if result is None:
            outcome.failures.append(
                f"job {target} ended {record['state']}: {record.get('error')}")
            return outcome
        validate_result_payload(result)
        rows = [(row["label"], row["iteration_time_us"]) for row in result["scenarios"]]
        _check_rows(rows, SweepSpec.from_json(spec), outcome.failures)
        hit_rate = result["cache"]["hit_rate"]
        if hit_rate != (0.0 if cold else 1.0):
            outcome.failures.append(
                f"{'cold' if cold else 'warm'} job {target} has cache hit rate {hit_rate}")
        outcome.scenarios = len(rows)
        outcome.output = (hit_rate, tuple(rows))
        outcome.predicted = {_training_key(row["kind"], row["target"]): row["iteration_time_us"]
                             for row in result["scenarios"] if row["whatif"] is None}
        return outcome


WORKLOADS = {workload.name: workload
             for workload in (PredictCold, ServingStream, Service)}


# -- passes ---------------------------------------------------------------------

@dataclass
class Pass:
    outcomes: list[Outcome]
    setup_seconds: list[float]
    #: The last set-up plus every operation.
    wall_seconds: float


def run_pass(workload: Workload, *, seconds: float = 0.0, count: int | None = None,
             setups: int = 1, tracer: LayerTracer | None = None,
             reference: bool = False) -> Pass:
    """Set up ``setups`` times (keeping the last), then run ``count``
    operations, or whole cycles until ``seconds`` have elapsed.

    With ``reference``, :func:`reference_seconds` is also timed before the
    first operation and after each one."""
    setup_seconds: list[float] = []
    outcomes: list[Outcome] = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for repeat in range(setups):
            if repeat:
                workload.teardown()
            setup_seconds.append(_timed_setup(workload))
        window = time.perf_counter()
        before = reference_seconds() if reference else 0.0
        while not _finished(workload, len(outcomes), window, seconds, count):
            outcome = _attempt(workload, len(outcomes))
            if reference:
                after = reference_seconds()
                outcome.reference = (before + after) / 2
                before = after
            outcomes.append(outcome)
        wall = setup_seconds[-1] + time.perf_counter() - window
    return Pass(outcomes, setup_seconds, wall)


def reference_seconds() -> float:
    """Time one fixed pure-Python computation, with the collector off.

    An end-to-end run times it between operations and reports each
    operation's time as a multiple of it (unit ``ref``).  On a shared
    cloud host (measured on a 2-vCPU Xeon VM) the CPU's speed swings by a
    third over tens of seconds as the neighbours' load changes, which
    moves a wall-clock median by as much between runs of the same code;
    the ratio cancels most of it.  The reference runs none of the
    program's code and allocates nothing the collector tracks, so neither
    the program's speed nor its heap moves it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = dict.fromkeys(range(REFERENCE_SIZE), 0)
        heap: list[int] = []
        for step in range(REFERENCE_SIZE):
            key = (step * 40503) & (REFERENCE_SIZE - 1)
            table[key] += step
            heapq.heappush(heap, table[key] ^ step)
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def _timed_setup(workload: Workload) -> float:
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def _finished(workload: Workload, done: int, window: float, seconds: float,
              count: int | None) -> bool:
    if count is not None:
        return done >= count
    return (done >= workload.min_ops and done % workload.cycle == 0
            and time.perf_counter() - window >= seconds)


def _attempt(workload: Workload, index: int) -> Outcome:
    started = time.perf_counter()
    try:
        return workload.operate(index)
    except Exception as error:  # a failed operation is counted, not fatal
        return Outcome(time.perf_counter() - started,
                       failures=[f"{type(error).__name__}: {error}"])


# -- reports --------------------------------------------------------------------

@dataclass
class Report:
    """One run's result: the contract's JSON plus what the table prints."""

    outcomes: list[Outcome]
    metrics: dict[str, tuple[float, str]]
    #: Sample count behind each metric that has one.
    samples: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return [failure for outcome in self.outcomes for failure in outcome.failures]

    def to_json(self) -> dict[str, Any]:
        failed = sum(1 for outcome in self.outcomes if outcome.failures)
        return {"correct": failed == 0, "attempted": len(self.outcomes), "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def run(name: str, *, seed: int, seconds: float, trace: bool, workdir: Path,
        setups: int = SETUPS, **sizes: Any) -> Report:
    """Run one workload: untraced for the end-to-end metrics, or untraced and
    then traced over the same operations for the per-layer metrics.

    ``sizes`` override the workload's targets and episode size.
    """
    make = functools.partial(WORKLOADS[name], seed, workdir, **sizes)
    return _per_layer(make, seconds) if trace else _end_to_end(make(), seconds, setups)


def _end_to_end(workload: Workload, seconds: float, setups: int) -> Report:
    try:
        timed = run_pass(workload, seconds=seconds, setups=setups, reference=True)
        # Read before any ground truth is emulated: only set-up and the
        # timed operations may set the high-water mark.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(setups):
            workload.teardown()
            timed.setup_seconds.append(_timed_setup(workload))
    finally:
        workload.teardown()
    _check_ground_truth(workload, timed.outcomes)
    steady = workload.steady_outcomes(timed.outcomes)
    relative = [outcome.seconds / outcome.reference for outcome in steady]
    metrics = {
        "setup_s": (statistics.median(timed.setup_seconds), "s"),
        "latency_ref.p50": (statistics.median(relative), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"setup_s": len(timed.setup_seconds), "latency_ref.p50": len(relative)}
    return Report(timed.outcomes, metrics, samples)


def _check_ground_truth(workload: Workload, outcomes: list[Outcome]) -> tuple[float, int]:
    """Mean |predicted - emulated| / emulated (%) over the distinct
    no-what-if targets, and how many there were.  An operation whose
    prediction falls outside :data:`SANITY_BAND` fails."""
    truth: dict[Any, float] = {}
    errors: dict[Any, float] = {}
    for outcome in outcomes:
        for key, predicted in outcome.predicted.items():
            if key not in truth:
                truth[key] = workload.emulate_truth(key)
            error = (predicted - truth[key]) / truth[key]
            errors.setdefault(key, error)
            if not abs(error) <= SANITY_BAND:
                outcome.failures.append(
                    f"{key}: predicted {predicted:.1f} us is {error:+.1%} off the "
                    f"emulated {truth[key]:.1f} us")
    if not errors:
        return 0.0, 0
    return 100.0 * statistics.fmean(abs(error) for error in errors.values()), len(errors)


def _per_layer(make: Callable[[], Workload], seconds: float) -> Report:
    plain_workload = make()
    try:
        plain = run_pass(plain_workload, seconds=seconds)
    finally:
        plain_workload.teardown()
    workload = make()
    tracer = LayerTracer()
    try:
        traced = run_pass(workload, count=len(plain.outcomes), tracer=tracer)
    finally:
        workload.teardown()
    for before, after in zip(plain.outcomes, traced.outcomes):
        if after.output != before.output:
            after.failures.append("the traced pass produced different outputs")
    err_pct, targets = _check_ground_truth(workload, traced.outcomes)
    metrics = _layer_metrics(tracer, workload, traced)
    metrics["trace_overhead_pct"] = (
        100.0 * (traced.wall_seconds / plain.wall_seconds - 1.0), "%")
    metrics["traced_ops"] = (len(traced.outcomes), "count")
    metrics["err_pct"] = (err_pct, "%")
    client = dict.fromkeys(CLIENT_METRICS, (0.0, 0))
    steady = plain_workload.steady_outcomes(plain.outcomes)
    client["client.latency_ms.p50"] = (statistics.median(_ms(steady)), len(steady))
    client.update(plain_workload.client_metrics(plain.outcomes))
    samples = {"traced_ops": len(traced.outcomes), "err_pct": targets}
    for name, (value, count) in client.items():
        metrics[name] = (value, "ms")
        samples[name] = count
    scenarios = sum(outcome.scenarios for outcome in steady)
    metrics["client.scenarios_per_s"] = (
        scenarios / sum(outcome.seconds for outcome in steady), "1/s")
    samples["client.scenarios_per_s"] = scenarios
    return Report(traced.outcomes, metrics, samples, tracer.absent)


def self_time_metrics() -> list[str]:
    """The per-layer metrics that, with ``other_ms``, add up to
    ``traced_wall_ms`` (``emulator.emulate_s`` in seconds, the rest in ms)."""
    return ([layer.metric(layer.unit) for layer in LAYERS]
            + [f"service.{phase}_ms" for phase in SERVICE_PHASES])


def _layer_metrics(tracer: LayerTracer, workload: Workload,
                   traced: Pass) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    self_ms = 0.0
    for layer in tracer.layers:
        stats = tracer.stats[layer.name]
        self_ms += stats.self_s * 1e3
        metrics[layer.metric("calls")] = (stats.calls, "count")
        scale = 1.0 if layer.unit == "s" else 1e3
        metrics[layer.metric(layer.unit)] = (stats.self_s * scale, layer.unit)
    counts = tracer.counts
    for name in ("replay.tasks", "manipulation.tasks_out", "batch.rows"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["batch.fast_path_ratio"] = (
        _ratio(counts, "batch.fast_rows", "batch.rows"), "ratio")
    metrics["sweep.cache_hit_rate"] = (
        _ratio(counts, "sweep.cache_hits", "sweep.cache_lookups"), "ratio")
    # Service phases are client-side intervals; the worker's and request
    # handlers' layer calls inside them already count as those layers.
    phases = workload.phases()
    covered = tracer.foreign_by_phase(phases)
    for phase in SERVICE_PHASES:
        seconds = sum(end - start for start, end, name in phases if name == phase)
        phase_ms = (seconds - covered.get(phase, 0.0)) * 1e3
        self_ms += phase_ms
        metrics[f"service.{phase}_ms"] = (phase_ms, "ms")
    jobs_failed = (sum(1 for outcome in traced.outcomes if outcome.failures)
                   if workload.name == Service.name else 0)
    metrics["service.jobs_failed"] = (jobs_failed, "count")
    wall_ms = traced.wall_seconds * 1e3
    metrics["traced_wall_ms"] = (wall_ms, "ms")
    metrics["other_ms"] = (wall_ms - self_ms, "ms")
    return metrics


def _ratio(counts: dict[str, float], part: str, whole: str) -> float:
    return counts[part] / counts[whole] if counts.get(whole) else 0.0
