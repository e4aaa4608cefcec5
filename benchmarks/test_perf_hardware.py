"""Hardware-retarget overhead benchmarks: the numbers the hardware perf gate consumes.

A hardware scenario is one extra linear pass over the task graph (classify
each kernel once per signature, rescale durations by memoized roofline
ratios, copy-on-write only the tasks that actually move) before the same
compile + simulate every scenario pays; the acceptance criterion is that
retargeting a configuration costs less than 10% on top of evaluating the
same configuration in a plain what-if sweep.  The headline metric measures
exactly that: each ``<parallelism>+hardware`` composite resumes from its
bare ``<parallelism>`` sibling's cached derivation (the prefix-reuse path
of ``Study.derived_graph``), so the per-target time ratio of the composite
ladder over the workload ladder bounds the retarget's overhead.  A
sweep-throughput metric (scenarios/sec with the grid doubled by a
hardware axis) rides along as an end-to-end guard.

Metrics append to the same machine-readable JSON as the engine benchmarks
(``REPRO_PERF_JSON``); CI gates them against
``benchmarks/baselines/hardware.json``.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.test_perf_engine import _under_xdist, record_metric
from repro.api import Study
from repro.emulator.api import emulate
from repro.experiments.settings import _fast_mode
from repro.sweep import SweepSpec, sweep
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

BASE_PARALLELISM = "2x2x2"
TARGET_LADDER = ("2x2x4", "2x1x2", "2x4x2", "2x4x4", "2x2x8")


@pytest.fixture(scope="module")
def base_bundle():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse(BASE_PARALLELISM)
    microbatches = 1 if _fast_mode() else 2
    training = TrainingConfig(micro_batch_size=1, num_microbatches=microbatches)
    return emulate(model, parallel, training, iterations=1, seed=11).profiled


def _study(base_bundle) -> Study:
    study = Study.from_trace(base_bundle, model="gpt3-15b",
                             parallelism=BASE_PARALLELISM,
                             micro_batch_size=1, num_microbatches=2)
    study.replay()  # base replay + calibration outside the timed windows
    return study


def test_benchmark_retarget_overhead_per_target(benchmark, base_bundle):
    """The roofline pass must add < 10% to an otherwise identical predict."""
    study = _study(base_bundle)
    study.predict(TARGET_LADDER[0])  # warm the session machinery

    def predict_ladder(suffix: str) -> float:
        started = time.perf_counter()
        for label in TARGET_LADDER:
            study.predict(f"parallelism={label}{suffix}")
        return time.perf_counter() - started

    workload_seconds = predict_ladder("")
    composite_seconds = benchmark.pedantic(
        predict_ladder, args=(",gpu=H200-SXM",), rounds=1, iterations=1)

    overhead = composite_seconds / workload_seconds
    print(f"\n{len(TARGET_LADDER)} workload targets in {workload_seconds:.2f} s, "
          f"same targets retargeted to H200 in {composite_seconds:.2f} s "
          f"-> {overhead:.2f}x")
    record_metric("hardware_retarget_overhead", overhead,
                  higher_is_better=False, unit="x")
    # Under xdist the other workers distort short timing windows; the
    # serial perf-smoke job enforces the real floor.
    assert overhead < (1.5 if _under_xdist() else 1.10)


def test_benchmark_hardware_sweep_throughput(benchmark, base_bundle):
    """End-to-end guard: a hardware-crossed grid keeps sweep throughput."""
    spec = SweepSpec(base_model="gpt3-15b", base_parallelism=BASE_PARALLELISM,
                     micro_batch_size=1, num_microbatches=2,
                     parallelism=TARGET_LADDER[:3], hardware=("H200-SXM",))

    started = time.perf_counter()
    result = benchmark.pedantic(sweep, args=(base_bundle, spec),
                                kwargs={"workers": 1}, rounds=1, iterations=1)
    seconds = time.perf_counter() - started

    assert len(result) == 8  # (baseline + 3 parallelism) x (profiled, H200)
    throughput = len(result) / seconds
    print(f"\nhardware-crossed sweep: {len(result)} scenarios in "
          f"{seconds:.2f} s ({throughput:.1f} scenarios/s)")
    record_metric("hardware_sweep_scenarios_per_sec", throughput,
                  higher_is_better=True, unit="scenarios/s")
    assert throughput > (0.5 if _under_xdist() else 1.0)
