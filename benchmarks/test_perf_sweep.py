"""Sweep-engine throughput benchmarks.

Measures what future PRs must not regress: cold sweep throughput
(scenarios/sec with the base trace replayed and calibrated once), the
cache-hit speedup of a repeated sweep, and the serial/parallel equivalence
of the runner.  The grid is the acceptance-criteria shape: 24 scenarios
from one base trace.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import run_once
from repro.emulator.api import emulate
from repro.sweep import SweepSpec, WhatIfSpec, sweep
from repro.sweep.analysis import format_report
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

BASE_PARALLELISM = "2x2x2"

#: (1 baseline + 5 parallelism targets + 2 model variants) x (none + 2 what-ifs)
SWEEP_SPEC = SweepSpec(
    base_model="gpt3-15b",
    base_parallelism=BASE_PARALLELISM,
    micro_batch_size=1,
    num_microbatches=2,
    parallelism=("2x2x4", "2x2x8", "2x1x2", "2x4x2", "2x4x4"),
    models=("gpt3-v1", "gpt3-v3"),
    whatif=(WhatIfSpec(kind="kernel_class", op_class="gemm", speedup=2.0),
            WhatIfSpec(kind="launch_overhead")),
)


@pytest.fixture(scope="module")
def base_bundle():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse(BASE_PARALLELISM)
    training = TrainingConfig(micro_batch_size=1, num_microbatches=2)
    return emulate(model, parallel, training, iterations=1, seed=11).profiled


def test_benchmark_sweep_cold_throughput(benchmark, base_bundle):
    result = run_once(benchmark, sweep, base_bundle, SWEEP_SPEC, workers=1)

    assert len(result) == 24
    print(f"\ncold sweep: {len(result)} scenarios in {result.elapsed_seconds:.2f} s "
          f"({result.scenarios_per_second:.1f} scenarios/s)")
    print(format_report(result, top=5))
    # Sharing replay + calibration across the grid must keep throughput well
    # above one-predict-per-invocation territory.
    assert result.scenarios_per_second > 1.0


def test_benchmark_sweep_cache_hit_speedup(benchmark, base_bundle, tmp_path):
    cache_dir = tmp_path / "cache"
    started = time.perf_counter()
    cold = sweep(base_bundle, SWEEP_SPEC, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - started

    warm = run_once(benchmark, sweep, base_bundle, SWEEP_SPEC, cache_dir=cache_dir)
    warm_seconds = warm.elapsed_seconds

    assert all(r.from_cache for r in warm.results)
    speedup = cold_seconds / warm_seconds
    print(f"\ncold {cold_seconds:.2f} s vs warm {warm_seconds:.2f} s "
          f"-> cache-hit speedup {speedup:.1f}x")
    # A fully cached sweep skips replay, calibration and every simulation; it
    # must be measurably faster than the cold run.
    assert warm_seconds < cold_seconds
    assert speedup > 2.0
    # The cache changes where results come from, never what they are.
    assert [(r.label, r.iteration_time_us) for r in warm.ranked()] == \
        [(r.label, r.iteration_time_us) for r in cold.ranked()]


def test_benchmark_sweep_parallel_matches_serial(benchmark, base_bundle):
    serial = sweep(base_bundle, SWEEP_SPEC, workers=1)
    parallel = run_once(benchmark, sweep, base_bundle, SWEEP_SPEC, workers=4)

    print(f"\nserial {serial.elapsed_seconds:.2f} s vs "
          f"parallel (4 workers) {parallel.elapsed_seconds:.2f} s")
    assert [(r.label, r.iteration_time_us, r.world_size) for r in parallel.ranked()] == \
        [(r.label, r.iteration_time_us, r.world_size) for r in serial.ranked()]
