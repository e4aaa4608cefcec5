"""Array-backed engine benchmarks: the numbers the CI perf gate consumes.

Three metrics track the two-phase engine's health:

* **single-replay latency** — compile + one session run on the standard
  benchmark graph;
* **session-reuse speedup** — evaluating a batch of what-if scenarios by
  swapping duration vectors on one session, versus the seed hot path that
  cloned the graph and ran a fresh per-scenario simulation (the acceptance
  floor is 3x);
* **sweep throughput** — scenarios/sec through ``repro.sweep`` end to end.

Every test appends its metric to a machine-readable JSON file
(``benchmarks/engine-perf.json`` by default, ``REPRO_PERF_JSON`` to
override) which CI uploads as an artifact and feeds to
``benchmarks/perf_gate.py`` together with the committed baseline in
``benchmarks/baselines/engine.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph_builder import GraphBuilder
from repro.core.replay import simulate_graph
from repro.emulator.api import emulate
from repro.experiments.settings import _fast_mode
from repro.sweep import SweepSpec, WhatIfSpec, sweep
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

BASE_PARALLELISM = "2x2x2"

#: The what-if batch of the session-reuse measurement: one predicate per
#: scenario, mirroring what one sweep group evaluates per configuration.
SCENARIOS = [
    ("gemm x1.5", lambda task: task.op_class == "gemm", 1.5),
    ("gemm x2", lambda task: task.op_class == "gemm", 2.0),
    ("gemm x4", lambda task: task.op_class == "gemm", 4.0),
    ("attention x2", lambda task: task.op_class == "attention", 2.0),
    ("comm x2", lambda task: task.is_communication, 2.0),
    ("comm x4", lambda task: task.is_communication, 4.0),
    ("launch free", lambda task: task.name == "cudaLaunchKernel", float("inf")),
    ("everything x1.25", lambda task: True, 1.25),
]

SWEEP_SPEC = SweepSpec(
    base_model="gpt3-15b",
    base_parallelism=BASE_PARALLELISM,
    micro_batch_size=1,
    num_microbatches=2,
    parallelism=("2x2x4", "2x1x2"),
    whatif=(WhatIfSpec(kind="kernel_class", op_class="gemm", speedup=2.0),
            WhatIfSpec(kind="launch_overhead")),
)


def _under_xdist() -> bool:
    return "PYTEST_XDIST_WORKER" in os.environ


def _perf_json_path() -> Path:
    override = os.environ.get("REPRO_PERF_JSON")
    if override:
        return Path(override)
    return Path(__file__).parent / "engine-perf.json"


def record_metric(name: str, value: float, *, higher_is_better: bool,
                  unit: str) -> None:
    """Append one metric to the machine-readable benchmark JSON.

    Skipped under pytest-xdist: parallel workers would race on the shared
    file, and timings taken on a contended runner are not gate-worthy.
    The CI perf-smoke job runs this module serially.
    """
    if _under_xdist():
        return
    path = _perf_json_path()
    payload = {"schema": 1, "fast_mode": _fast_mode(), "metrics": {}}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.setdefault("metrics", {})
    payload["metrics"][name] = {
        "value": value,
        "higher_is_better": higher_is_better,
        "unit": unit,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def base_bundle():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse(BASE_PARALLELISM)
    microbatches = 1 if _fast_mode() else 2
    training = TrainingConfig(micro_batch_size=1, num_microbatches=microbatches)
    return emulate(model, parallel, training, iterations=1, seed=11).profiled


@pytest.fixture(scope="module")
def built_graph(base_bundle):
    return GraphBuilder().build(base_bundle)


def test_benchmark_single_replay_latency(benchmark, built_graph):
    # Every round compiles its own copy, made outside the timed window: a
    # repeat compile of one graph would only look up its compile memo.
    rounds = 3
    copies = [built_graph.subgraph_for_ranks(built_graph.ranks())
              for _ in range(rounds + 1)]

    def compile_and_run(graph):
        return SimulationSession(compile_graph(graph)).run()

    started = time.perf_counter()
    for graph in copies[:rounds]:
        run = compile_and_run(graph)
    latency_ms = (time.perf_counter() - started) / rounds * 1000.0
    benchmark.pedantic(compile_and_run, args=(copies[rounds],), rounds=1, iterations=1)

    assert run.iteration_time_us > 0
    print(f"\nsingle replay (compile + simulate, {len(built_graph)} tasks): "
          f"{latency_ms:.1f} ms")
    record_metric("single_replay_latency_ms", latency_ms,
                  higher_is_better=False, unit="ms")


def test_benchmark_session_reuse_speedup(benchmark, built_graph):
    """Session-reuse replay must beat the seed per-scenario path by >= 3x."""
    session = SimulationSession(compile_graph(built_graph))
    session.run()

    def run_with_session():
        times = []
        for _, predicate, speedup in SCENARIOS:
            durations, _ = session.compiled.scaled_durations(predicate, speedup)
            times.append(session.run(durations=durations).iteration_time_us)
        return times

    def run_legacy():
        # The seed sweep hot path: clone the graph, rescale matching tasks,
        # simulate from scratch and materialise the replayed trace.
        times = []
        for _, predicate, speedup in SCENARIOS:
            clone = built_graph.subgraph_for_ranks(built_graph.ranks())
            for task in clone.tasks.values():
                if predicate(task):
                    task.duration = (0.0 if speedup == float("inf")
                                     else task.duration / speedup)
            times.append(simulate_graph(clone).iteration_time_us)
        return times

    started = time.perf_counter()
    legacy_times = run_legacy()
    legacy_seconds = time.perf_counter() - started

    started = time.perf_counter()
    session_times = benchmark.pedantic(run_with_session, rounds=1, iterations=1)
    session_seconds = time.perf_counter() - started

    assert session_times == legacy_times, \
        "session path must produce the seed path's exact scenario times"
    speedup = legacy_seconds / session_seconds
    per_scenario_ms = session_seconds / len(SCENARIOS) * 1000.0
    print(f"\n{len(SCENARIOS)} scenarios: legacy {legacy_seconds:.2f} s vs "
          f"session {session_seconds:.2f} s -> {speedup:.1f}x "
          f"({per_scenario_ms:.1f} ms/scenario)")
    record_metric("session_reuse_speedup", speedup,
                  higher_is_better=True, unit="x")
    # The acceptance floor holds on an uncontended machine; under xdist the
    # other workers' load distorts short timing windows, so only a sanity
    # bound applies there (the serial perf-smoke job enforces the real one).
    assert speedup >= (1.5 if _under_xdist() else 3.0)


def test_benchmark_sweep_scenarios_per_sec(benchmark, base_bundle):
    result = benchmark.pedantic(sweep, args=(base_bundle, SWEEP_SPEC),
                                rounds=1, iterations=1)

    assert len(result) == 9
    print(f"\nsweep: {len(result)} scenarios in {result.elapsed_seconds:.2f} s "
          f"({result.scenarios_per_second:.1f} scenarios/s)")
    record_metric("sweep_scenarios_per_sec", result.scenarios_per_second,
                  higher_is_better=True, unit="scenarios/s")
    assert result.scenarios_per_second > 1.0
