"""Batched-simulation benchmarks: the numbers the batch perf gate consumes.

The batched kernel's pitch is one vectorized sweep instead of B Python
event-loop passes, so the headline metric is the speedup of
``SimulationSession.run_batch`` over the per-scenario session loop for a
group of 64 duration-swap scenarios (acceptance floor: 3x).  A throughput
metric (scenarios/second through the batched path) and the plan-build
latency ride along.

Metrics append to the same machine-readable JSON as the engine benchmarks
(``REPRO_PERF_JSON``); CI gates them against
``benchmarks/baselines/batch.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.test_perf_engine import _under_xdist, record_metric
from repro.core.batch import BatchSession
from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph_builder import GraphBuilder
from repro.core.whatif import Scenario, evaluate_scenarios
from repro.emulator.api import emulate
from repro.experiments.settings import _fast_mode
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

BASE_PARALLELISM = "2x2x2"
BATCH = 64

#: The scenario grid of one big sweep group: a speedup ladder per kernel
#: class plus communication/launch variants — 64 duration-swap scenarios
#: sharing one compiled graph, the shape ``repro.sweep`` evaluates per
#: target configuration.
def _scenario_grid() -> list[Scenario]:
    scenarios: list[Scenario] = []
    ladders = [
        ("gemm", lambda task: task.op_class == "gemm"),
        ("attention", lambda task: task.op_class == "attention"),
        ("comm", lambda task: task.is_communication),
        ("launch", lambda task: task.name == "cudaLaunchKernel"),
    ]
    speedups = [1.1 + 0.15 * step for step in range(BATCH // len(ladders))]
    for name, predicate in ladders:
        for speedup in speedups:
            scenarios.append(Scenario(name=f"{name} x{speedup:g}",
                                      predicate=predicate, speedup=speedup))
    assert len(scenarios) == BATCH
    return scenarios


@pytest.fixture(scope="module")
def built_graph():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse(BASE_PARALLELISM)
    microbatches = 1 if _fast_mode() else 2
    training = TrainingConfig(micro_batch_size=1, num_microbatches=microbatches)
    bundle = emulate(model, parallel, training, iterations=1, seed=11).profiled
    return GraphBuilder().build(bundle)


def test_benchmark_batch_vs_session_loop(benchmark, built_graph):
    """64-scenario batch must beat the per-scenario session loop by >= 3x."""
    compiled = compile_graph(built_graph)
    session = SimulationSession(compiled)
    session.run()
    scenarios = _scenario_grid()
    matrix = np.empty((BATCH, compiled.n_tasks), dtype=np.float64)
    for row, scenario in enumerate(scenarios):
        matrix[row] = compiled.scaled_durations(scenario.predicate,
                                                scenario.speedup)[0]

    def run_loop():
        return [session.run(durations=matrix[row]).iteration_time_us
                for row in range(BATCH)]

    def run_batched():
        return session.run_batch(matrix).iteration_times_us.tolist()

    started = time.perf_counter()
    loop_times = run_loop()
    loop_seconds = time.perf_counter() - started

    session.batch_session()  # build the plan outside the timed window
    started = time.perf_counter()
    batch_times = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    batch_seconds = time.perf_counter() - started

    assert session.batch_session().batchable, \
        session.batch_session().fallback_reason
    assert batch_times == loop_times, \
        "batched path must produce the session loop's exact scenario times"
    speedup = loop_seconds / batch_seconds
    print(f"\n{BATCH} scenarios ({compiled.n_tasks} tasks): "
          f"loop {loop_seconds:.2f} s vs batch {batch_seconds:.3f} s "
          f"-> {speedup:.1f}x")
    record_metric("batch_vs_loop_speedup_64", speedup,
                  higher_is_better=True, unit="x")
    record_metric("batch_scenarios_per_sec", BATCH / batch_seconds,
                  higher_is_better=True, unit="scenarios/s")
    # The acceptance floor holds on an uncontended machine; under xdist the
    # other workers distort short timing windows (the serial perf-smoke job
    # enforces the real floor).
    assert speedup >= (1.5 if _under_xdist() else 3.0)


def test_benchmark_batch_plan_build(benchmark, built_graph):
    # A fresh copy (made outside the timed window): on ``built_graph``
    # itself the compile memo would hand back the plan an earlier test built.
    compiled = compile_graph(built_graph.subgraph_for_ranks(built_graph.ranks()))

    started = time.perf_counter()
    batch = benchmark.pedantic(BatchSession, args=(compiled,),
                               rounds=1, iterations=1)
    build_ms = (time.perf_counter() - started) * 1000.0

    assert batch.batchable, batch.fallback_reason
    print(f"\nbatch plan ({compiled.n_tasks} tasks): {build_ms:.1f} ms, "
          f"{batch.plan.n_levels} levels")
    record_metric("batch_plan_build_ms", build_ms,
                  higher_is_better=False, unit="ms")


def test_benchmark_whatif_group_end_to_end(benchmark, built_graph):
    """The sweep-group shape: evaluate_scenarios on one shared session.

    The call also times the configuration itself, as row 0.
    """
    session = SimulationSession(compile_graph(built_graph))
    baseline = session.run()
    scenarios = _scenario_grid()

    started = time.perf_counter()
    results = benchmark.pedantic(
        evaluate_scenarios, args=(built_graph, scenarios),
        kwargs={"session": session}, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    assert len(results) == BATCH
    assert all(result.baseline_time_us == baseline.iteration_time_us
               for result in results)
    print(f"\nwhat-if group: {BATCH} scenarios in {elapsed:.3f} s "
          f"({BATCH / elapsed:.0f} scenarios/s)")
    record_metric("whatif_group_scenarios_per_sec", BATCH / elapsed,
                  higher_is_better=True, unit="scenarios/s")
