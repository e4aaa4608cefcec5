"""Serving-workload benchmarks: the inference path at paper scale.

One GPT-3 15B serving episode (prefill + autoregressive decode under TP)
is emulated, replayed and swept end-to-end, mirroring what
``examples/serving_exploration.py`` and the ``repro-lumos`` CLI drive.
The metrics prove two things at scale:

* the full trace → replay → calibrate → serving-manipulation pipeline has
  usable latency (an exploration sweep over batch/prompt/TP targets); and
* serving sweep groups take the batched fast path — the 64-scenario
  what-if group must go through ``run_batch`` (not the sequential
  fallback) and beat the per-scenario session loop.

Metrics append to the same machine-readable JSON as the engine benchmarks
(``REPRO_PERF_JSON``) and are gated in CI against
``benchmarks/baselines/inference.json`` — see ``benchmarks/README.md``
for the baseline-refresh procedure.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.test_perf_engine import _under_xdist, record_metric
from repro.api import Study
from repro.core.engine import SimulationSession, compile_graph
from repro.core.whatif import Scenario
from repro.experiments.settings import _fast_mode
from repro.workload.inference import InferenceConfig

BATCH = 64
SERVING_TARGETS = ("batch=16", "batch=32", "prompt=1024", "tp=1", "tp=4")


@pytest.fixture(scope="module")
def serving_study():
    decode = 4 if _fast_mode() else 8
    inference = InferenceConfig(batch_size=8, prompt_length=512,
                                decode_length=decode)
    return Study.from_emulation("gpt3-15b", "2x1x1", inference=inference,
                                iterations=1, seed=17)


def test_benchmark_serving_exploration(benchmark, serving_study):
    """Replay + calibrate + predict every serving target from one episode."""

    def explore():
        serving_study.release()
        return [serving_study.predict(f"serving:{target}").iteration_time_us
                for target in SERVING_TARGETS]

    started = time.perf_counter()
    times = benchmark.pedantic(explore, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    assert len(times) == len(SERVING_TARGETS)
    assert all(time_us > 0 for time_us in times)
    print(f"\nserving exploration: {len(SERVING_TARGETS)} targets in "
          f"{elapsed:.2f} s (base {serving_study.base_time_ms:.1f} ms)")
    record_metric("serving_targets_per_sec", len(SERVING_TARGETS) / elapsed,
                  higher_is_better=True, unit="targets/s")


def test_benchmark_serving_batch_vs_session_loop(benchmark, serving_study):
    """A serving sweep group's 64 what-ifs must take the batched fast path."""
    graph = serving_study.base_graph
    compiled = compile_graph(graph)
    session = SimulationSession(compiled)
    session.run()
    ladders = [
        ("decode_attention", lambda task: task.op_class == "decode_attention"),
        ("gemm", lambda task: task.op_class == "gemm"),
        ("comm", lambda task: task.is_communication),
        ("launch", lambda task: task.name == "cudaLaunchKernel"),
    ]
    scenarios = [Scenario(name=f"{name} x{1.1 + 0.15 * step:g}",
                          predicate=predicate, speedup=1.1 + 0.15 * step)
                 for name, predicate in ladders
                 for step in range(BATCH // len(ladders))]
    matrix = np.empty((BATCH, compiled.n_tasks), dtype=np.float64)
    for row, scenario in enumerate(scenarios):
        matrix[row] = compiled.scaled_durations(scenario.predicate,
                                                scenario.speedup)[0]

    started = time.perf_counter()
    loop_times = [session.run(durations=matrix[row]).iteration_time_us
                  for row in range(BATCH)]
    loop_seconds = time.perf_counter() - started

    session.batch_session()  # build the plan outside the timed window
    started = time.perf_counter()
    run = benchmark.pedantic(session.run_batch, args=(matrix,),
                             rounds=1, iterations=1)
    batch_seconds = time.perf_counter() - started

    assert run.batched, "serving graphs must take the vectorized fast path"
    assert run.iteration_times_us.tolist() == loop_times
    speedup = loop_seconds / batch_seconds
    print(f"\nserving batch ({compiled.n_tasks} tasks): loop {loop_seconds:.2f} s "
          f"vs batch {batch_seconds:.3f} s -> {speedup:.1f}x")
    record_metric("serving_batch_vs_loop_speedup_64", speedup,
                  higher_is_better=True, unit="x")
    assert speedup >= (1.5 if _under_xdist() else 3.0)
