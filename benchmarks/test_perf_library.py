"""Library micro-benchmarks: cost of the main Lumos pipeline stages.

These are classic pytest-benchmark measurements (multiple rounds) of the
library itself — trace parsing, graph construction and simulation — so that
performance regressions in the toolkit are visible, independent of the
figure-regeneration benchmarks.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph_builder import GraphBuilder
from repro.core.replay import replay
from repro.emulator.api import emulate
from repro.trace.kineto import KinetoTrace
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


@pytest.fixture(scope="module")
def profiled_bundle():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse("2x2x2")
    training = TrainingConfig(micro_batch_size=1, num_microbatches=2)
    return emulate(model, parallel, training, iterations=1, seed=0).profiled


@pytest.fixture(scope="module")
def built_graph(profiled_bundle):
    return GraphBuilder().build(profiled_bundle)


def test_benchmark_trace_roundtrip(benchmark, profiled_bundle):
    trace = profiled_bundle[profiled_bundle.ranks()[0]]

    def roundtrip():
        return KinetoTrace.from_json(trace.to_json())

    result = benchmark(roundtrip)
    assert len(result) == len(trace)


def test_benchmark_graph_construction(benchmark, profiled_bundle):
    builder = GraphBuilder()
    graph = benchmark(builder.build, profiled_bundle)
    assert len(graph) > 0


def test_benchmark_simulation(benchmark, built_graph):
    def simulate():
        return SimulationSession(compile_graph(built_graph)).run()

    result = benchmark(simulate)
    assert len(result.finalize_order) == len(built_graph)


def test_benchmark_end_to_end_replay(benchmark, profiled_bundle):
    result = benchmark.pedantic(replay, args=(profiled_bundle,), rounds=3, iterations=1)
    assert result.iteration_time_us > 0
