"""Tests of the benchmark runner itself, run at a tiny size.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from layers import Layer, LayerTracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Shrunk grids: one cycle of each stays within a few seconds.
TINY = {
    "predict-cold": {"targets": ("parallelism=2x1x2", "gpu=H200-SXM")},
    "serving-stream": {"requests": 4, "decode": 2, "targets": ("tp=1",),
                       "whatif": ("gemm:2",)},
    "service": {"targets": ("2x1x2", "2x2x1"), "warmup": "2x1x4"},
}
SEED, OTHER_SEED = 3, 4
_RUNS: dict[tuple[str, bool, int, int], workloads.Report] = {}


def _run(name: str, trace: bool, seed: int = SEED, repeat: int = 0) -> workloads.Report:
    key = (name, trace, seed, repeat)
    if key not in _RUNS:
        _RUNS[key] = workloads.run(name, seed=seed, seconds=0.0, trace=trace,
                                   workdir=ROOT / ".perfbench" / "test", setups=1,
                                   **TINY[name])
    return _RUNS[key]


def _values(report: workloads.Report) -> dict[str, float]:
    return {name: value for name, (value, _) in report.metrics.items()}


@pytest.fixture(scope="module", autouse=True)
def _clean_workdir():
    yield
    shutil.rmtree(ROOT / ".perfbench" / "test", ignore_errors=True)
    with contextlib.suppress(OSError):
        (ROOT / ".perfbench").rmdir()


def test_benchmark_names_the_workloads():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit(name, trace):
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in section}
    for seed in (SEED, OTHER_SEED) if not trace else (SEED,):
        report = _run(name, trace, seed)
        assert report.to_json()["correct"], report.failures
        assert {name: unit for name, (_, unit) in report.metrics.items()} == expected
        assert all(math.isfinite(value) for value in _values(report).values())
        if not trace:
            assert all(value > 0 for value in _values(report).values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat_for_one_seed(name):
    first, second = _run(name, True), _run(name, True, repeat=1)
    exact = [metric for metric in _values(first)
             if metric.endswith(("_calls", ".calls")) or metric in (
                 "batch.rows", "manipulation.tasks_out", "replay.tasks",
                 "sweep.cache_hit_rate", "traced_ops", "err_pct")]
    assert {m: _values(first)[m] for m in exact} == {m: _values(second)[m] for m in exact}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_and_other_add_up_to_the_traced_wall(name):
    values = _values(_run(name, True))
    self_ms = sum(values[metric] * (1e3 if metric.endswith("_s") else 1.0)
                  for metric in workloads.self_time_metrics())
    assert self_ms + values["other_ms"] == pytest.approx(values["traced_wall_ms"])
    assert 0.0 <= values["other_ms"] < values["traced_wall_ms"] / 5


def test_service_phases_cover_the_round_trips():
    values = _values(_run("service", True))
    assert values["service.jobs_failed"] == 0
    assert values["sweep.cache_hit_rate"] > 0
    for phase in workloads.SERVICE_PHASES:
        assert values[f"service.{phase}_ms"] > 0


def test_missing_function_is_an_absent_layer():
    layer = Layer("gone", ("repro.core.engine:no_such_function",
                           "repro.no_such_module:run",
                           "repro.core.engine:SimulationSession.no_such_method"))
    with LayerTracer((layer,)) as tracer:
        pass
    assert tracer.absent == list(layer.targets)
    assert tracer.stats["gone"].calls == 0


def test_tracer_restores_every_binding():
    from repro.api import study
    from repro.core import engine

    compile_graph, run = engine.compile_graph, engine.SimulationSession.run
    with LayerTracer():
        assert study.compile_graph is engine.compile_graph is not compile_graph
    assert study.compile_graph is engine.compile_graph is compile_graph
    assert engine.SimulationSession.run is run


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "predict-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
