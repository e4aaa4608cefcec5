"""The Lumos core: execution graphs, replay simulation and graph manipulation.

This package implements the paper's contribution:

* :mod:`repro.core.tasks` / :mod:`repro.core.graph` — the task-level
  execution graph (CPU tasks, GPU tasks, four dependency classes,
  cross-rank collective groups);
* :mod:`repro.core.graph_builder` — constructing the graph from Kineto
  traces (§3.3);
* :mod:`repro.core.engine` — the array-backed two-phase engine (the
  replay simulator, Algorithm 1): a
  :class:`~repro.core.engine.CompiledGraph` precomputes immutable
  structure once, a :class:`~repro.core.engine.SimulationSession` replays
  it, and its :class:`~repro.core.engine.SessionRun` holds every task's
  timing and renders the replayed trace;
* :mod:`repro.core.batch` — batched multi-scenario simulation: a
  :class:`~repro.core.batch.BatchSession` simulates a ``(B, n_tasks)``
  duration matrix with one straight-line plan per topology, walked per
  row for narrow batches and per level for wide ones (bit-identical to
  B sequential runs), with a sequential fallback for graphs whose
  schedule is not provably duration-independent;
* :mod:`repro.core.replay` — the high-level replay API;
* :mod:`repro.core.breakdown` / :mod:`repro.core.sm_utilization` —
  execution-time breakdowns and SM-utilisation timelines (§4.2);
* :mod:`repro.core.perf_model` — the trace-calibrated kernel performance
  model used for kernels introduced by manipulation (§4.3);
* :mod:`repro.core.manipulation` — graph manipulation for new parallelism
  strategies and model architectures (§3.4, §4.3).
"""

from repro.core.tasks import DependencyType, Task, TaskKind
from repro.core.graph import ExecutionGraph
from repro.core.graph_builder import GraphBuilder, GraphBuilderOptions, build_execution_graph
from repro.core.engine import CompiledGraph, SessionRun, SimulationSession, compile_graph
from repro.core.batch import (
    BatchPlan,
    BatchRun,
    BatchSession,
    UnbatchableGraphError,
    compile_batch_plan,
)
from repro.core.replay import ReplayResult, replay
from repro.core.breakdown import ExecutionBreakdown, compute_breakdown
from repro.core.sm_utilization import sm_utilization_timeline
from repro.core.perf_model import KernelPerfModel
from repro.core.metrics import relative_error_percent, mean_absolute_percentage_error
from repro.core.critical_path import critical_path, kernel_time_summary
from repro.core.whatif import (
    Scenario,
    evaluate_scenarios,
    scenario_for,
)

__all__ = [
    "Task",
    "TaskKind",
    "DependencyType",
    "ExecutionGraph",
    "GraphBuilder",
    "GraphBuilderOptions",
    "build_execution_graph",
    "CompiledGraph",
    "SimulationSession",
    "SessionRun",
    "compile_graph",
    "BatchPlan",
    "BatchRun",
    "BatchSession",
    "UnbatchableGraphError",
    "compile_batch_plan",
    "replay",
    "ReplayResult",
    "ExecutionBreakdown",
    "compute_breakdown",
    "sm_utilization_timeline",
    "KernelPerfModel",
    "relative_error_percent",
    "mean_absolute_percentage_error",
    "critical_path",
    "kernel_time_summary",
    "Scenario",
    "evaluate_scenarios",
    "scenario_for",
]
