"""What-if scenario evaluation on execution graphs.

The paper's discussion section (§5) highlights that a fine-grained execution
graph can answer "how much would the overall runtime improve if a kernel ran
twice as fast" style questions before any engineering work happens.  This
module provides that capability as a first-class API: a scenario rescales a
selected set of kernels, the modified graph is re-simulated, and the result
reports the end-to-end effect (which is usually much smaller than the local
speed-up because of overlap and critical-path effects).

Scenarios are plain ``(name, predicate, speedup)`` descriptions
(:class:`Scenario`; :func:`scenario_for` builds the declarative kinds).
A declarative kind's predicate tests only a task's class (its kind, name,
op class, collective and group), so its row costs one test per task
class: :meth:`~repro.core.engine.CompiledGraph.scaled_durations`
broadcasts the answers through the compiled graph's class column.  A
custom predicate is called on every task.
:func:`evaluate_scenarios` is the one entry point.  It stacks one
``(1 + B, n_tasks)`` duration matrix: row 0 is the graph's own durations
(the configuration every result is measured against) and each scenario
adds one rescaled row.  A matrix of two rows runs as two sequential
:meth:`~repro.core.engine.SimulationSession.run` calls.  A larger one
goes to :meth:`~repro.core.engine.SimulationSession.run_batch` as one
call: the topology's batch plan walks a sweep-sized group one row at a
time and sweeps a wide one level by level (:mod:`repro.core.batch`),
with a fallback to per-row sequential runs for graphs whose schedule is
not provably duration-independent.  Every path produces bit-identical
times.  Two rows stay sequential because a group on a topology without a
plan would pay the plan's build for two runs' worth of work.  Over a
continuous-batching serving episode every result also carries its row's
per-request serving metrics, read from the row's arrays at the
``sample_token`` kernels its compiled graph found once.  One scenario against a
graph reads::

    evaluate_scenarios(graph, [scenario_for("kernel_class", op_class="gemm")])[0]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.engine import CompiledGraph, SimulationSession, _ClassPredicate, as_compiled
from repro.core.graph import ExecutionGraph
from repro.core.serving_metrics import (
    ServingMetrics,
    metrics_from_task_times,
    stream_plan_of,
)
from repro.core.tasks import Task, TaskKind

TaskPredicate = Callable[[Task], bool]


@dataclass(frozen=True)
class WhatIfResult:
    """Outcome of one what-if scenario."""

    name: str
    baseline_time_us: float
    scenario_time_us: float
    affected_tasks: int
    #: Per-request serving metrics of the scenario's own simulation when
    #: the graph is a continuous-batching episode, ``None`` everywhere else.
    serving: ServingMetrics | None = None

    @property
    def saved_us(self) -> float:
        return self.baseline_time_us - self.scenario_time_us

    @property
    def speedup(self) -> float:
        if self.scenario_time_us <= 0:
            return float("inf")
        return self.baseline_time_us / self.scenario_time_us

    @property
    def improvement_percent(self) -> float:
        if self.baseline_time_us <= 0:
            return 0.0
        return self.saved_us / self.baseline_time_us * 100.0


@dataclass(frozen=True)
class Scenario:
    """One what-if scenario: rescale matching tasks by ``1/speedup``.

    A ``speedup`` of ``float("inf")`` removes the matching tasks from the
    timeline entirely (their durations become zero).
    """

    name: str
    predicate: TaskPredicate
    speedup: float = 2.0


@dataclass(frozen=True)
class _KindPredicate(_ClassPredicate):
    """The task test of one declarative what-if kind.

    It reads only a task's class, so a compiled graph calls it once per
    class (:meth:`~repro.core.engine.CompiledGraph.mask`).
    """

    kind: str
    #: The op class a ``kernel_class`` what-if selects, or the group a
    #: ``communication`` one selects (``None``: every group).
    selects: str | None = None

    def __call__(self, task: Task) -> bool:
        if self.kind == "kernel_class":
            return task.kind == TaskKind.GPU and task.op_class == self.selects
        if self.kind == "communication":
            if task.kind != TaskKind.GPU or not task.is_communication:
                return False
            return self.selects is None or task.args.get("group") == self.selects
        return task.kind == TaskKind.CPU and task.name == "cudaLaunchKernel"


def scenario_for(kind: str, *, op_class: str | None = None,
                 group: str | None = None, speedup: float = 2.0) -> Scenario:
    """Build the :class:`Scenario` for one declarative what-if kind.

    ``kind`` selects the scenario family: ``"kernel_class"`` (requires
    ``op_class``), ``"communication"`` (optionally one ``group``: tp/dp/pp)
    or ``"launch_overhead"`` (ignores ``speedup``; launches are removed).
    This is what the sweep runner and the :class:`~repro.api.WhatIfBuilder`
    queue after expanding a declarative spec.
    """
    if kind == "kernel_class":
        if not op_class:
            raise ValueError("what-if kind 'kernel_class' requires op_class")
        return Scenario(name=f"{op_class} x{speedup:g}",
                        predicate=_KindPredicate(kind, op_class), speedup=speedup)
    if kind == "communication":
        return Scenario(name=f"{group or 'all'}-communication x{speedup:g}",
                        predicate=_KindPredicate(kind, group), speedup=speedup)
    if kind == "launch_overhead":
        return Scenario(name="zero launch overhead",
                        predicate=_KindPredicate(kind), speedup=float("inf"))
    raise ValueError(f"unknown what-if kind '{kind}'")


def evaluate_scenarios(graph: ExecutionGraph | CompiledGraph,
                       scenarios: Sequence[Scenario | None], *,
                       session: SimulationSession | None = None,
                       deadline_ms: float | None = None) -> list[WhatIfResult]:
    """Evaluate a batch of scenarios against one graph in a single call.

    The graph is compiled once (or not at all when it is a compiled graph,
    or when ``session`` — which must run ``graph`` — is supplied).  Row 0
    of the duration matrix is the graph's own durations and every scenario
    stacks one rescaled row after it; a ``None`` scenario adds no row and
    reads row 0 (its result is named ``"baseline"``, affects no task and
    times the configuration itself).  Every result's
    :attr:`~WhatIfResult.baseline_time_us` is row 0's time.  Two rows run
    sequentially, three or more in one
    :meth:`~repro.core.engine.SimulationSession.run_batch` call; results
    are bit-identical either way.

    When ``graph`` carries a continuous-batching stream plan, every
    result's :attr:`~WhatIfResult.serving` holds the per-request metrics
    of its own row (no second simulation), scored once per row against
    the SLO ``deadline_ms`` (default
    :data:`~repro.core.serving_metrics.DEFAULT_SLO_MS`).
    """
    if not scenarios:
        return []
    if not all(scenario.speedup > 0 for scenario in scenarios
               if scenario is not None):  # NaN fails too
        raise ValueError("speedup must be positive")
    if session is None:
        session = SimulationSession(as_compiled(graph))

    compiled = session.compiled
    rows: list[int] = []  # each scenario's matrix row
    matrix_rows = [compiled.durations]
    affected = [0]
    for scenario in scenarios:
        if scenario is None:
            rows.append(0)
            continue
        durations, count = compiled.scaled_durations(scenario.predicate,
                                                     scenario.speedup)
        rows.append(len(matrix_rows))
        matrix_rows.append(durations)
        affected.append(count)
    matrix = np.stack(matrix_rows)

    if len(matrix) <= 2:
        runs = [session.run(durations=row) for row in matrix]
        times = [run.iteration_time_us for run in runs]
        starts = [run.starts for run in runs]
    else:
        batch = session.run_batch(matrix)
        times, starts = batch.iteration_times_us.tolist(), batch.starts

    plan = stream_plan_of(compiled.metadata)
    serving = {}
    if plan is not None:
        samples = compiled.sample_tokens
        serving = {row: metrics_from_task_times(samples, starts[row], matrix[row], plan,
                                                deadline_ms=deadline_ms)
                   for row in sorted(set(rows))}
    return [WhatIfResult(name="baseline" if scenario is None else scenario.name,
                         baseline_time_us=times[0],
                         scenario_time_us=times[row],
                         affected_tasks=affected[row],
                         serving=serving.get(row))
            for scenario, row in zip(scenarios, rows)]
