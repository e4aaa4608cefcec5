"""Critical-path and kernel-time analysis of a simulated execution.

Beyond replaying the iteration time, the execution graph supports the
diagnostic questions the paper motivates ("identifying performance
bottlenecks and guiding optimization efforts"): which chain of tasks
determines the iteration time, and where the GPU time goes by kernel class.
The critical path reads a :class:`~repro.core.engine.SessionRun`'s timing
arrays directly; nothing is rendered.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.engine import SessionRun, SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.tasks import Task, TaskKind


@dataclass(frozen=True)
class CriticalPathEntry:
    """One task on the critical path with its contribution."""

    task: Task
    start: float
    duration: float


@dataclass(frozen=True)
class CriticalPath:
    """The chain of tasks that determines the simulated makespan."""

    entries: tuple[CriticalPathEntry, ...]
    total_time: float

    def __len__(self) -> int:
        return len(self.entries)

    def time_by_category(self) -> dict[str, float]:
        """Critical-path time attributed to compute / communication / cpu."""
        buckets: dict[str, float] = defaultdict(float)
        for entry in self.entries:
            if entry.task.kind == TaskKind.CPU:
                buckets["cpu"] += entry.duration
            elif entry.task.is_communication:
                buckets["communication"] += entry.duration
            else:
                buckets["compute"] += entry.duration
        waiting = self.total_time - sum(buckets.values())
        buckets["wait"] = max(waiting, 0.0)
        return dict(buckets)


def critical_path(graph: ExecutionGraph, run: SessionRun | None = None) -> CriticalPath:
    """Extract the critical path of a (simulated) execution graph.

    The path is traced backwards from the task that finishes last: at each
    step the predecessor (graph dependency, processor predecessor, or
    collective/synchronisation constraint is approximated by the graph
    dependencies plus processor order) whose finish time equals the current
    task's start time is followed; if none matches exactly, the
    latest-finishing predecessor is used.  Ties go to the task scheduled
    first, then to the first candidate listed.

    ``run`` is a simulation of ``graph`` (its session run); ``None``
    simulates the graph here.
    """
    if run is None:
        run = SimulationSession(compile_graph(graph)).run()
    compiled = run.compiled
    if compiled.n_tasks == 0:
        return CriticalPath(entries=(), total_time=0.0)
    tasks = compiled.tasks
    index_of = compiled.index_of
    starts = run.starts.tolist()
    durations = run.durations.tolist()
    ends = [start + duration for start, duration in zip(starts, durations)]

    # Processor predecessor lookup from the simulated order: per processor,
    # tasks by start time; the sort is stable, so ties keep task-id order.
    by_processor = np.lexsort((run.starts, compiled.proc_index))
    same = compiled.proc_index[by_processor[1:]] == compiled.proc_index[by_processor[:-1]]
    processor_predecessor = dict(zip(by_processor[1:][same].tolist(),
                                     by_processor[:-1][same].tolist()))

    # The first task (in scheduling order) to finish last.
    order = run.finalize_order
    current = int(order[np.argmax(run.ends[order])])
    start_time = run.start_time
    entries: list[CriticalPathEntry] = []
    visited: set[int] = set()
    while current not in visited:
        visited.add(current)
        entries.append(CriticalPathEntry(task=tasks[current], start=starts[current],
                                         duration=durations[current]))
        candidates = [index_of[task_id]
                      for task_id in graph.predecessors(tasks[current].task_id)]
        if current in processor_predecessor:
            candidates.append(processor_predecessor[current])
        if not candidates:
            break
        exact = [c for c in candidates if abs(ends[c] - starts[current]) < 1e-6]
        current = max(exact or candidates, key=ends.__getitem__)
        if ends[current] < start_time + 1e-9 and starts[current] <= start_time:
            entries.append(CriticalPathEntry(task=tasks[current], start=starts[current],
                                             duration=durations[current]))
            break
    entries.reverse()
    return CriticalPath(entries=tuple(entries), total_time=run.total_time())


@dataclass(frozen=True)
class KernelClassSummary:
    """Aggregate GPU time of one kernel class."""

    op_class: str
    total_time_us: float
    count: int
    share: float


def kernel_time_summary(graph: ExecutionGraph,
                        top_k: int | None = None) -> list[KernelClassSummary]:
    """GPU time grouped by kernel class (``op_class`` arg, or comm/other).

    Useful for "where does the time go" reports; operates on recorded task
    durations, so it works before or after manipulation.
    """
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for task in graph.gpu_tasks():
        key = task.op_class or ("communication" if task.is_communication else "other")
        totals[key] += task.duration
        counts[key] += 1
    grand_total = sum(totals.values()) or 1.0
    summary = [
        KernelClassSummary(op_class=key, total_time_us=totals[key], count=counts[key],
                           share=totals[key] / grand_total)
        for key in sorted(totals, key=totals.get, reverse=True)
    ]
    return summary[:top_k] if top_k is not None else summary


def launch_overhead_summary(graph: ExecutionGraph) -> dict[str, float]:
    """Host-side launch statistics: total and mean ``cudaLaunchKernel`` time."""
    durations = [task.duration for task in graph.cpu_tasks()
                 if task.name == "cudaLaunchKernel"]
    if not durations:
        return {"count": 0, "total_us": 0.0, "mean_us": 0.0}
    return {
        "count": float(len(durations)),
        "total_us": float(sum(durations)),
        "mean_us": float(sum(durations) / len(durations)),
    }
