"""Critical-path and kernel-time analysis of a simulated execution.

Beyond replaying the iteration time, the execution graph supports the
diagnostic questions the paper motivates ("identifying performance
bottlenecks and guiding optimization efforts"): which chain of tasks
determines the iteration time, and where the GPU time goes by kernel class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.graph import ExecutionGraph
from repro.core.engine import SimulationSession, compile_graph
from repro.core.simulator import SimulationResult, SimulatedTask
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


def critical_path(graph: ExecutionGraph,
                  simulation: SimulationResult | None = None) -> CriticalPath:
    """Extract the critical path of a (simulated) execution graph.

    The path is traced backwards from the task that finishes last: at each
    step the predecessor (graph dependency, processor predecessor, or
    collective/synchronisation constraint is approximated by the graph
    dependencies plus processor order) whose finish time equals the current
    task's start time is followed; if none matches exactly, the
    latest-finishing predecessor is used.
    """
    if simulation is None:
        simulation = SimulationSession(compile_graph(graph)).run().to_simulation_result()
    if not simulation.tasks:
        return CriticalPath(entries=(), total_time=0.0)

    # Processor predecessor lookup from the simulated order.
    by_processor: dict[tuple, list[SimulatedTask]] = defaultdict(list)
    for simulated in simulation.tasks.values():
        by_processor[simulated.task.processor].append(simulated)
    processor_predecessor: dict[int, int] = {}
    for simulated_tasks in by_processor.values():
        simulated_tasks.sort(key=lambda t: (t.start, t.task.task_id))
        for previous, current in zip(simulated_tasks, simulated_tasks[1:]):
            processor_predecessor[current.task.task_id] = previous.task.task_id

    last = max(simulation.tasks.values(), key=lambda t: t.end)
    entries: list[CriticalPathEntry] = []
    current: SimulatedTask | None = last
    visited: set[int] = set()
    while current is not None and current.task.task_id not in visited:
        visited.add(current.task.task_id)
        entries.append(CriticalPathEntry(task=current.task, start=current.start,
                                         duration=current.duration))
        candidates = list(graph.predecessors(current.task.task_id))
        if current.task.task_id in processor_predecessor:
            candidates.append(processor_predecessor[current.task.task_id])
        candidate_tasks = [simulation.tasks[c] for c in candidates if c in simulation.tasks]
        if not candidate_tasks:
            break
        exact = [c for c in candidate_tasks if abs(c.end - current.start) < 1e-6]
        current = (max(exact, key=lambda t: t.end) if exact
                   else max(candidate_tasks, key=lambda t: t.end))
        if current.end < simulation.start_time + 1e-9 and current.start <= simulation.start_time:
            entries.append(CriticalPathEntry(task=current.task, start=current.start,
                                             duration=current.duration))
            break
    entries.reverse()
    return CriticalPath(entries=tuple(entries), total_time=simulation.total_time())


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
