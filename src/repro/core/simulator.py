"""Results of the replay simulator (Algorithm 1).

The simulator schedules every task of an execution graph onto its
processor (a CPU thread or a CUDA stream), honouring:

* **fixed dependencies** — the graph edges built by the graph builder or
  by graph manipulation;
* **runtime dependencies** — blocking synchronisation tasks whose
  predecessors cannot be known statically: a ``cudaStreamSynchronize``
  completes only once every kernel of its target stream has drained, and a
  ``cudaDeviceSynchronize`` waits for every stream of its rank;
* **collective alignment** — GPU tasks that share a collective group
  (pipeline send/recv pairs) start together once every member is ready.

The output records the simulated start time of every task, from which the
iteration time, execution breakdown and SM utilisation are derived.

This module holds the dict-based renderings of a simulation.  The
scheduling lives in the array-backed engine (:mod:`repro.core.engine`),
whose :class:`~repro.core.engine.SessionRun` is the result; the analyses
that walk tasks one by one read a :class:`SimulationResult` (or its trace
bundle) rendered from a run on demand::

    SimulationSession(compile_graph(graph)).run().to_simulation_result()

Schedules are bit-identical to the original dict/heap scheduler, which
``tests/reference_simulator.py`` preserves as the test oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.tasks import Task, TaskKind
from repro.trace.events import Category, TraceEvent
from repro.trace.kineto import DistributedInfo, KinetoTrace, TraceBundle


@dataclass
class SimulatedTask:
    """One task with its simulated timing."""

    task: Task
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class SimulationResult:
    """Simulated timings for every task of the graph."""

    tasks: dict[int, SimulatedTask] = field(default_factory=dict)
    start_time: float = 0.0

    def end_time(self) -> float:
        """Simulated makespan end (latest task end)."""
        return max((t.end for t in self.tasks.values()), default=self.start_time)

    def total_time(self) -> float:
        """Simulated makespan duration in microseconds."""
        return self.end_time() - self.start_time

    def rank_span(self, rank: int) -> tuple[float, float]:
        """(start, end) of one rank's simulated execution."""
        times = [t for t in self.tasks.values() if t.task.rank == rank]
        if not times:
            return self.start_time, self.start_time
        return min(t.start for t in times), max(t.end for t in times)

    def gpu_tasks(self, rank: int | None = None) -> list[SimulatedTask]:
        return [t for t in self.tasks.values()
                if t.task.kind == TaskKind.GPU and (rank is None or t.task.rank == rank)]

    def to_trace_bundle(self) -> TraceBundle:
        """Render the simulation as a Kineto-style trace bundle.

        The output mirrors the input trace (§3.5: "the simulation generates
        a trace similar to the input trace initially profiled from the real
        run"), so every downstream analysis — breakdowns, SM utilisation —
        runs identically on real and simulated traces.
        """
        per_rank: dict[int, list[TraceEvent]] = defaultdict(list)
        for simulated in self.tasks.values():
            task = simulated.task
            if task.kind == TaskKind.GPU:
                category = task.category or Category.KERNEL
                tid = int(task.stream)
            else:
                category = task.category or Category.CPU_OP
                tid = int(task.thread)
            per_rank[task.rank].append(TraceEvent(
                name=task.name, cat=category, ts=simulated.start, dur=simulated.duration,
                pid=task.rank, tid=tid, args=dict(task.args),
            ))
        bundle = TraceBundle(metadata={"simulated": True})
        for rank, events in per_rank.items():
            start = min(e.ts for e in events)
            end = max(e.end for e in events)
            events.append(TraceEvent(name="ProfilerStep#0", cat=Category.USER_ANNOTATION,
                                     ts=start, dur=end - start, pid=rank, tid=0,
                                     args={"simulated": True}))
            world = len(per_rank)
            bundle.add(KinetoTrace(rank=rank, events=events,
                                   distributed=DistributedInfo(rank=rank, world_size=world),
                                   metadata={"simulated": True}))
        return bundle

