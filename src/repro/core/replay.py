"""High-level replay API.

``replay(bundle)`` builds the execution graph from a profiled trace bundle,
simulates it with Algorithm 1 and returns a :class:`ReplayResult`, a view
over the :class:`~repro.core.engine.SessionRun` it produced.  The replayed
trace (for breakdowns, SM utilisation and timeline export) is rendered
from the run on first read, then kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.breakdown import ExecutionBreakdown, compute_breakdown
from repro.core.engine import CompiledGraph, SessionRun, SimulationSession, as_compiled
from repro.core.graph import ExecutionGraph
from repro.core.graph_builder import GraphBuilder, GraphBuilderOptions
from repro.trace.kineto import KinetoTrace, TraceBundle


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a profiled trace: a view over its session run.

    The run's arrays are copies, so the result stays valid however the
    session that produced it is reused.
    """

    run: SessionRun

    @property
    def graph(self) -> ExecutionGraph:
        return self.run.compiled.graph

    @property
    def iteration_time_us(self) -> float:
        """Replayed per-iteration execution time in microseconds."""
        return self.run.iteration_time_us

    @property
    def iteration_time_ms(self) -> float:
        """Replayed per-iteration execution time in milliseconds."""
        return self.iteration_time_us / 1000.0

    @cached_property
    def replayed_trace(self) -> TraceBundle:
        """The simulated Kineto-style trace bundle, rendered on first read."""
        return self.run.to_trace_bundle()

    def breakdown(self) -> ExecutionBreakdown:
        """Execution breakdown of the replayed iteration."""
        return compute_breakdown(self.replayed_trace)

    def session(self) -> SimulationSession:
        """A fresh simulation session over this replay's compiled graph."""
        return SimulationSession(self.run.compiled)


def replay(traces: TraceBundle | KinetoTrace | None = None,
           options: GraphBuilderOptions | None = None,
           graph: ExecutionGraph | CompiledGraph | None = None) -> ReplayResult:
    """Replay a profiled trace (or a pre-built / manipulated graph).

    Parameters
    ----------
    traces:
        The profiled trace bundle.  Optional when ``graph`` is given (and
        ignored then); exactly one of ``traces`` / ``graph`` is required.
    options:
        Graph-builder options; the defaults are the full Lumos dependency
        model.
    graph:
        An already-constructed or manipulated execution graph to simulate
        instead of building one from ``traces``; a compiled one (such as a
        retime's view) is simulated without compiling.
    """
    if graph is None:
        if traces is None:
            raise ValueError("replay() requires traces or a pre-built graph")
        graph = GraphBuilder(options).build(traces)
    return ReplayResult(SimulationSession(as_compiled(graph)).run())


def simulate_graph(graph: ExecutionGraph | CompiledGraph) -> ReplayResult:
    """Simulate an execution graph that was built or manipulated separately."""
    return replay(graph=graph)
