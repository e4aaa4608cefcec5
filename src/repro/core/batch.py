"""Batched multi-scenario simulation: B duration vectors in one sweep.

A what-if sweep group re-simulates one compiled graph with nothing but the
kernel-duration vector changing, and :class:`~repro.core.engine.
SimulationSession` already made each of those simulations cheap.  But a
group of B scenarios still pays B full passes of the Python event loop —
the dominant cost once everything else is amortised.  This module removes
that factor: :class:`BatchSession` simulates a ``(B, n_tasks)`` duration
matrix in **one** sweep over the graph, vectorizing the ready-time /
processor-availability / stream-drain arithmetic across the batch axis
with 2-D numpy buffers.

Soundness.  The sequential scheduler pops tasks from a heap ordered by
ready time, so in general the *order* tasks reach a processor depends on
the durations — two scenarios of one batch could legally serialise the
same processor differently, and no single vectorized pass could reproduce
both.  Batching is therefore gated on a compile-time proof that the
schedule's data flow is the same for every duration vector:

* **Processor chains** — for every processor (CPU thread / CUDA stream),
  the tasks it executes must be totally ordered by the fixed dependencies.
  Then "wait for the processor" is exactly "wait for the previous task of
  the chain", independent of durations.  Graphs built by
  :class:`~repro.core.graph_builder.GraphBuilder` (and everything derived
  from them by manipulation) satisfy this by construction: consecutive
  same-thread and same-stream tasks are chained with direct edges.
* **Stream drains** — a blocking synchronisation waits until *all*
  kernels of its target streams finished (Algorithm 1 counts them against
  the per-stream total), so its ready time is the max over every kernel's
  end on those streams — an order-independent reduction.
* **Collective alignment** — under the chain condition a group member's
  pop-time processor availability is its chain predecessor's end, so the
  aligned common start is a max over a fixed operand set.

Under these conditions every start time is ``max`` over a fixed set of
end times (fixed predecessors, the processor-chain predecessor, drained
stream kernels, the global start time), and float ``max``/``add`` over
identical operand sets give bit-identical results regardless of
evaluation order — the batched kernel reproduces the sequential
scheduler's start times *exactly* (``tests/test_batch_engine.py`` asserts
float equality, no tolerance).

Graphs that fail the proof — hand-built graphs with unordered same-
processor tasks, or unsatisfiable synchronisation patterns that would
deadlock Algorithm 1 — raise :class:`UnbatchableGraphError` at plan time,
and :class:`BatchSession` falls back to B sequential
:meth:`~repro.core.engine.SimulationSession.run` calls (reproducing the
sequential result, including its ``RuntimeError`` on deadlocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.engine import CompiledGraph
from repro.core.graph import edge_csr
from repro.observability import tracing as observability

if TYPE_CHECKING:
    from repro.core.engine import SimulationSession

#: Ancestry verification builds an ``(n_tasks, n_procs)`` table; graphs
#: bigger than this many cells fall back to sequential execution instead
#: of risking the memory spike (only reached when the cheap direct-edge
#: check already failed, which builder-produced graphs never do).
_ANCESTRY_TABLE_LIMIT = 64_000_000

#: Machine-readable refusal codes, one per way the duration-independence
#: proof can fail (:attr:`UnbatchableGraphError.code`).
FALLBACK_UNORDERED_TASKS = "unordered-processor-tasks"
FALLBACK_ANCESTRY_OVERFLOW = "ancestry-table-overflow"
FALLBACK_COLLECTIVE_DEPENDENCY = "collective-internal-dependency"
FALLBACK_SYNC_CYCLE = "sync-cycle"
#: A continuous-batching serving graph failed the proof.  Builder-emitted
#: stream episodes batch fine (one final drain, chained streams), so this
#: code marks hand-modified stream graphs — distinct so serving sweeps
#: can tell "stream graph went sequential" from the generic causes.
FALLBACK_SERVING_STREAM = "serving-stream-schedule"


class UnbatchableGraphError(RuntimeError):
    """The compiled graph has no duration-independent schedule.

    Raised by :func:`compile_batch_plan` when the static-schedulability
    proof fails; :class:`BatchSession` catches it and records the reason
    (see :attr:`BatchSession.fallback_reason`).  :attr:`code` carries the
    machine-readable refusal class (one of the ``FALLBACK_*`` constants),
    while the message describes the offending tasks.
    """

    def __init__(self, message: str, code: str = "unbatchable") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class _Level:
    """One rank of the augmented DAG: nodes whose inputs are all computed.

    ``pred_columns``/``indptr`` describe, per node, the columns of the
    end-time matrix feeding its start (CSR layout; every segment contains
    at least the virtual start-time column).  ``out_tasks`` lists the
    dense task indices written by this level and ``out_nodes`` the
    level-local node each one takes its start from (collective groups
    write several tasks from one node).  ``drain_columns``/``drain_nodes``
    scatter the level's stream-drain reductions into their end-matrix
    columns (drains produce no task, only an operand for syncs).
    """

    pred_columns: np.ndarray
    indptr: np.ndarray
    out_tasks: np.ndarray
    out_nodes: np.ndarray
    drain_columns: np.ndarray
    drain_nodes: np.ndarray


@dataclass(frozen=True)
class BatchPlan:
    """The compiled, duration-independent schedule of one topology.

    It references no graph, so every configuration whose compiled graph
    shares a topology (see :func:`~repro.core.engine.compile_graph`)
    shares one plan.
    """

    levels: tuple[_Level, ...]
    #: Stream-drain reduction slots (one end-matrix column each).
    n_drains: int = 0

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def execute(self, durations: np.ndarray, start_time: float) -> np.ndarray:
        """Start times (``B × n_tasks``) for a batch of duration vectors."""
        batch, n = durations.shape
        starts = np.empty((batch, n), dtype=np.float64)
        # Column n is the virtual "simulation start" operand present in
        # every max (ready times, processor slots and stream last-ends all
        # initialise to it); columns beyond hold the drain reductions.
        ends = np.empty((batch, n + 1 + self.n_drains), dtype=np.float64)
        ends[:, n] = start_time
        for level in self.levels:
            gathered = ends[:, level.pred_columns]
            node_starts = np.maximum.reduceat(gathered, level.indptr, axis=1)
            if len(level.out_tasks):
                level_starts = node_starts[:, level.out_nodes]
                starts[:, level.out_tasks] = level_starts
                ends[:, level.out_tasks] = level_starts + durations[:, level.out_tasks]
            if len(level.drain_columns):
                ends[:, level.drain_columns] = node_starts[:, level.drain_nodes]
        return starts


def _edge_sources(compiled: CompiledGraph) -> np.ndarray:
    """Source task of every edge, in successor-CSR order."""
    return np.repeat(np.arange(compiled.n_tasks, dtype=np.int64),
                     np.diff(compiled.succ_indptr))


def _predecessor_csr(compiled: CompiledGraph) -> tuple[list[int], list[int]]:
    """Fixed-dependency predecessors per dense task index, as a CSR of lists.

    The predecessors of ``i`` are ``preds[indptr[i]:indptr[i + 1]]``: a
    stable argsort of the successor CSR by destination.
    """
    indptr, preds = edge_csr(compiled.succ_indices, _edge_sources(compiled),
                             compiled.n_tasks)
    return indptr.tolist(), preds.tolist()


def _chain_predecessors(compiled: CompiledGraph, topo_pos: np.ndarray,
                        pred_indptr: list[int], preds: list[int]) -> np.ndarray:
    """Same-processor predecessor per task, verifying the chain condition.

    Orders each processor's tasks by topological position and proves that
    every consecutive pair is dependency-ordered — first with the cheap
    direct-edge check (always sufficient for builder-produced graphs),
    then, for the remaining pairs, with a latest-ancestor-per-processor
    table.  Raises :class:`UnbatchableGraphError` when a pair is genuinely
    unordered (its serialisation would depend on the durations).
    """
    n = compiled.n_tasks
    proc = compiled.proc_index
    order = np.lexsort((topo_pos, proc))
    left, right = order[:-1], order[1:]
    same = proc[left] == proc[right]
    chain_src = left[same]
    chain_dst = right[same]
    chain_pred = np.full(n, -1, dtype=np.int64)
    chain_pred[chain_dst] = chain_src
    if len(chain_src) == 0:
        return chain_pred

    # Cheap sufficient check: a direct edge src -> dst proves the order.
    edge_keys = _edge_sources(compiled) * n + compiled.succ_indices
    pair_keys = chain_src * n + chain_dst
    unproven = ~np.isin(pair_keys, edge_keys)
    if not unproven.any():
        return chain_pred

    if n * max(compiled.n_procs, 1) > _ANCESTRY_TABLE_LIMIT:
        raise UnbatchableGraphError(
            "graph is too large for ancestry verification and has "
            "same-processor tasks without direct chain edges",
            code=FALLBACK_ANCESTRY_OVERFLOW)

    # Latest same-processor ancestor, per processor, in topo order.
    latest = np.full((n, compiled.n_procs), -1, dtype=np.int64)
    for index in compiled.topological.tolist():
        row = latest[index]
        for pred in preds[pred_indptr[index]:pred_indptr[index + 1]]:
            np.maximum(row, latest[pred], out=row)
            pred_proc = proc[pred]
            if topo_pos[pred] > row[pred_proc]:
                row[pred_proc] = topo_pos[pred]
    for src, dst in zip(chain_src[unproven], chain_dst[unproven]):
        if latest[dst, proc[dst]] != topo_pos[src]:
            a, b = compiled.tasks[int(src)], compiled.tasks[int(dst)]
            raise UnbatchableGraphError(
                f"tasks '{a.name}' and '{b.name}' share processor "
                f"{a.processor} but are not dependency-ordered; their "
                f"serialisation depends on the durations",
                code=FALLBACK_UNORDERED_TASKS)
    return chain_pred


def compile_batch_plan(compiled: CompiledGraph) -> BatchPlan:
    """Prove the schedule duration-independent and lower it to level sweeps.

    Raises :class:`UnbatchableGraphError` when the proof fails: unordered
    same-processor tasks, dependencies between members of one collective
    group, or synchronisation cycles (the cases where Algorithm 1 either
    reorders across scenarios or deadlocks outright).
    """
    n = compiled.n_tasks
    if n == 0:
        return BatchPlan(levels=())

    topo = compiled.topological
    topo_pos = np.empty(n, dtype=np.int64)
    topo_pos[topo] = np.arange(n, dtype=np.int64)
    pred_indptr, preds = _predecessor_csr(compiled)
    chain_pred = _chain_predecessors(compiled, topo_pos, pred_indptr, preds)

    # Node assignment: collective groups collapse to one node (their
    # members start together), everything else is its own node, and every
    # stream a sync drains gets one *drain node* — a single reduction over
    # the stream's kernel ends that all its syncs read (instead of each
    # sync inlining every kernel of the stream as an operand).
    group_id = compiled.group_id
    singles = np.flatnonzero(group_id < 0)
    n_groups = len(compiled.group_members)
    node_of = np.empty(n, dtype=np.int64)
    node_of[singles] = np.arange(len(singles), dtype=np.int64)
    grouped = np.flatnonzero(group_id >= 0)
    node_of[grouped] = len(singles) + group_id[grouped]
    node_tasks: list[list[int]] = [[int(index)] for index in singles]
    node_tasks.extend([int(m) for m in members] for members in compiled.group_members)

    drained_slots = sorted({slot for slots in compiled.sync_slots for slot in slots})
    drain_node_of = {slot: len(node_tasks) + position
                     for position, slot in enumerate(drained_slots)}
    #: Drain value of stream ``slot`` lives in end-matrix column
    #: ``n + 1 + drain_column_of[slot]`` (column ``n`` is the start time).
    drain_column_of = {slot: position
                       for position, slot in enumerate(drained_slots)}
    n_nodes = len(node_tasks) + len(drained_slots)

    node_operands: list[set[int]] = []
    node_pred_nodes: list[set[int]] = []
    for node, members in enumerate(node_tasks):
        operands: set[int] = set()
        pred_nodes: set[int] = set()
        for index in members:
            for pred in preds[pred_indptr[index]:pred_indptr[index + 1]]:
                operands.add(pred)
                pred_nodes.add(int(node_of[pred]))
            if chain_pred[index] >= 0:
                operands.add(int(chain_pred[index]))
                pred_nodes.add(int(node_of[chain_pred[index]]))
            for slot in compiled.sync_slots[index]:
                operands.add(n + 1 + drain_column_of[slot])
                pred_nodes.add(drain_node_of[slot])
        if node in pred_nodes:
            members_desc = [compiled.tasks[index].name for index in members[:4]]
            raise UnbatchableGraphError(
                f"self-referential scheduling constraint among tasks "
                f"{members_desc}: a collective group with internal "
                f"dependencies deadlocks Algorithm 1",
                code=FALLBACK_COLLECTIVE_DEPENDENCY)
        node_operands.append(operands)
        node_pred_nodes.append(pred_nodes)
    for slot in drained_slots:
        kernels = np.flatnonzero(compiled.stream_slot == slot)
        node_operands.append(set(kernels.tolist()))
        node_pred_nodes.append({int(node_of[kernel]) for kernel in kernels})

    # Level assignment over the augmented node graph (Kahn by longest
    # path); a leftover node means a scheduling cycle -> deadlock (e.g. a
    # kernel behind its own stream's synchronisation).
    node_succ: list[list[int]] = [[] for _ in range(n_nodes)]
    node_indegree = np.zeros(n_nodes, dtype=np.int64)
    for node, pred_nodes in enumerate(node_pred_nodes):
        node_indegree[node] = len(pred_nodes)
        for pred_node in sorted(pred_nodes):
            node_succ[pred_node].append(node)
    level_of = np.zeros(n_nodes, dtype=np.int64)
    frontier = np.flatnonzero(node_indegree == 0).tolist()
    visited = 0
    by_level: dict[int, list[int]] = {}
    while frontier:
        next_frontier: list[int] = []
        for node in frontier:
            visited += 1
            by_level.setdefault(int(level_of[node]), []).append(node)
            for successor in node_succ[node]:
                if level_of[node] + 1 > level_of[successor]:
                    level_of[successor] = level_of[node] + 1
                node_indegree[successor] -= 1
                if node_indegree[successor] == 0:
                    next_frontier.append(successor)
        frontier = next_frontier
    if visited != n_nodes:
        raise UnbatchableGraphError(
            "synchronisation constraints form a cycle; Algorithm 1 would "
            "deadlock on this graph", code=FALLBACK_SYNC_CYCLE)

    levels: list[_Level] = []
    for level in sorted(by_level):
        nodes = by_level[level]
        pred_columns: list[int] = []
        indptr: list[int] = []
        out_tasks: list[int] = []
        out_nodes: list[int] = []
        drain_columns: list[int] = []
        drain_nodes: list[int] = []
        for position, node in enumerate(nodes):
            indptr.append(len(pred_columns))
            pred_columns.extend(sorted(node_operands[node]))
            # The virtual start-time column keeps every segment non-empty
            # (np.maximum.reduceat misreads empty segments) and mirrors
            # the sequential initialisation of the ready / processor /
            # stream-last-end state.
            pred_columns.append(n)
            if node < len(node_tasks):
                for index in node_tasks[node]:
                    out_tasks.append(index)
                    out_nodes.append(position)
            else:
                slot = drained_slots[node - len(node_tasks)]
                drain_columns.append(n + 1 + drain_column_of[slot])
                drain_nodes.append(position)
        levels.append(_Level(
            pred_columns=np.asarray(pred_columns, dtype=np.int64),
            indptr=np.asarray(indptr, dtype=np.int64),
            out_tasks=np.asarray(out_tasks, dtype=np.int64),
            out_nodes=np.asarray(out_nodes, dtype=np.int64),
            drain_columns=np.asarray(drain_columns, dtype=np.int64),
            drain_nodes=np.asarray(drain_nodes, dtype=np.int64),
        ))
    return BatchPlan(levels=tuple(levels), n_drains=len(drained_slots))


def _topology_plan(compiled: CompiledGraph) -> BatchPlan:
    """:func:`compile_batch_plan`, built once per topology.

    The plan, or the refusal, is kept with the compiled structure, so a
    later session over any graph of the same topology reuses it.
    """
    topology = compiled._topology
    verdict = topology.plan
    if verdict is None:
        observability.count("batch.plan.full")
        try:
            verdict = topology.plan = compile_batch_plan(compiled)
        except UnbatchableGraphError as error:
            # Keep a copy that was never raised: a raised error's
            # traceback would pin this graph in the memo.
            topology.plan = UnbatchableGraphError(str(error), error.code)
            raise
        return verdict
    observability.count("batch.plan.shared")
    if isinstance(verdict, UnbatchableGraphError):
        raise UnbatchableGraphError(str(verdict), verdict.code)
    return verdict


@dataclass(frozen=True)
class BatchRun:
    """Timings of one batched simulation: one row per scenario.

    ``starts``/``durations`` are ``(batch, n_tasks)`` arrays in dense task
    order; every row is bit-identical to the corresponding sequential
    :meth:`~repro.core.engine.SimulationSession.run`.  ``batched`` records
    whether the vectorized kernel ran or the sequential fallback did;
    on the fallback path ``fallback_reason`` carries why the proof failed.
    """

    compiled: CompiledGraph
    start_time: float
    starts: np.ndarray
    durations: np.ndarray
    batched: bool
    fallback_reason: str | None = None

    @property
    def batch_size(self) -> int:
        return int(self.starts.shape[0])

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.durations

    @property
    def iteration_times_us(self) -> np.ndarray:
        """Per-scenario global span (earliest start to latest end).

        Matches :attr:`~repro.core.engine.SessionRun.iteration_time_us`
        row by row.
        """
        if self.starts.shape[1] == 0:
            return np.zeros(self.batch_size, dtype=np.float64)
        return self.ends.max(axis=1) - self.starts.min(axis=1)

    def scenario_time_us(self, scenario: int) -> float:
        return float(self.iteration_times_us[scenario])


class BatchSession:
    """Reusable batched runner over one compiled graph.

    Takes the :class:`BatchPlan` of the graph's topology, built by the
    first session over it; when the graph is unbatchable the
    session transparently falls back to per-scenario sequential runs on a
    :class:`~repro.core.engine.SimulationSession` (:attr:`batchable`,
    :attr:`fallback_reason` and :attr:`fallback_code` report which path is
    live and why).
    """

    def __init__(self, compiled: CompiledGraph,
                 fallback: "SimulationSession | None" = None) -> None:
        self.compiled = compiled
        self._fallback = fallback
        self.plan: BatchPlan | None = None
        self.fallback_reason: str | None = None
        self.fallback_code: str | None = None
        with observability.trace_span("batch.compile_plan",
                                      tasks=compiled.n_tasks) as span:
            try:
                self.plan = _topology_plan(compiled)
            except UnbatchableGraphError as error:
                self.fallback_reason = str(error)
                self.fallback_code = error.code
                if compiled.graph.metadata.get("serving_stream") is not None:
                    # A continuous-batching episode lost its fast path —
                    # report the serving-specific code (the generic cause
                    # stays in the reason text).
                    self.fallback_code = FALLBACK_SERVING_STREAM
                    self.fallback_reason = (
                        f"continuous-batching stream graph is not batchable "
                        f"({error.code}): {error}")
                span.set(fallback=self.fallback_code)
        if self.plan is None:
            observability.count(f"batch.unbatchable.{self.fallback_code}")

    @property
    def batchable(self) -> bool:
        return self.plan is not None

    def _coerce_matrix(self, durations) -> np.ndarray:
        n = self.compiled.n_tasks
        matrix = np.ascontiguousarray(durations, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise ValueError(
                f"duration matrix has shape {matrix.shape}, expected "
                f"(batch, {n})")
        return matrix

    def run(self, durations: Sequence[Sequence[float]] | np.ndarray,
            start_time: float = 0.0) -> BatchRun:
        """Simulate every row of ``durations`` against the compiled graph."""
        matrix = self._coerce_matrix(durations)
        if self.plan is not None:
            observability.count("batch.runs.fast_path")
            observability.count("batch.scenarios.fast_path", len(matrix))
            starts = self.plan.execute(matrix, start_time)
            return BatchRun(compiled=self.compiled, start_time=start_time,
                            starts=starts, durations=matrix.copy(), batched=True)
        observability.count("batch.runs.fallback")
        observability.count("batch.scenarios.fallback", len(matrix))
        return self._run_fallback(matrix, start_time)

    def _run_fallback(self, matrix: np.ndarray, start_time: float) -> BatchRun:
        from repro.core.engine import SimulationSession

        if self._fallback is None:
            self._fallback = SimulationSession(self.compiled)
        starts = np.empty_like(matrix)
        for row in range(len(matrix)):
            starts[row] = self._fallback.run(durations=matrix[row],
                                             start_time=start_time).starts
        return BatchRun(compiled=self.compiled, start_time=start_time,
                        starts=starts, durations=matrix.copy(), batched=False,
                        fallback_reason=self.fallback_reason)
