"""Batched multi-scenario simulation: B duration vectors, one plan.

A what-if sweep group re-simulates one compiled graph with nothing but
the kernel-duration vector changing.  :class:`BatchSession` simulates a
``(B, n_tasks)`` duration matrix of such rows against a
:class:`BatchPlan`: the graph's schedule, proven independent of the
durations and lowered once per topology to a straight-line program.

Soundness.  The sequential scheduler pops tasks from a heap ordered by
ready time, so in general the *order* tasks reach a processor depends on
the durations — two scenarios of one batch could legally serialise the
same processor differently, and no single program could reproduce both.
Batching is therefore gated on a compile-time proof that the schedule's
data flow is the same for every duration vector:

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
evaluation order — the plan reproduces the sequential scheduler's start
times *exactly* (``tests/test_batch_engine.py`` asserts float equality,
no tolerance).

The plan.  :func:`compile_batch_plan` lowers the proof to one program: a
node per task, per collective group and per drained stream, in
topological order, each listing the earlier nodes whose ends it waits
for.  The Kahn pass that orders the nodes emits them level by level
(a level is the nodes at one longest-path distance from a root), so each
level is a contiguous run of the program.

Two walkers.  :meth:`BatchPlan.execute` picks one by row count alone.
Up to :data:`ROW_WALK_MAX_ROWS` rows, the **row walk** runs the program
once per row on plain Python floats; its cost is per row and node.
Above it, the **level sweep** runs each level as a few numpy calls
across all rows; its cost is per level and nearly flat in the rows.  The
graphs are deep and narrow (thousands of levels of 1.6 to 3.2 nodes), so
a sweep group of a handful of rows takes the row walk and the 64-row
scenario grids take the level sweep.

Graphs that fail the proof — hand-built graphs with unordered same-
processor tasks, or unsatisfiable synchronisation patterns that would
deadlock Algorithm 1 — raise :class:`UnbatchableGraphError` at plan time,
and :class:`BatchSession` falls back to B sequential
:meth:`~repro.core.engine.SimulationSession.run` calls (reproducing the
sequential result, including its ``RuntimeError`` on deadlocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


#: Matrices of at most this many rows are walked one row at a time
#: (:meth:`BatchPlan.execute`); wider ones take the level sweep.  On the
#: 5.6k-7.3k-task benchmark graphs a row walk costs 1.6-2.6 ms per row
#: and a level sweep 14-21 ms plus 0.5-0.7 ms per row: the row walk wins
#: on all of them at 8 rows and the level sweep at 16.
ROW_WALK_MAX_ROWS = 8


@dataclass(frozen=True)
class BatchPlan:
    """The compiled, duration-independent schedule of one topology.

    Node ``i`` of ``program`` writes column ``i`` of a simulation's end
    vector: it starts at the max of the start time and the ends its
    operand tuple lists, and ends its duration later (a group's common
    start and a stream's drain have no duration).  Task ``t`` is node
    ``task_nodes[t]``; level ``k`` is nodes ``level_bounds[k]`` up to
    ``level_bounds[k + 1]``.

    It references no graph, so every configuration whose compiled graph
    shares a topology (see :func:`~repro.core.engine.compile_graph`)
    shares one plan.
    """

    program: tuple[tuple[int, ...], ...]
    task_nodes: np.ndarray
    level_bounds: tuple[int, ...]

    @property
    def n_levels(self) -> int:
        return len(self.level_bounds) - 1

    def execute(self, durations: np.ndarray, start_time: float) -> np.ndarray:
        """Start times (``B × n_tasks``) for a batch of duration vectors."""
        # Node durations: the tasks' in program order, zero elsewhere.
        node_durations = np.zeros((len(durations), len(self.program)), dtype=np.float64)
        node_durations[:, self.task_nodes] = durations
        if len(durations) <= ROW_WALK_MAX_ROWS:
            observability.count("batch.execute.row_walk")
            starts = self._walk_rows(node_durations, float(start_time))
        else:
            observability.count("batch.execute.level_sweep")
            starts = self._sweep_levels(node_durations, start_time)
        return starts[:, self.task_nodes]

    def _walk_rows(self, durations: np.ndarray, start_time: float) -> np.ndarray:
        """The program evaluated one row at a time on plain Python floats."""
        starts = np.empty_like(durations)
        for row, vector in enumerate(durations):
            duration = vector.tolist()
            begin = [start_time] * len(duration)
            end = begin.copy()
            for node, operands in enumerate(self.program):
                start = start_time
                for operand in operands:
                    if end[operand] > start:
                        start = end[operand]
                begin[node] = start
                end[node] = start + duration[node]
            starts[row] = begin
        return starts

    def _sweep_levels(self, durations: np.ndarray, start_time: float) -> np.ndarray:
        """The program evaluated level by level, vectorized across rows."""
        batch, width = durations.shape
        columns, segments, column_bounds = self._level_arrays
        # Column ``width`` is the virtual start-time operand that closes
        # every node's segment (see ``_level_arrays``).
        ends = np.empty((batch, width + 1), dtype=np.float64)
        ends[:, width] = start_time
        starts = np.empty_like(durations)
        bounds = self.level_bounds
        for level in range(self.n_levels):
            low, high = bounds[level], bounds[level + 1]
            level_starts = np.maximum.reduceat(
                ends[:, columns[column_bounds[level]:column_bounds[level + 1]]],
                segments[low:high], axis=1)
            starts[:, low:high] = level_starts
            np.add(level_starts, durations[:, low:high], out=ends[:, low:high])
        return starts

    @cached_property
    def _level_arrays(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The program's operands flattened for the level sweep (built once).

        Every node's operand columns, closed by the virtual start-time
        column (it applies the start time and keeps every segment
        non-empty, which ``np.maximum.reduceat`` needs); each node's
        segment offset within its level; and each level's bounds into the
        operand columns.
        """
        start_column = len(self.program)
        columns: list[int] = []
        segments: list[int] = []
        column_bounds = [0]
        for low, high in zip(self.level_bounds, self.level_bounds[1:]):
            for operands in self.program[low:high]:
                segments.append(len(columns) - column_bounds[-1])
                columns.extend(operands)
                columns.append(start_column)
            column_bounds.append(len(columns))
        return (np.array(columns, dtype=np.int64), np.array(segments, dtype=np.int64),
                column_bounds)


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
    """Prove the schedule duration-independent and lower it to a program.

    Raises :class:`UnbatchableGraphError` when the proof fails: unordered
    same-processor tasks, dependencies between members of one collective
    group, or synchronisation cycles (the cases where Algorithm 1 either
    reorders across scenarios or deadlocks outright).
    """
    n = compiled.n_tasks
    if n == 0:
        return BatchPlan(program=(), task_nodes=np.zeros(0, dtype=np.int64),
                         level_bounds=(0,))

    topo = compiled.topological
    topo_pos = np.empty(n, dtype=np.int64)
    topo_pos[topo] = np.arange(n, dtype=np.int64)
    pred_indptr, preds = _predecessor_csr(compiled)
    chain_pred = _chain_predecessors(compiled, topo_pos, pred_indptr, preds).tolist()

    # Nodes are numbered tasks first, then groups, then drains, until the
    # program renumbers them in topological order.  A task's operands are
    # its predecessors, its chain predecessor and the drains of the
    # streams it synchronises on.  A collective group's members start
    # together, so the group's node takes the union of their operands and
    # each member reads only the group's node.  A drained stream's node
    # reduces its kernels' ends once for every sync that waits on it.
    group_id = compiled.group_id.tolist()
    group_members = compiled.group_members
    drained_slots = sorted({slot for slots in compiled.sync_slots for slot in slots})
    drain_node = {slot: n + len(group_members) + position
                  for position, slot in enumerate(drained_slots)}
    operands: list[tuple[int, ...]] = []
    group_operands: list[set[int]] = [set() for _ in group_members]
    for index in range(n):
        columns = set(preds[pred_indptr[index]:pred_indptr[index + 1]])
        if chain_pred[index] >= 0:
            columns.add(chain_pred[index])
        columns.update(drain_node[slot] for slot in compiled.sync_slots[index])
        group = group_id[index]
        if group < 0:
            operands.append(tuple(columns))
        else:
            group_operands[group].update(columns)
            operands.append((n + group,))
    for group, columns in enumerate(group_operands):
        if any(column < n and group_id[column] == group for column in columns):
            members_desc = [compiled.tasks[index].name
                            for index in group_members[group][:4]]
            raise UnbatchableGraphError(
                f"self-referential scheduling constraint among tasks "
                f"{members_desc}: a collective group with internal "
                f"dependencies deadlocks Algorithm 1",
                code=FALLBACK_COLLECTIVE_DEPENDENCY)
        operands.append(tuple(columns))
    for slot in drained_slots:
        operands.append(tuple(np.flatnonzero(compiled.stream_slot == slot).tolist()))

    # Kahn, one wave at a time: a node joins the wave after its last
    # operand's, so wave ``k`` is level ``k`` (the longest path from a
    # root) and the order lists each level as one contiguous run.  A
    # leftover node means a scheduling cycle -> deadlock (e.g. a kernel
    # behind its own stream's synchronisation).
    successors: list[list[int]] = [[] for _ in operands]
    remaining = [len(columns) for columns in operands]
    for node, columns in enumerate(operands):
        for column in columns:
            successors[column].append(node)
    order: list[int] = []
    level_bounds = [0]
    wave = [node for node, count in enumerate(remaining) if not count]
    while wave:
        next_wave: list[int] = []
        for node in wave:
            for successor in successors[node]:
                remaining[successor] -= 1
                if not remaining[successor]:
                    next_wave.append(successor)
        order.extend(wave)
        level_bounds.append(len(order))
        wave = next_wave
    if len(order) != len(operands):
        raise UnbatchableGraphError(
            "synchronisation constraints form a cycle; Algorithm 1 would "
            "deadlock on this graph", code=FALLBACK_SYNC_CYCLE)
    position = [0] * len(order)
    for index, node in enumerate(order):
        position[node] = index
    return BatchPlan(
        program=tuple(tuple(sorted(position[column] for column in operands[node]))
                      for node in order),
        task_nodes=np.array(position[:n], dtype=np.int64),
        level_bounds=tuple(level_bounds))


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
    whether the plan ran or the sequential fallback did;
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
    :class:`~repro.core.engine.SimulationSession` of its own, built on the
    first fallback run (:attr:`batchable`, :attr:`fallback_reason` and
    :attr:`fallback_code` report which path is live and why).  It holds
    no reference to the session that opened it, so the two form no
    reference cycle and a released session is freed at once.
    """

    def __init__(self, compiled: CompiledGraph) -> None:
        self.compiled = compiled
        self._fallback: SimulationSession | None = None
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
                if compiled.metadata.get("serving_stream") is not None:
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
