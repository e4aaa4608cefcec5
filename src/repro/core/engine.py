"""The array-backed simulation engine: compile once, simulate many times.

The seed scheduler rebuilt every piece of scheduling state — indegrees,
successor lists, per-stream kernel counts, collective-group membership —
from Python dicts on every call, which made it the hot path of what-if
sweeps that re-simulate one graph hundreds of times with nothing but
kernel durations changing.

This module splits Algorithm 1 into two phases:

* :class:`CompiledGraph` precomputes the immutable structure of an
  execution graph once per topology: dense integer task ids (assigned in
  ``task_id`` order so heap tie-breaking matches the seed scheduler),
  CSR-style successor adjacency, a topological task order (which doubles
  as the cycle check), processor slots, per-stream kernel totals and
  collective-group membership — all as flat numpy arrays.  The edge part
  is array work over the graph's edge arrays: the endpoints map to dense
  indices, the indegrees are a ``bincount`` and the CSR a stable
  ``argsort`` of the sources.  A graph keeps its structure in a compile
  memo that it shares with its clones
  (:meth:`~repro.core.graph.ExecutionGraph.clone`); a clone compiles to
  the shared structure plus its own task tuple and duration vector.  The
  hit is checked against the snapshot taken at compile time: the same
  task ids, the same edge arrays and, per task, the same processor,
  collective group and drained streams; anything else gets a full
  compile.

  A compiled graph keys its tasks on first use (:meth:`CompiledGraph.
  column`: a code per task under a key function, one task per code).
  A declarative what-if's predicate reads only a task's class (kind,
  name, op class, collective and group), so :meth:`CompiledGraph.mask`
  calls it once per class and broadcasts the answers through the class
  column; any other predicate is called on every task.  Columns are kept
  per compiled graph, not in the shared structure, whose bind checks
  neither names nor ``args``.

  A retime (a data-parallel change, a serving re-timing, a hardware
  retarget) changes durations and a few shape args but no task id, edge,
  name or class.  It evaluates one rescale and one args update per code
  of a column of its source and returns a view
  (:meth:`CompiledGraph.retimed`): the source's structure, topology (so
  its batch plan), class column and ``sample_token`` indices with a
  duration vector and metadata of its own.  It compiles nothing, and its
  :attr:`~CompiledGraph.tasks` and :attr:`~CompiledGraph.graph` are built
  only when read.

* :class:`SimulationSession` replays the compiled graph.  It keeps no
  per-run buffers: each :meth:`SimulationSession.run` reads the compiled
  arrays its event loop indexes as Python lists and keeps its state in
  lists, and may swap the duration vector, so a what-if scenario costs
  one array scaling plus one simulation — no graph clone, no dict
  rebuilds, no trace-bundle materialisation.

The engine is bit-identical to the seed scheduler: it performs the same
floating-point operations in the same order, so every start time matches
exactly (``tests/test_engine.py`` asserts this against a verbatim copy of
the seed algorithm, ``tests/reference_simulator.py``).  A
:class:`SessionRun` is the one per-task timing record: it renders its own
Kineto-style trace bundle (:meth:`SessionRun.to_trace_bundle`) for the
analyses that read events, and :func:`~repro.core.critical_path.
critical_path` reads its arrays directly.
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import attrgetter
from typing import Any, Callable, Hashable, NamedTuple, Sequence

import numpy as np

from repro.core.graph import ExecutionGraph, _CompileMemo, edge_csr, topological_sort
from repro.core.serving_metrics import SampleTokens
from repro.core.serving_metrics import sample_tokens as find_sample_tokens
from repro.core.tasks import Task, TaskKind
from repro.observability import tracing as observability
from repro.trace.events import Category, TraceEvent
from repro.trace.kineto import DistributedInfo, KinetoTrace, TraceBundle


class _ClassPredicate:
    """A task predicate that reads only ``(kind, name, op_class, collective,
    group)``, the last three from ``args``: a task's class."""

    __slots__ = ()


def _task_class(task: Task) -> tuple:
    """The class a :class:`_ClassPredicate` reads."""
    args = task.args
    return (task.kind, task.name, args.get("op_class"), args.get("collective"),
            args.get("group"))


class _Retime(NamedTuple):
    """How a retimed view derives from its source.

    Task ``i`` of the view merges ``updates[codes[i]]`` (``None``: nothing)
    into its args; ``codes`` is ``None`` when the retime changes no args.
    """

    source: "CompiledGraph"
    codes: np.ndarray | None
    updates: tuple[dict[str, Any] | None, ...]


@dataclass(frozen=True, eq=False)
class CompiledGraph:
    """Immutable, array-backed structure of one execution graph.

    Dense index ``i`` refers to ``tasks[i]``; dense indices are assigned in
    ascending ``task_id`` order so that ordering by dense index is ordering
    by ``task_id`` (the seed scheduler's heap tie-break).

    A retime's compiled graph is a view of its source's (:meth:`retimed`):
    it shares the structure, the topology, the class column and the
    ``sample_token`` indices, and has its own durations and metadata.  Its
    :attr:`tasks` and :attr:`graph` are built on first read.
    """

    #: Durations (microseconds), dense-indexed.  float64.
    durations: np.ndarray
    #: The graph's metadata (a view's own).
    metadata: dict[str, Any]
    #: ``task_id`` → dense index.
    index_of: dict[int, int]
    #: Fixed-dependency indegree per task.  int32.
    indegree: np.ndarray
    #: CSR successor adjacency: successors of ``i`` are
    #: ``succ_indices[succ_indptr[i]:succ_indptr[i + 1]]``.
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    #: Dense indices in Kahn topological order (ties broken by task id).
    topological: np.ndarray
    #: Processor slot per task (one slot per distinct ``(rank, kind, id)``).
    proc_index: np.ndarray
    n_procs: int
    #: Stream slot per task (GPU tasks only; ``-1`` otherwise).
    stream_slot: np.ndarray
    #: GPU kernel count per stream slot.  int64.
    stream_total: np.ndarray
    n_streams: int
    #: Per-task stream slots a blocking sync waits on (empty for non-sync
    #: tasks; streams with no kernels are dropped at compile time because
    #: they are trivially drained).
    sync_slots: tuple[tuple[int, ...], ...]
    #: Collective-group slot per task (``-1`` when not in a group).
    group_id: np.ndarray
    #: Group members (dense indices, ascending) per group slot.
    group_members: tuple[tuple[int, ...], ...]
    #: The shared structure this graph was compiled from (or matched).
    _topology: "_Topology" = field(repr=False)
    #: What this view retimes; ``None`` for a graph compiled from its tasks.
    _retime: _Retime | None = field(default=None, repr=False)
    #: Columns built on first use (:meth:`column`), and tables a retime
    #: derives from them (keyed by a tuple that starts with the key).
    _columns: dict = field(default_factory=dict, repr=False)

    @property
    def n_tasks(self) -> int:
        return len(self.index_of)

    def __len__(self) -> int:
        return len(self.index_of)

    @cached_property
    def tasks(self) -> tuple[Task, ...]:
        """Tasks in dense-index (ascending ``task_id``) order.

        A view's are its source's, copied where the retime changed a
        duration or args.
        """
        observability.count("engine.materialise")
        source, codes, updates = self._retime
        update_of = repeat(None) if codes is None else map(updates.__getitem__, codes.tolist())
        return tuple(task if update is None and duration == task.duration
                     else _retimed_task(task, duration, update)
                     for task, duration, update in zip(source.tasks, self.durations.tolist(),
                                                       update_of))

    @cached_property
    def graph(self) -> ExecutionGraph:
        """The execution graph; a view's is a clone of its source's."""
        return self._retime.source.graph.clone(metadata=self.metadata,
                                               tasks=dict(zip(self.index_of, self.tasks)))

    def retimed(self, durations: np.ndarray, metadata: dict[str, Any], *,
                codes: np.ndarray | None = None,
                updates: Sequence[dict[str, Any] | None] = ()) -> "CompiledGraph":
        """A view of this graph with ``durations`` and ``metadata`` of its own.

        Task ``i`` of the view merges ``updates[codes[i]]`` into its args
        (``None``: no update; no ``codes``: no task's args change).
        """
        return CompiledGraph(durations=durations, metadata=metadata,
                             _topology=self._topology,
                             _retime=_Retime(self, codes, tuple(updates)),
                             **self._topology.fields)

    def column(self, key: Callable[[Task], Hashable]) -> tuple[np.ndarray, tuple[Task, ...]]:
        """A code per task under ``key`` and one task per code, built on first use.

        Codes take the smallest unsigned dtype that holds them.  A view
        shares its source's column when the retime changes no args or
        ``key`` is the task class; otherwise its code is the pair of its own
        update code and the source's code, so a view never walks its tasks.
        """
        columns = self._columns
        if key not in columns:
            retime = self._retime
            if retime is not None and (retime.codes is None or key is _task_class):
                columns[key] = retime.source.column(key)
            else:
                observability.count(f"engine.column.{key.__name__.lstrip('_')}")
                columns[key] = (self._walk(key) if retime is None
                                else self._pair(key))
        return columns[key]

    def _walk(self, key: Callable[[Task], Hashable]) -> tuple[np.ndarray, tuple[Task, ...]]:
        codes: dict[Hashable, int] = {}
        representatives: list[Task] = []
        column = []
        for task in self.tasks:
            value = key(task)
            code = codes.get(value)
            if code is None:
                code = codes[value] = len(representatives)
                representatives.append(task)
            column.append(code)
        dtype = np.min_scalar_type(len(representatives))
        return np.array(column, dtype=dtype), tuple(representatives)

    def _pair(self, key: Callable[[Task], Hashable]) -> tuple[np.ndarray, tuple[Task, ...]]:
        source, codes, updates = self._retime
        source_codes, source_representatives = source.column(key)
        pairs = codes.astype(np.int64) * len(source_representatives) + source_codes
        _, first, column = np.unique(pairs, return_index=True, return_inverse=True)
        # A pair's task: its source code's, with its update (keys read no duration).
        return column.astype(np.min_scalar_type(len(first))), tuple(
            _retimed_task(source_representatives[source_codes[index]],
                          float(self.durations[index]), updates[codes[index]])
            for index in first.tolist())

    @cached_property
    def sample_tokens(self) -> SampleTokens:
        """The ``sample_token`` kernels serving metrics read, found once.

        A view shares its source's: no retime renames a task.
        """
        if self._retime is not None:
            return self._retime.source.sample_tokens
        observability.count("engine.sample_tokens")
        return find_sample_tokens(self.tasks)

    def mask(self, predicate: Callable[[Task], bool]) -> np.ndarray:
        """Boolean dense-indexed mask of the tasks matching ``predicate``.

        A :class:`_ClassPredicate` is called once per task class; any other
        callable on every task.
        """
        if isinstance(predicate, _ClassPredicate):
            observability.count("whatif.mask.by_class")
            column, representatives = self.column(_task_class)
            return np.fromiter(map(predicate, representatives), dtype=bool,
                               count=len(representatives))[column]
        observability.count("whatif.mask.by_task")
        return np.fromiter(map(predicate, self.tasks), dtype=bool,
                           count=self.n_tasks)

    def scaled_durations(self, predicate: Callable[[Task], bool],
                         speedup: float) -> tuple[np.ndarray, int]:
        """Base durations with matching tasks rescaled by ``1/speedup``.

        Returns the new duration vector and the number of affected tasks; a
        ``speedup`` of ``float("inf")`` zeroes the matching durations.  The
        arithmetic matches the seed what-if path (per-element division)
        exactly.
        """
        if not speedup > 0:  # NaN fails too
            raise ValueError("speedup must be positive")
        durations = self.durations.copy()
        mask = self.mask(predicate)
        if speedup == float("inf"):
            durations[mask] = 0.0
        else:
            durations[mask] = durations[mask] / speedup
        return durations, int(mask.sum())


def _retimed_task(task: Task, duration: float, update: dict[str, Any] | None) -> Task:
    """A copy of ``task`` with ``duration`` and ``update`` merged into its args."""
    task = task.copy()
    task.duration = duration
    for name, value in (update or {}).items():
        task.args[name] = list(value) if isinstance(value, list) else value
    return task


def as_compiled(graph: "ExecutionGraph | CompiledGraph") -> "CompiledGraph":
    """``graph`` if it is compiled, else :func:`compile_graph` of it."""
    return graph if isinstance(graph, CompiledGraph) else compile_graph(graph)


#: The raw attributes a task's processor is a function of.
_PLACEMENT = attrgetter("kind", "rank", "thread", "stream")
_GROUP = attrgetter("collective_group")
_SYNC = attrgetter("sync_streams")
_DURATION = attrgetter("duration")


@dataclass(eq=False, slots=True)
class _Topology:
    """The compiled structure of one topology, kept in a graph's compile memo.

    ``fields`` are :class:`CompiledGraph`'s structural fields.  Their task
    ids (``index_of``), copies of the two edge id arrays and the slot maps
    (placement, stream and collective group to slot) are the snapshot
    taken at compile time that :meth:`bind` checks a graph against.
    ``plan`` holds the topology's batch plan or its refusal once one is built
    (:mod:`repro.core.batch`).  Nothing here references a graph or a task.
    """

    edge_src: array
    edge_dst: array
    placements: dict[tuple, int]
    streams: dict[tuple[int, int], int]
    groups: dict[str, int]
    fields: dict[str, Any]
    plan: Any = None

    def bind(self, graph: ExecutionGraph) -> CompiledGraph | None:
        """``graph`` compiled onto this structure, or ``None`` if it differs.

        A graph matches when it has the same task ids, the same edge
        arrays and, per task, the same processor, collective group and
        drained streams; only its task tuple and duration vector are new.
        """
        fields = self.fields
        index_of = fields["index_of"]
        if (graph.tasks.keys() != index_of.keys()
                or graph.edge_src != self.edge_src
                or graph.edge_dst != self.edge_dst):
            return None
        tasks = tuple(map(graph.tasks.__getitem__, index_of))
        n = len(tasks)
        if not (np.array_equal(_slots(self.placements, map(_PLACEMENT, tasks), n),
                               fields["proc_index"])
                and np.array_equal(_slots(self.groups, map(_GROUP, tasks), n),
                                   fields["group_id"])):
            return None
        sync_slots = fields["sync_slots"]
        syncing = set(compress(range(n), map(_SYNC, tasks)))
        for index in syncing.union(compress(range(n), sync_slots)):
            if _sync_slots(tasks[index], self.streams) != sync_slots[index]:
                return None
        return _bound(graph, tasks, self)


def _slots(slot_of: dict, keys, n: int) -> np.ndarray:
    """Slot of every key (``-1`` for a key the map lacks)."""
    return np.fromiter(map(slot_of.get, keys, repeat(-1)), dtype=np.int64, count=n)


def _sync_slots(task: Task, streams: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """Stream slots a blocking sync waits on (streams without kernels drop)."""
    return tuple(streams[(task.rank, stream)] for stream in task.sync_streams
                 if (task.rank, stream) in streams)


def _bound(graph: ExecutionGraph, tasks: tuple[Task, ...],
           topology: _Topology) -> CompiledGraph:
    """``graph``, whose dense-ordered ``tasks`` match ``topology``, compiled."""
    compiled = CompiledGraph(
        durations=np.fromiter(map(_DURATION, tasks), dtype=np.float64, count=len(tasks)),
        metadata=graph.metadata, _topology=topology, **topology.fields)
    compiled.__dict__.update(graph=graph, tasks=tasks)
    return compiled


def compile_graph(graph: ExecutionGraph) -> CompiledGraph:
    """Precompute the immutable scheduling structure of ``graph``.

    The structure is built once per topology: it is kept in the graph's
    compile memo, which :meth:`ExecutionGraph.clone` shares, and a graph
    that matches it (see :meth:`_Topology.bind`) reuses it.

    Raises ``RuntimeError`` when the fixed dependencies contain a cycle
    (the seed scheduler reported this at run time; compiling surfaces it
    up front via the topological sort), and ``ValueError`` when an edge
    references a task the graph no longer has.
    """
    with observability.trace_span("engine.compile_graph",
                                  tasks=len(graph.tasks)) as span:
        memo = graph._compile_memo
        topology = None if memo is None else memo.topology
        compiled = None if topology is None else topology.bind(graph)
        span.set(shared=compiled is not None)
        if compiled is not None:
            observability.count("engine.compile.shared")
            return compiled
        observability.count("engine.compile.full")
        compiled = _compile_graph(graph)
        if memo is None or topology is not None:
            # Unmemoized, or no longer the structure its memo (and the
            # clones sharing it) holds: start a memo of its own.
            graph._compile_memo = memo = _CompileMemo()
        memo.topology = compiled._topology
        return compiled


def _compile_graph(graph: ExecutionGraph) -> CompiledGraph:
    ids, src, dst = graph.dense_edges()
    task_ids = ids.tolist()
    tasks = tuple(map(graph.tasks.__getitem__, task_ids))
    index_of = dict(zip(task_ids, range(len(task_ids))))
    n = len(tasks)

    indegree = np.bincount(dst, minlength=n).astype(np.int32)
    succ_indptr, succ_indices = edge_csr(src, dst, n)

    # ``task.processor`` is evaluated once per distinct placement (the raw
    # attributes it derives from); the placement-to-slot map is also what
    # a later compile checks a graph's tasks against.
    processors: dict[tuple, int] = {}
    placements: dict[tuple, int] = {}
    task_placements = list(map(_PLACEMENT, tasks))
    for placement, task in zip(task_placements, tasks):
        if placement not in placements:
            placements[placement] = processors.setdefault(task.processor,
                                                          len(processors))
    proc_index = _slots(placements, task_placements, n)

    streams: dict[tuple[int, int], int] = {}
    stream_slot = np.full(n, -1, dtype=np.int64)
    stream_counts: list[int] = []
    for index, task in enumerate(tasks):
        if task.kind == TaskKind.GPU:
            key = (task.rank, int(task.stream))
            slot = streams.setdefault(key, len(streams))
            if slot == len(stream_counts):
                stream_counts.append(0)
            stream_counts[slot] += 1
            stream_slot[index] = slot
    stream_total = np.asarray(stream_counts, dtype=np.int64)

    sync_slots = [_sync_slots(task, streams) if task.sync_streams else ()
                  for task in tasks]

    groups: dict[str, int] = {}
    group_id = np.full(n, -1, dtype=np.int64)
    members: list[list[int]] = []
    for index, task in enumerate(tasks):
        if task.collective_group is not None:
            slot = groups.setdefault(task.collective_group, len(groups))
            if slot == len(members):
                members.append([])
            members[slot].append(index)
            group_id[index] = slot
    group_members = tuple(tuple(member_list) for member_list in members)

    topological = topological_sort(indegree, succ_indptr, succ_indices)
    if len(topological) != n:
        on_cycle = sorted(set(range(n)) - set(topological.tolist()))
        names = [tasks[index].name for index in on_cycle[:10]]
        raise RuntimeError(
            f"execution graph contains a dependency cycle through "
            f"{len(on_cycle)} tasks (first: {names})"
        )

    fields = dict(
        index_of=index_of,
        indegree=indegree,
        succ_indptr=succ_indptr,
        succ_indices=succ_indices,
        topological=topological,
        proc_index=proc_index,
        n_procs=len(processors),
        stream_slot=stream_slot,
        stream_total=stream_total,
        n_streams=len(streams),
        sync_slots=tuple(sync_slots),
        group_id=group_id,
        group_members=group_members,
    )
    topology = _Topology(graph.edge_src[:], graph.edge_dst[:], placements, streams,
                         groups, fields)
    return _bound(graph, tasks, topology)


@dataclass(frozen=True)
class SessionRun:
    """Timings of one :meth:`SimulationSession.run` call, as flat arrays.

    ``starts``/``durations`` are dense-indexed (``compiled.tasks`` order);
    ``finalize_order`` records the order tasks were scheduled in (the seed
    scheduler's result order), which :meth:`to_trace_bundle` walks.
    """

    compiled: CompiledGraph
    start_time: float
    starts: np.ndarray
    durations: np.ndarray
    finalize_order: np.ndarray

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.durations

    def end_time(self) -> float:
        if len(self.starts) == 0:
            return self.start_time
        return float(self.ends.max())

    def total_time(self) -> float:
        return self.end_time() - self.start_time

    @property
    def iteration_time_us(self) -> float:
        """Global span (earliest start to latest end) in microseconds.

        The iteration time of every replay and prediction.  The rendered
        trace bundle wraps each rank's events in one profiler-step
        annotation, so its ``iteration_time()`` is the same span.
        """
        if len(self.starts) == 0:
            return 0.0
        return float(self.ends.max() - self.starts.min())

    def to_trace_bundle(self) -> TraceBundle:
        """Render the run as a Kineto-style trace bundle.

        The output mirrors the input trace (§3.5: "the simulation generates
        a trace similar to the input trace initially profiled from the real
        run"), so every downstream analysis — breakdowns, SM utilisation,
        timeline export — runs identically on real and simulated traces.
        Each rank's events are wrapped in one profiler-step annotation;
        events with the same start and duration keep their scheduling
        (``finalize_order``) order.
        """
        tasks = self.compiled.tasks
        starts = self.starts.tolist()
        durations = self.durations.tolist()
        per_rank: dict[int, list[TraceEvent]] = defaultdict(list)
        for index in self.finalize_order.tolist():
            task = tasks[index]
            if task.kind == TaskKind.GPU:
                category = task.category or Category.KERNEL
                tid = int(task.stream)
            else:
                category = task.category or Category.CPU_OP
                tid = int(task.thread)
            per_rank[task.rank].append(TraceEvent(
                name=task.name, cat=category, ts=starts[index], dur=durations[index],
                pid=task.rank, tid=tid, args=dict(task.args),
            ))
        bundle = TraceBundle(metadata={"simulated": True})
        for rank, events in per_rank.items():
            start = min(e.ts for e in events)
            end = max(e.end for e in events)
            events.append(TraceEvent(name="ProfilerStep#0", cat=Category.USER_ANNOTATION,
                                     ts=start, dur=end - start, pid=rank, tid=0,
                                     args={"simulated": True}))
            bundle.add(KinetoTrace(rank=rank, events=events,
                                   distributed=DistributedInfo(rank=rank,
                                                               world_size=len(per_rank)),
                                   metadata={"simulated": True}))
        return bundle


class SimulationSession:
    """A reusable Algorithm 1 runner over one compiled graph.

    The session owns no per-run buffers: each :meth:`run` reads the
    compiled arrays it indexes per event as Python lists (converted at the
    start of the run, never cached) and keeps its state in lists, so the
    event loop handles plain floats and ints.  Passing ``durations`` swaps
    the kernel-duration vector without touching the graph.
    """

    def __init__(self, compiled: CompiledGraph) -> None:
        self.compiled = compiled
        self._batch = None

    def run(self, durations: Sequence[float] | np.ndarray | None = None,
            start_time: float = 0.0) -> SessionRun:
        """Simulate the compiled graph and return flat per-task timings.

        Parameters
        ----------
        durations:
            Optional replacement duration vector (dense-indexed, same
            length as the compiled task list).  ``None`` replays the base
            durations.
        start_time:
            Simulated time every processor becomes available at.
        """
        compiled = self.compiled
        n = compiled.n_tasks
        start_time = float(start_time)
        if durations is None:
            duration_vector = compiled.durations
        else:
            duration_vector = np.ascontiguousarray(durations, dtype=np.float64)
            if duration_vector.shape != (n,):
                raise ValueError(
                    f"duration vector has shape {duration_vector.shape}, "
                    f"expected ({n},)")
        if n == 0:
            return SessionRun(compiled=compiled, start_time=start_time,
                              starts=np.zeros(0), durations=np.zeros(0),
                              finalize_order=np.zeros(0, dtype=np.int64))

        duration = duration_vector.tolist()
        indptr = compiled.succ_indptr.tolist()
        indices = compiled.succ_indices.tolist()
        proc_index = compiled.proc_index.tolist()
        stream_slot = compiled.stream_slot.tolist()
        group_id = compiled.group_id.tolist()
        stream_total = compiled.stream_total.tolist()
        sync_slots = compiled.sync_slots
        group_members = compiled.group_members

        ready = [start_time] * n
        starts = [0.0] * n
        scheduled = [False] * n
        indegree = compiled.indegree.tolist()
        proc_available = [start_time] * compiled.n_procs
        stream_finished = [0] * compiled.n_streams
        stream_last_end = [start_time] * compiled.n_streams
        group_value = [0.0] * n
        group_seen = [False] * n
        group_count = [0] * len(group_members)
        waiting: list[list[int]] = [[] for _ in range(compiled.n_streams)]
        order: list[int] = []

        heap: list[tuple[float, int]] = [
            (start_time, index) for index in np.flatnonzero(compiled.indegree == 0).tolist()
        ]
        heapq.heapify(heap)

        def sync_ready_time(index: int, base: float) -> float:
            latest = base
            for slot in sync_slots[index]:
                latest = max(latest, stream_last_end[slot])
            return latest

        def finalize(index: int, at: float) -> None:
            processor = proc_index[index]
            available = proc_available[processor]
            # ``max(at, available)`` without the call: the same comparison.
            begin = available if available > at else at
            starts[index] = begin
            end = begin + duration[index]
            scheduled[index] = True
            order.append(index)
            proc_available[processor] = end
            slot = stream_slot[index]
            if slot >= 0:
                stream_finished[slot] += 1
                if end > stream_last_end[slot]:
                    stream_last_end[slot] = end
                if stream_finished[slot] >= stream_total[slot]:
                    parked, waiting[slot] = waiting[slot], []
                    for sync_index in parked:
                        if scheduled[sync_index]:
                            continue
                        if all(stream_finished[pending] >= stream_total[pending]
                               for pending in sync_slots[sync_index]):
                            heapq.heappush(heap, (
                                sync_ready_time(sync_index, ready[sync_index]),
                                sync_index))
                        else:
                            for pending in sync_slots[sync_index]:
                                if stream_finished[pending] < stream_total[pending]:
                                    waiting[pending].append(sync_index)
                                    break
            for successor in indices[indptr[index]:indptr[index + 1]]:
                if end > ready[successor]:
                    ready[successor] = end
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    heapq.heappush(heap, (ready[successor], successor))

        while heap:
            _, index = heapq.heappop(heap)
            if scheduled[index]:
                continue

            # Runtime dependencies (GPU → CPU synchronisation).
            slots = sync_slots[index]
            if slots:
                if not all(stream_finished[slot] >= stream_total[slot]
                           for slot in slots):
                    for slot in slots:
                        if stream_finished[slot] < stream_total[slot]:
                            waiting[slot].append(index)
                            break
                    continue
                ready[index] = sync_ready_time(index, ready[index])

            # Collective alignment (cross-rank point-to-point pairs).
            group = group_id[index]
            if group >= 0:
                group_value[index] = max(ready[index],
                                         proc_available[proc_index[index]])
                if not group_seen[index]:
                    group_seen[index] = True
                    group_count[group] += 1
                members = group_members[group]
                if group_count[group] < len(members):
                    continue
                common_start = max(group_value[member] for member in members)
                for member in members:
                    finalize(member, common_start)
                continue

            finalize(index, ready[index])

        if len(order) != n:
            missing = [compiled.tasks[index].name for index in range(n)
                       if not scheduled[index]][:10]
            raise RuntimeError(
                f"simulation did not schedule {n - len(order)} of {n} tasks "
                f"(first missing: {missing}); the graph may contain a cycle or an "
                f"unsatisfiable synchronisation"
            )

        return SessionRun(compiled=compiled, start_time=start_time,
                          starts=np.array(starts, dtype=np.float64),
                          durations=duration_vector.copy(),
                          finalize_order=np.array(order, dtype=np.int64))

    def batch_session(self):
        """The (lazily built) batched runner over this session's graph.

        See :mod:`repro.core.batch`: the returned
        :class:`~repro.core.batch.BatchSession` simulates a whole
        ``(B, n_tasks)`` duration matrix with the topology's batch plan
        when the graph's schedule is provably duration-independent, and
        falls back to per-scenario sequential runs otherwise.
        """
        if self._batch is None:
            from repro.core.batch import BatchSession

            self._batch = BatchSession(self.compiled)
        return self._batch

    def run_batch(self, durations: "Sequence[Sequence[float]] | np.ndarray",
                  start_time: float = 0.0):
        """Simulate a batch of duration vectors (one scenario per row).

        Returns a :class:`~repro.core.batch.BatchRun` whose rows are
        bit-identical to ``[self.run(durations=row, start_time=start_time)
        for row in durations]`` — every start time matches exactly.
        """
        return self.batch_session().run(durations, start_time=start_time)
