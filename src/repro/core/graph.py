"""The task-level execution graph.

A graph is its tasks, keyed by id, plus its edges, stored once as three
flat int arrays: ``edge_src`` and ``edge_dst`` hold task ids and
``edge_type`` holds :class:`DependencyType` codes (code ``i`` is
``DEPENDENCY_TYPES[i]``), all appended in place.  No per-edge object is
stored.  Adjacency queries (:meth:`ExecutionGraph.successors`,
:meth:`~ExecutionGraph.predecessors`,
:meth:`~ExecutionGraph.topological_order`) read one CSR built from the
arrays on first use; the compiler (:mod:`repro.core.engine`) builds its
own from the same arrays with the same helpers.
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

import numpy as np

from repro.core.tasks import DependencyType, Task, TaskKind

#: The :class:`DependencyType` of each ``edge_type`` code.
DEPENDENCY_TYPES: tuple[DependencyType, ...] = tuple(DependencyType)
_CODE_OF = {dep_type: code for code, dep_type in enumerate(DEPENDENCY_TYPES)}


class Dependency(NamedTuple):
    """A directed edge ``src → dst`` with its dependency class.

    A read view: :attr:`ExecutionGraph.dependencies` builds these from the
    edge arrays on each call, and the graph stores none.
    """

    src: int
    dst: int
    dep_type: DependencyType


def edge_csr(keys: np.ndarray, values: np.ndarray,
             n: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` grouped by ``keys`` (dense indices below ``n``) as a CSR.

    The entries of key ``i`` are ``grouped[indptr[i]:indptr[i + 1]]``, in
    their original order (a stable argsort).
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, values[np.argsort(keys, kind="stable")]


def topological_sort(indegree: np.ndarray, indptr: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
    """Kahn order of a CSR graph's dense indices, ties broken by index.

    Shorter than the graph when the edges contain a cycle.
    """
    remaining = indegree.tolist()
    bounds = indptr.tolist()
    successors = indices.tolist()
    heap = np.flatnonzero(indegree == 0).tolist()
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        index = heapq.heappop(heap)
        order.append(index)
        for successor in successors[bounds[index]:bounds[index + 1]]:
            remaining[successor] -= 1
            if remaining[successor] == 0:
                heapq.heappush(heap, successor)
    return np.array(order, dtype=np.int64)


def _positions(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each of ``values`` in the sorted ``ids`` (``-1`` if absent)."""
    if len(ids) == 0:
        return np.full(len(values), -1, dtype=np.int64)
    positions = np.minimum(np.searchsorted(ids, values), len(ids) - 1)
    return np.where(ids[positions] == values, positions, -1)


def _neighbours(ids: np.ndarray, task_id: int, indptr: np.ndarray,
                neighbours: np.ndarray) -> list[int]:
    """Task ids of ``task_id``'s CSR segment (empty for an unknown task)."""
    index = _positions(ids, np.array([task_id], dtype=np.int64))[0]
    return [] if index < 0 else ids[neighbours[indptr[index]:indptr[index + 1]]].tolist()


class _Adjacency(NamedTuple):
    """Both CSRs of a graph's edges over dense indices (``ids[i]`` is task ``i``)."""

    ids: np.ndarray
    succ_indptr: np.ndarray
    succ: np.ndarray
    pred_indptr: np.ndarray
    pred: np.ndarray


class _CompileMemo:
    """The slot :func:`repro.core.engine.compile_graph` keeps a topology in.

    A graph and its clones (:meth:`ExecutionGraph.clone`) share one memo,
    so whichever of them compiles first compiles for all.  It holds no
    graph and no :class:`Task`: only the structure and the snapshot a later
    compile checks against.
    """

    __slots__ = ("topology",)

    def __init__(self) -> None:
        self.topology: Any = None


@dataclass
class ExecutionGraph:
    """Tasks plus typed dependencies for one (or several) ranks.

    The graph is the central artifact of Lumos: it is built from profiling
    traces, replayed by the simulator, and manipulated to derive graphs for
    new configurations.  Edge ``k`` runs from task ``edge_src[k]`` to task
    ``edge_dst[k]`` with class ``DEPENDENCY_TYPES[edge_type[k]]``; append
    edges with :meth:`add_dependency` or :meth:`add_dependencies`, never
    to the arrays directly.
    """

    tasks: dict[int, Task] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)
    edge_src: array = field(default_factory=lambda: array("q"), repr=False)
    edge_dst: array = field(default_factory=lambda: array("q"), repr=False)
    edge_type: array = field(default_factory=lambda: array("b"), repr=False)
    _next_id: int = 0
    #: Compile memo shared with clones; ``None`` until compiled or cloned.
    #: Every ``add_*`` call detaches it, and it is never pickled.
    _compile_memo: _CompileMemo | None = field(default=None, repr=False,
                                               compare=False)
    #: Adjacency CSR; ``None`` until a query builds it.  Every ``add_*``
    #: call drops it, and it is never pickled.
    _adjacency_csr: _Adjacency | None = field(default=None, repr=False,
                                              compare=False)

    def __getstate__(self) -> dict[str, Any]:
        # Unpickled graphs read the fields' class-level defaults (None).
        state = dict(self.__dict__)
        state.pop("_compile_memo", None)
        state.pop("_adjacency_csr", None)
        return state

    def _changed(self) -> None:
        """Drop the compile memo and the CSR (a task or an edge was added)."""
        self._compile_memo = None
        self._adjacency_csr = None

    # -- construction -----------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Insert ``task`` (assigning a fresh id if its id collides or is negative)."""
        if task.task_id < 0 or task.task_id in self.tasks:
            task.task_id = self._next_id
        self.tasks[task.task_id] = task
        self._next_id = max(self._next_id, task.task_id + 1)
        self._changed()
        return task

    def add_dependency(self, src: int, dst: int, dep_type: DependencyType) -> None:
        """Add a typed edge from task ``src`` to task ``dst``."""
        if src not in self.tasks or dst not in self.tasks:
            raise KeyError(f"dependency {src}->{dst} references unknown tasks")
        if src == dst:
            raise ValueError(f"self dependency on task {src}")
        code = _CODE_OF[dep_type]
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_type.append(code)
        self._changed()

    def add_dependencies(self, src, dst, types) -> None:
        """Add many typed edges: the checks of :meth:`add_dependency`, vectorised.

        ``src``/``dst`` are task ids and ``types`` ``edge_type`` codes, as
        equal-length int sequences.  If any edge fails a check, none is
        added.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        codes = np.asarray(types, dtype=np.int64)
        if not src.shape == dst.shape == codes.shape or src.ndim != 1:
            raise ValueError("src, dst and types must be equal-length 1-D sequences")
        missing = _positions(self._sorted_ids(), np.concatenate((src, dst))) < 0
        if missing.any():
            edge = int(np.flatnonzero(missing)[0]) % len(src)
            raise KeyError(f"dependency {src[edge]}->{dst[edge]} references "
                           f"unknown tasks")
        looped = np.flatnonzero(src == dst)
        if len(looped):
            raise ValueError(f"self dependency on task {src[looped[0]]}")
        if ((codes < 0) | (codes >= len(DEPENDENCY_TYPES))).any():
            raise ValueError("unknown dependency type code")
        self.edge_src.frombytes(src.tobytes())
        self.edge_dst.frombytes(dst.tobytes())
        self.edge_type.frombytes(codes.astype(np.int8).tobytes())
        self._changed()

    def clone(self, *, metadata: dict[str, Any] | None = None,
              tasks: dict[int, Task] | None = None) -> "ExecutionGraph":
        """Structural copy: every task cloned (ids preserved), edges copied.

        The three edge arrays are copied whole (a memcpy).  For a graph
        that changes only task attributes (e.g. a retime's view, built
        into a graph when read) this is much cheaper than re-adding every
        task and edge.  ``tasks`` substitutes a pre-built task map with the
        same ids — a caller doing copy-on-write can share the unchanged
        task objects outright instead of paying a copy per task.

        The clone shares this graph's compile memo, so a clone whose tasks
        keep their scheduling attributes compiles by reusing the structure
        (:func:`~repro.core.engine.compile_graph` checks that first);
        adding a task or an edge to either graph detaches it from the memo.
        """
        if self._compile_memo is None:
            self._compile_memo = _CompileMemo()
        clone = ExecutionGraph(
            metadata=dict(self.metadata if metadata is None else metadata),
            edge_src=self.edge_src[:], edge_dst=self.edge_dst[:],
            edge_type=self.edge_type[:], _next_id=self._next_id)
        clone.tasks = (dict(tasks) if tasks is not None else
                       {task_id: task.copy() for task_id, task in self.tasks.items()})
        clone._compile_memo = self._compile_memo
        return clone

    # -- edges ------------------------------------------------------------------

    @property
    def dependencies(self) -> list[Dependency]:
        """Every edge as a :class:`Dependency`, in insertion order.

        A read view for analyses and tests, built from the arrays on each
        call; library code reads the arrays.
        """
        return list(map(Dependency, self.edge_src, self.edge_dst,
                        map(DEPENDENCY_TYPES.__getitem__, self.edge_type)))

    def _sorted_ids(self) -> np.ndarray:
        ids = np.fromiter(self.tasks, dtype=np.int64, count=len(self.tasks))
        ids.sort()
        return ids

    def dense_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, src, dst)``: the sorted task ids, and each edge's endpoints
        as indices into them.

        Raises ``ValueError`` when an endpoint is not a task of the graph.
        """
        ids = self._sorted_ids()
        src = _positions(ids, np.array(self.edge_src, dtype=np.int64))
        dst = _positions(ids, np.array(self.edge_dst, dtype=np.int64))
        if (src < 0).any() or (dst < 0).any():
            raise ValueError("dependency references a missing task")
        return ids, src, dst

    def _adjacency(self) -> _Adjacency:
        if self._adjacency_csr is None:
            ids, src, dst = self.dense_edges()
            self._adjacency_csr = _Adjacency(ids, *edge_csr(src, dst, len(ids)),
                                             *edge_csr(dst, src, len(ids)))
        return self._adjacency_csr

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def task_list(self) -> list[Task]:
        """All tasks sorted by original trace timestamp."""
        return sorted(self.tasks.values(), key=lambda t: (t.trace_ts, t.task_id))

    def successors(self, task_id: int) -> list[int]:
        """Destinations of ``task_id``'s edges, in insertion order."""
        csr = self._adjacency()
        return _neighbours(csr.ids, task_id, csr.succ_indptr, csr.succ)

    def predecessors(self, task_id: int) -> list[int]:
        """Sources of the edges into ``task_id``, in insertion order."""
        csr = self._adjacency()
        return _neighbours(csr.ids, task_id, csr.pred_indptr, csr.pred)

    def ranks(self) -> list[int]:
        return sorted({task.rank for task in self.tasks.values()})

    def cpu_tasks(self, rank: int | None = None) -> list[Task]:
        return [t for t in self.task_list()
                if t.kind == TaskKind.CPU and (rank is None or t.rank == rank)]

    def gpu_tasks(self, rank: int | None = None) -> list[Task]:
        return [t for t in self.task_list()
                if t.kind == TaskKind.GPU and (rank is None or t.rank == rank)]

    def streams(self, rank: int) -> list[int]:
        return sorted({int(t.stream) for t in self.tasks.values()
                       if t.kind == TaskKind.GPU and t.rank == rank})

    def tasks_on_stream(self, rank: int, stream: int) -> list[Task]:
        """GPU tasks of one stream in trace (enqueue) order."""
        tasks = [t for t in self.tasks.values()
                 if t.kind == TaskKind.GPU and t.rank == rank and t.stream == stream]
        tasks.sort(key=lambda t: (t.trace_ts, t.task_id))
        return tasks

    def dependency_counts(self) -> dict[DependencyType, int]:
        """Number of edges of each dependency class."""
        counts = np.bincount(np.array(self.edge_type, dtype=np.int64),
                             minlength=len(DEPENDENCY_TYPES))
        return dict(zip(DEPENDENCY_TYPES, counts.tolist()))

    def collective_groups(self) -> dict[str, list[int]]:
        """Cross-rank collective groups: key → member task ids."""
        groups: dict[str, list[int]] = defaultdict(list)
        for task in self.tasks.values():
            if task.collective_group is not None:
                groups[task.collective_group].append(task.task_id)
        return dict(groups)

    # -- structural checks ---------------------------------------------------------

    def is_acyclic(self) -> bool:
        """True when the dependency edges form a DAG."""
        return len(self.topological_order()) == len(self.tasks)

    def topological_order(self) -> list[int]:
        """Kahn topological order, ties broken by task id (partial on a cycle)."""
        csr = self._adjacency()
        order = topological_sort(np.diff(csr.pred_indptr), csr.succ_indptr, csr.succ)
        return csr.ids[order].tolist()

    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is structurally unsound."""
        self.dense_edges()
        if not self.is_acyclic():
            raise ValueError("execution graph contains a dependency cycle")

    def subgraph_for_ranks(self, ranks: Iterable[int]) -> "ExecutionGraph":
        """A copy containing only the tasks/edges of the given ranks.

        Every kept task and edge is re-added under a fresh id, so with all
        ranks (``graph.subgraph_for_ranks(graph.ranks())``) this is a full,
        independent copy — unlike :meth:`clone`, which shares the topology.
        """
        wanted = set(ranks)
        subgraph = ExecutionGraph(metadata=dict(self.metadata))
        old_ids: list[int] = []
        new_ids: list[int] = []
        for task in self.task_list():
            if task.rank in wanted:
                clone = task.copy()
                clone.task_id = -1
                old_ids.append(task.task_id)
                new_ids.append(subgraph.add_task(clone).task_id)
        # Rename the edges through the id table; those leaving the kept
        # ranks map to -1 and are dropped.
        old = np.asarray(old_ids, dtype=np.int64)
        order = np.argsort(old)
        renamed = np.append(np.asarray(new_ids, dtype=np.int64)[order], -1)
        src = renamed[_positions(old[order], np.array(self.edge_src, dtype=np.int64))]
        dst = renamed[_positions(old[order], np.array(self.edge_dst, dtype=np.int64))]
        kept = (src >= 0) & (dst >= 0)
        subgraph.add_dependencies(src[kept], dst[kept],
                                  np.array(self.edge_type, dtype=np.int8)[kept])
        return subgraph
