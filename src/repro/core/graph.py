"""The task-level execution graph."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.tasks import DependencyType, Task, TaskKind


@dataclass(frozen=True)
class Dependency:
    """A directed edge ``src → dst`` with its dependency class."""

    src: int
    dst: int
    dep_type: DependencyType


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
    new configurations.
    """

    tasks: dict[int, Task] = field(default_factory=dict)
    dependencies: list[Dependency] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    _successors: dict[int, list[int]] = field(
        default_factory=lambda: defaultdict(list), repr=False)
    _predecessors: dict[int, list[int]] = field(
        default_factory=lambda: defaultdict(list), repr=False)
    _next_id: int = 0
    #: Compile memo shared with clones; ``None`` until compiled or cloned.
    #: :meth:`add_task`/:meth:`add_dependency` detach it, and it is never
    #: pickled.
    _compile_memo: _CompileMemo | None = field(default=None, repr=False,
                                               compare=False)

    def __getstate__(self) -> dict[str, Any]:
        # Unpickled graphs read the field's class-level default (None).
        state = dict(self.__dict__)
        state.pop("_compile_memo", None)
        return state

    # -- construction -----------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Insert ``task`` (assigning a fresh id if its id collides or is negative)."""
        if task.task_id < 0 or task.task_id in self.tasks:
            task.task_id = self._next_id
        self.tasks[task.task_id] = task
        self._next_id = max(self._next_id, task.task_id + 1)
        self._compile_memo = None
        return task

    def add_dependency(self, src: int, dst: int, dep_type: DependencyType) -> None:
        """Add a typed edge from task ``src`` to task ``dst``."""
        if src not in self.tasks or dst not in self.tasks:
            raise KeyError(f"dependency {src}->{dst} references unknown tasks")
        if src == dst:
            raise ValueError(f"self dependency on task {src}")
        self.dependencies.append(Dependency(src=src, dst=dst, dep_type=dep_type))
        self._successors[src].append(dst)
        self._predecessors[dst].append(src)
        self._compile_memo = None

    def clone(self, *, metadata: dict[str, Any] | None = None,
              tasks: dict[int, Task] | None = None) -> "ExecutionGraph":
        """Structural copy: every task cloned (ids preserved), topology shared.

        :class:`Dependency` objects are immutable so the edge list and the
        adjacency maps are copied shallowly.  For manipulations that change
        only task attributes (e.g. a hardware retarget rescaling durations)
        this is much cheaper than re-adding every task and edge.  ``tasks``
        substitutes a pre-built task map with the same ids — a caller doing
        copy-on-write can share the unchanged task objects outright instead
        of paying a copy per task.

        The clone shares this graph's compile memo, so a clone whose tasks
        keep their scheduling attributes compiles by reusing the structure
        (:func:`~repro.core.engine.compile_graph` checks that first);
        adding a task or an edge to either graph detaches it from the memo.
        """
        if self._compile_memo is None:
            self._compile_memo = _CompileMemo()
        clone = ExecutionGraph(
            metadata=dict(self.metadata if metadata is None else metadata))
        clone.tasks = (dict(tasks) if tasks is not None else
                       {task_id: task.copy() for task_id, task in self.tasks.items()})
        clone.dependencies = list(self.dependencies)
        clone._successors = defaultdict(
            list, {src: list(dsts) for src, dsts in self._successors.items()})
        clone._predecessors = defaultdict(
            list, {dst: list(srcs) for dst, srcs in self._predecessors.items()})
        clone._next_id = self._next_id
        clone._compile_memo = self._compile_memo
        return clone

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def task_list(self) -> list[Task]:
        """All tasks sorted by original trace timestamp."""
        return sorted(self.tasks.values(), key=lambda t: (t.trace_ts, t.task_id))

    def successors(self, task_id: int) -> list[int]:
        return list(self._successors.get(task_id, ()))

    def predecessors(self, task_id: int) -> list[int]:
        return list(self._predecessors.get(task_id, ()))

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

    def tasks_on_thread(self, rank: int, thread: int) -> list[Task]:
        """CPU tasks of one thread in trace order."""
        tasks = [t for t in self.tasks.values()
                 if t.kind == TaskKind.CPU and t.rank == rank and t.thread == thread]
        tasks.sort(key=lambda t: (t.trace_ts, t.task_id))
        return tasks

    def dependency_counts(self) -> dict[DependencyType, int]:
        """Number of edges of each dependency class."""
        counts: dict[DependencyType, int] = {dep_type: 0 for dep_type in DependencyType}
        for dependency in self.dependencies:
            counts[dependency.dep_type] += 1
        return counts

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
        """Kahn topological order (may be partial if the graph has cycles)."""
        indegree = {task_id: 0 for task_id in self.tasks}
        for dependency in self.dependencies:
            indegree[dependency.dst] += 1
        queue = deque(sorted(task_id for task_id, degree in indegree.items() if degree == 0))
        order: list[int] = []
        while queue:
            task_id = queue.popleft()
            order.append(task_id)
            for successor in self._successors.get(task_id, ()):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        return order

    def validate(self) -> None:
        """Raise ``ValueError`` if the graph is structurally unsound."""
        if not self.is_acyclic():
            raise ValueError("execution graph contains a dependency cycle")
        for dependency in self.dependencies:
            if dependency.src not in self.tasks or dependency.dst not in self.tasks:
                raise ValueError("dependency references a missing task")

    def subgraph_for_ranks(self, ranks: Iterable[int]) -> "ExecutionGraph":
        """A copy containing only the tasks/edges of the given ranks.

        Every kept task and edge is re-added under a fresh id, so with all
        ranks (``graph.subgraph_for_ranks(graph.ranks())``) this is a full,
        independent copy — unlike :meth:`clone`, which shares the topology.
        """
        wanted = set(ranks)
        subgraph = ExecutionGraph(metadata=dict(self.metadata))
        mapping: dict[int, int] = {}
        for task in self.task_list():
            if task.rank in wanted:
                clone = task.copy()
                clone.task_id = -1
                mapping[task.task_id] = subgraph.add_task(clone).task_id
        for dependency in self.dependencies:
            if dependency.src in mapping and dependency.dst in mapping:
                subgraph.add_dependency(mapping[dependency.src], mapping[dependency.dst],
                                        dependency.dep_type)
        return subgraph
