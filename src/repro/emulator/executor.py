"""Executes per-rank programs and produces concrete task timings.

The executor turns instruction streams into a global task graph and runs a
deterministic list-scheduling pass over it:

* CPU instructions of one rank execute sequentially (one host sequencer per
  rank, as in an eager-mode training loop);
* GPU kernels execute in enqueue order on their stream;
* ``cudaStreamWaitEvent`` constraints delay the next kernel enqueued on the
  waiting stream until the recorded point on the producing stream;
* ``cudaStreamSynchronize`` / ``cudaDeviceSynchronize`` block the CPU until
  the relevant streams drain;
* point-to-point kernels that share a ``comm_key`` (pipeline send/recv
  pairs) start together once both sides are ready and take the same time.

This is the emulator's own engine; the Lumos replay simulator in
:mod:`repro.core.engine` is an independent implementation that works
from trace-derived dependencies instead of program intent.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.emulator.noise import RankNoise, ZeroNoise
from repro.emulator.program import (
    CpuCompute,
    DeviceSync,
    EventRecord,
    Instruction,
    KernelIntent,
    LaunchKernel,
    RankProgram,
    StreamSync,
    StreamWaitEvent,
)

_SYNC_CALL_US = 3.0


@dataclass
class ExecutedTask:
    """One executed CPU instruction or GPU kernel with concrete timing."""

    uid: int
    rank: int
    kind: str  # "cpu" or "kernel"
    name: str
    start: float
    duration: float
    thread: int
    stream: int | None = None
    correlation: int | None = None
    instruction: Instruction | None = None
    kernel: KernelIntent | None = None
    called_at: float | None = None  # for blocking syncs: when the CPU invoked the call

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class _Node:
    uid: int
    rank: int
    kind: str
    name: str
    duration: float
    thread: int
    stream: int | None = None
    correlation: int | None = None
    instruction: Instruction | None = None
    kernel: KernelIntent | None = None
    comm_key: str | None = None
    cpu_prev: int | None = None
    deps: list[int] = field(default_factory=list)


class ProgramExecutor:
    """Executes a set of per-rank programs into concrete task timings."""

    def __init__(self, noise_streams: dict[int, RankNoise] | None = None) -> None:
        self._noise_streams = noise_streams or {}

    def _noise(self, rank: int) -> RankNoise:
        return self._noise_streams.get(rank) or ZeroNoise()

    # -- graph construction -----------------------------------------------------

    def _build_nodes(self, programs: dict[int, RankProgram]) -> list[_Node]:
        nodes: list[_Node] = []
        for rank in sorted(programs):
            program = programs[rank]
            noise = self._noise(rank)
            cpu_prev: int | None = None
            stream_last: dict[int, int] = {}
            pending_waits: dict[int, list[int]] = defaultdict(list)
            events: dict[int, int | None] = {}
            correlation = 0

            def add(node: _Node) -> int:
                node.uid = len(nodes)
                nodes.append(node)
                return node.uid

            for instruction in program.instructions:
                if isinstance(instruction, CpuCompute):
                    uid = add(_Node(uid=-1, rank=rank, kind="cpu", name=instruction.name,
                                    duration=instruction.duration_us * noise.cpu_factor(),
                                    thread=instruction.thread, instruction=instruction,
                                    deps=[cpu_prev] if cpu_prev is not None else []))
                    cpu_prev = uid
                elif isinstance(instruction, LaunchKernel):
                    correlation += 1
                    op_name = instruction.kernel.op_name or instruction.kernel.name
                    launch_uid = add(_Node(uid=-1, rank=rank, kind="cpu",
                                           name=f"aten::{op_name}",
                                           duration=instruction.duration_us * noise.cpu_factor(),
                                           thread=instruction.thread, instruction=instruction,
                                           correlation=correlation,
                                           deps=[cpu_prev] if cpu_prev is not None else []))
                    cpu_prev = launch_uid
                    intent = instruction.kernel
                    is_comm = intent.collective is not None
                    kernel_deps = [launch_uid]
                    if intent.stream in stream_last:
                        kernel_deps.append(stream_last[intent.stream])
                    if pending_waits[intent.stream]:
                        kernel_deps.extend(pending_waits[intent.stream])
                        pending_waits[intent.stream] = []
                    kernel_uid = add(_Node(uid=-1, rank=rank, kind="kernel", name=intent.name,
                                           duration=(intent.duration_us
                                                     * noise.kernel_factor(is_comm)),
                                           thread=instruction.thread, stream=intent.stream,
                                           correlation=correlation, kernel=intent,
                                           comm_key=intent.comm_key, deps=kernel_deps))
                    stream_last[intent.stream] = kernel_uid
                elif isinstance(instruction, EventRecord):
                    uid = add(_Node(uid=-1, rank=rank, kind="cpu", name="cudaEventRecord",
                                    duration=instruction.duration_us * noise.cpu_factor(),
                                    thread=instruction.thread, instruction=instruction,
                                    deps=[cpu_prev] if cpu_prev is not None else []))
                    cpu_prev = uid
                    events[instruction.event_id] = stream_last.get(instruction.stream)
                elif isinstance(instruction, StreamWaitEvent):
                    uid = add(_Node(uid=-1, rank=rank, kind="cpu", name="cudaStreamWaitEvent",
                                    duration=instruction.duration_us * noise.cpu_factor(),
                                    thread=instruction.thread, instruction=instruction,
                                    deps=[cpu_prev] if cpu_prev is not None else []))
                    cpu_prev = uid
                    marker = events.get(instruction.event_id)
                    if marker is not None:
                        pending_waits[instruction.stream].append(marker)
                elif isinstance(instruction, StreamSync):
                    deps = [cpu_prev] if cpu_prev is not None else []
                    if instruction.stream in stream_last:
                        deps.append(stream_last[instruction.stream])
                    uid = add(_Node(uid=-1, rank=rank, kind="cpu", name="cudaStreamSynchronize",
                                    duration=_SYNC_CALL_US, thread=instruction.thread,
                                    instruction=instruction, cpu_prev=cpu_prev, deps=deps))
                    cpu_prev = uid
                elif isinstance(instruction, DeviceSync):
                    deps = [cpu_prev] if cpu_prev is not None else []
                    deps.extend(stream_last.values())
                    uid = add(_Node(uid=-1, rank=rank, kind="cpu", name="cudaDeviceSynchronize",
                                    duration=_SYNC_CALL_US, thread=instruction.thread,
                                    instruction=instruction, cpu_prev=cpu_prev, deps=deps))
                    cpu_prev = uid
                else:
                    raise TypeError(f"unknown instruction type {type(instruction)!r}")
        return nodes

    # -- scheduling ---------------------------------------------------------------

    def execute(self, programs: dict[int, RankProgram],
                start_time: float = 0.0) -> dict[int, list[ExecutedTask]]:
        """Execute all programs and return per-rank executed tasks in creation order."""
        nodes = self._build_nodes(programs)
        n = len(nodes)
        successors: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for node in nodes:
            indegree[node.uid] = len(node.deps)
            for dep in node.deps:
                successors[dep].append(node.uid)

        rank_start: dict[int, float] = {}
        for rank in programs:
            rank_start[rank] = start_time + self._noise(rank).start_skew_us()

        ready_time = [rank_start[node.rank] for node in nodes]
        start = [0.0] * n
        finish: list[float | None] = [None] * n

        group_members: dict[str, list[int]] = defaultdict(list)
        for node in nodes:
            if node.comm_key is not None:
                group_members[node.comm_key].append(node.uid)
        group_ready: dict[str, dict[int, float]] = defaultdict(dict)

        queue: deque[int] = deque(uid for uid in range(n) if indegree[uid] == 0)
        processed = 0

        def finalize(uid: int, at: float) -> None:
            nonlocal processed
            start[uid] = at
            finish[uid] = at + nodes[uid].duration
            processed += 1
            for successor in successors[uid]:
                ready_time[successor] = max(ready_time[successor], finish[uid])
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)

        while queue:
            uid = queue.popleft()
            node = nodes[uid]
            if node.comm_key is None:
                finalize(uid, ready_time[uid])
                continue
            group_ready[node.comm_key][uid] = ready_time[uid]
            members = group_members[node.comm_key]
            if len(group_ready[node.comm_key]) == len(members):
                common_start = max(group_ready[node.comm_key].values())
                common_duration = max(nodes[m].duration for m in members)
                for member in members:
                    nodes[member].duration = common_duration
                    finalize(member, common_start)

        if processed != n:
            unfinished = [nodes[uid].name for uid in range(n) if finish[uid] is None][:10]
            raise RuntimeError(
                f"program execution deadlocked: {n - processed} of {n} tasks unscheduled "
                f"(first unfinished: {unfinished})"
            )

        results: dict[int, list[ExecutedTask]] = {rank: [] for rank in programs}
        for node in nodes:
            called_at = None
            if node.cpu_prev is not None and finish[node.cpu_prev] is not None:
                called_at = finish[node.cpu_prev]
            results[node.rank].append(ExecutedTask(
                uid=node.uid, rank=node.rank, kind=node.kind, name=node.name,
                start=start[node.uid], duration=node.duration, thread=node.thread,
                stream=node.stream, correlation=node.correlation,
                instruction=node.instruction, kernel=node.kernel, called_at=called_at,
            ))
        return results
