"""Per-layer timing for the benchmark's traced runs.

A layer is a set of public functions of one ``repro`` module.  While a
:class:`LayerTracer` is installed, every binding of those functions is
replaced by a timing wrapper: the defining module's attribute, each
``from ... import`` alias held by another ``repro`` module, or the class
attribute of a method.  Uninstalling restores the originals.  The
program's own ``repro.observability`` spans stay off, so the numbers come
from the benchmark's files alone.

A layer's self time is the wall time of its calls minus the time of
wrapped calls nested inside them on the same thread.  Top-level calls made
on other threads (the service's worker and request handlers) are also kept
as intervals, so the service workload can subtract them from the
client-side phase they overlap.

A target that does not resolve (a later change renamed or fused the
function) is listed in :attr:`LayerTracer.absent`; its layer reports zero
calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: ``observe(counts, result)`` adds one call's work counts, by metric name.
Observer = Callable[[dict, Any], None]


def _add(counts: dict, key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


def _count_replay(counts: dict, result: Any) -> None:
    _add(counts, "replay.tasks", len(result.graph))


def _count_derive(counts: dict, result: Any) -> None:
    _add(counts, "manipulation.tasks_out", len(result[0]))


def _count_batch(counts: dict, result: Any) -> None:
    _add(counts, "batch.rows", result.batch_size)
    _add(counts, "batch.fast_rows", result.batch_size if result.batched else 0)


def _count_lookup(counts: dict, result: Any) -> None:
    _add(counts, "sweep.cache_lookups", 1)
    _add(counts, "sweep.cache_hits", result is not None)


@dataclass(frozen=True)
class Layer:
    """One timed layer: a metric prefix and the functions it covers."""

    name: str
    #: ``"module:qualname"`` of each public function in the layer.
    targets: tuple[str, ...]
    observe: Observer | None = None
    #: Unit of the layer's self-time metric: ``"ms"`` or ``"s"``.
    unit: str = "ms"

    def metric(self, suffix: str) -> str:
        """``engine.compile`` + ``ms`` -> ``engine.compile_ms``; ``replay.ms``."""
        return f"{self.name}{'_' if '.' in self.name else '.'}{suffix}"


LAYERS: tuple[Layer, ...] = (
    Layer("emulator.emulate", ("repro.emulator.api:emulate",), unit="s"),
    Layer("replay", ("repro.core.replay:replay",), _count_replay),
    Layer("perf_model.calibrate", ("repro.core.perf_model:KernelPerfModel.calibrate",)),
    Layer("manipulation.derive", ("repro.core.manipulation.dispatch:derive",),
          _count_derive),
    Layer("manipulation.parallelism", (
        "repro.core.manipulation.data_parallel:scale_data_parallelism",
        "repro.core.manipulation.pipeline_parallel:scale_pipeline_parallelism")),
    Layer("manipulation.architecture",
          ("repro.core.manipulation.architecture:change_architecture",)),
    Layer("manipulation.hardware", ("repro.core.manipulation.hardware:retarget_hardware",)),
    Layer("manipulation.serving",
          ("repro.core.manipulation.serving:rescale_serving_graph",)),
    Layer("engine.compile", ("repro.core.engine:compile_graph",)),
    Layer("engine.run", ("repro.core.engine:SimulationSession.run",)),
    Layer("batch.plan", ("repro.core.batch:compile_batch_plan",)),
    Layer("batch.execute", ("repro.core.batch:BatchSession.run",), _count_batch),
    Layer("whatif.matrix", ("repro.core.engine:CompiledGraph.scaled_durations",)),
    Layer("serving_metrics", (
        "repro.core.serving_metrics:metrics_from_task_times",
        "repro.core.serving_metrics:compute_serving_metrics")),
    Layer("api.materialise", (
        "repro.core.engine:SessionRun.to_simulation_result",
        "repro.core.simulator:SimulationResult.to_trace_bundle")),
    Layer("sweep.hash", ("repro.sweep.hashing:hash_trace_bundle",
                         "repro.sweep.hashing:hash_json")),
    Layer("sweep.cache_lookup", ("repro.sweep.cache:SweepCache.lookup",), _count_lookup),
    Layer("sweep.cache_store", ("repro.sweep.cache:SweepCache.store",)),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


class LayerTracer:
    """Installs timing wrappers for a set of layers (a context manager)."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.stats = {layer.name: LayerStats() for layer in layers}
        #: Work counts by metric name (see the layers' observers).
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        #: ``(start, end)`` perf-counter intervals of top-level wrapped
        #: calls made on threads other than the installing one.
        self.foreign: list[tuple[float, float]] = []
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active = False
        self._originals: dict[int, Any] = {}
        self._class_restores: list[Callable[[], None]] = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        self._active = True
        for layer in self.layers:
            for target in layer.targets:
                if not self._patch(layer, target):
                    self.absent.append(target)

    def uninstall(self) -> None:
        self._active = False
        for restore in self._class_restores:
            restore()
        self._class_restores.clear()
        # A module imported while tracing may have bound a wrapper through
        # ``from ... import``; those bindings are restored too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, layer: Layer, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return False
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self._wrap(layer, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(layer, raw)
            else:
                return False
            setattr(owner, name, wrapped)
            self._class_restores.append(
                lambda owner=owner, name=name, raw=raw: setattr(owner, name, raw))
            return True
        original = getattr(owner, name, None)
        if not callable(original):
            return False
        wrapped = self._wrap(layer, original)
        self._originals[id(wrapped)] = original
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
        return True

    def _wrap(self, layer: Layer, func: Callable) -> Callable:
        stats = self.stats[layer.name]
        observe = layer.observe

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self._active:
                return func(*args, **kwargs)
            stack = self._stack()
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    stats.calls += 1
                    stats.self_s += elapsed - nested[0]
                    if not stack and threading.get_ident() != self._main:
                        self.foreign.append((start, end))
            if observe is not None:
                with self._lock:
                    observe(self.counts, result)
            return result

        return timed

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- results --------------------------------------------------------------

    def foreign_by_phase(self, phases: list[tuple[float, float, str]]) -> dict[str, float]:
        """Seconds of other-thread layer calls inside each named phase.

        ``phases`` are ``(start, end, name)`` intervals, sorted and disjoint.
        """
        covered: dict[str, float] = {}
        intervals = sorted(self.foreign)
        first = 0
        for start, end, name in phases:
            while first < len(intervals) and intervals[first][1] <= start:
                first += 1
            for a, b in intervals[first:]:
                if a >= end:
                    break
                _add(covered, name, max(0.0, min(end, b) - max(start, a)))
        return covered


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]
