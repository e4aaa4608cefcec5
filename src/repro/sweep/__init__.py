"""Parallel what-if sweep engine.

Where ``repro-lumos predict`` answers one "what if" question per
invocation — re-replaying the base trace and re-calibrating the perf model
every time — this package evaluates whole design spaces from one profiled
trace:

``repro.sweep.spec``
    Declarative sweep specifications (parallelism / model / what-if axes)
    and their expansion into a scenario grid.
``repro.sweep.runner``
    The sweep executor, run on a :class:`~repro.api.Study`: replay +
    calibrate once, then evaluate scenarios serially or across a process
    pool.
``repro.sweep.cache``
    Content-addressed on-disk result cache that makes repeated sweeps
    incremental.
``repro.sweep.analysis``
    Ranked tables and Pareto frontiers (iteration time vs. world size).
``repro.sweep.hashing``
    Canonical content hashes for trace bundles and scenario specs.

The one-call entry point is :func:`sweep`: it opens the spec's study
(:func:`~repro.sweep.runner.open_study`) and runs
:meth:`Study.sweep <repro.api.Study.sweep>` on it, the one sweep path.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import ModuleType
from typing import Any, Mapping

from repro.sweep.analysis import (
    format_pareto_table,
    format_ranked_table,
    format_report,
    pareto_frontier,
    rank_results,
)
from repro.sweep.cache import CacheStats, SweepCache
from repro.sweep.hashing import hash_json, hash_trace_bundle
from repro.sweep.runner import ScenarioResult, SweepResult, open_study, run_sweep
from repro.sweep.spec import ScenarioSpec, SweepSpec, SweepSpecError, WhatIfSpec
from repro.trace.kineto import TraceBundle

__all__ = [
    "CacheStats",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepCache",
    "SweepResult",
    "SweepSpec",
    "SweepSpecError",
    "WhatIfSpec",
    "format_pareto_table",
    "format_ranked_table",
    "format_report",
    "hash_json",
    "hash_trace_bundle",
    "pareto_frontier",
    "rank_results",
    "run_sweep",
    "sweep",
]


def sweep(trace: TraceBundle | str | Path,
          spec: SweepSpec | Mapping[str, Any] | str | Path, *,
          workers: int = 1, cache_dir: str | Path | None = None,
          force: bool = False) -> SweepResult:
    """Evaluate a what-if sweep from one base trace.

    Parameters
    ----------
    trace:
        A loaded :class:`TraceBundle` or the directory of a saved bundle.
    spec:
        A :class:`SweepSpec`, a spec-shaped mapping, or the path of a JSON
        spec file (see ``repro.sweep.spec`` for the format); a JSON spec
        takes its omitted base keys from the trace, then the defaults.
    workers:
        Process count for scenario evaluation; ``1`` runs serially.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    force:
        Re-evaluate cached scenarios.
    """
    bundle = trace if isinstance(trace, TraceBundle) else TraceBundle.load(trace)
    spec = SweepSpec.coerce(spec, bundle.metadata)
    return open_study(bundle, spec).sweep(spec, workers=workers, cache_dir=cache_dir,
                                          force=force)


class _CallableSweepModule(ModuleType):
    """Lets ``repro.sweep`` act as both the subpackage and the entry point.

    ``from repro import sweep; sweep(trace, spec)`` calls :func:`sweep`,
    while ``repro.sweep.SweepSpec`` and ``import repro.sweep`` keep their
    ordinary module semantics.
    """

    __call__ = staticmethod(sweep)


sys.modules[__name__].__class__ = _CallableSweepModule
