"""Parallel sweep evaluation.

The runner amortises the expensive, shared work of a what-if sweep through
a :class:`~repro.api.Study`: the base trace is replayed and the kernel
performance model calibrated exactly once, after which every scenario of
the expanded grid only needs graph manipulation plus one row of its
group's simulation call.
Scenario evaluation is grouped by target configuration — one
:class:`~repro.api.target.Target` per group, so all what-if variants of
``2x2x8`` share one derived graph and one compiled session, both
memoized on the study — and the groups fan out over a
``ProcessPoolExecutor`` when ``workers > 1``.  A group is one simulation
call: row 0 times the configuration itself and each what-if adds a row.

Determinism: graph manipulation and simulation are pure functions of the
base graph, so serial and parallel runs produce identical results — results
are collected in expansion order regardless of which worker finished first.

A sweep runs only on a study: :func:`run_sweep` takes one first, and
:meth:`Study.sweep <repro.api.Study.sweep>` is its caller in the
program.  A spec names its whole base, and :func:`open_study` is the one
way :func:`repro.sweep`, a service worker or the CLI opens a study for it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.api.study import Study
from repro.api.target import Target
from repro.core.whatif import evaluate_scenarios, scenario_for
from repro.observability import tracing as observability
from repro.sweep.cache import CacheStats, SweepCache
from repro.sweep.hashing import hash_json
from repro.sweep.spec import ScenarioSpec, SweepSpec, scenario_cache_key
from repro.trace.kineto import TraceBundle


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of evaluating one scenario of the grid."""

    label: str
    kind: str
    target: str
    whatif: str | None
    world_size: int
    iteration_time_us: float
    base_time_us: float
    affected_tasks: int = 0
    from_cache: bool = False
    #: Per-request serving metrics summary (the
    #: :meth:`~repro.core.serving_metrics.ServingMetrics.to_json` payload)
    #: for continuous-batching episodes; ``None`` everywhere else.
    serving: Mapping[str, Any] | None = None

    @property
    def iteration_time_ms(self) -> float:
        return self.iteration_time_us / 1000.0

    @property
    def speedup_vs_base(self) -> float:
        if self.iteration_time_us <= 0:
            return float("inf")
        return self.base_time_us / self.iteration_time_us

    @property
    def goodput_rps(self) -> float | None:
        """SLO-meeting requests per second, when serving metrics exist."""
        if self.serving is None:
            return None
        return float(self.serving["goodput_rps"])

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "label": self.label,
            "kind": self.kind,
            "target": self.target,
            "whatif": self.whatif,
            "world_size": self.world_size,
            "iteration_time_us": self.iteration_time_us,
            "base_time_us": self.base_time_us,
            "affected_tasks": self.affected_tasks,
        }
        # Omitted when absent so pre-serving cache entries parse back
        # byte-identically.
        if self.serving is not None:
            payload["serving"] = dict(self.serving)
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any], from_cache: bool = False) -> "ScenarioResult":
        return cls(
            label=str(payload["label"]),
            kind=str(payload["kind"]),
            target=str(payload["target"]),
            whatif=payload.get("whatif"),
            world_size=int(payload["world_size"]),
            iteration_time_us=float(payload["iteration_time_us"]),
            base_time_us=float(payload["base_time_us"]),
            affected_tasks=int(payload.get("affected_tasks", 0)),
            from_cache=from_cache,
            serving=payload.get("serving"),
        )


def rank_results(results: Iterable[ScenarioResult]) -> list[ScenarioResult]:
    """Order results best-first.

    Training sweeps (and fixed-batch serving sweeps) rank fastest-first.
    When every result carries serving metrics the sweep is a continuous-
    batching one, and deployments are ranked the way serving engineers
    pick them: highest goodput first, p99 latency breaking ties.
    """
    ordered = list(results)
    if ordered and all(r.serving is not None for r in ordered):
        return sorted(ordered,
                      key=lambda r: (-r.goodput_rps,
                                     float(r.serving["latency_p99_ms"]),
                                     r.label))
    return sorted(ordered, key=lambda r: (r.iteration_time_us, r.label))


@dataclass
class SweepResult:
    """All scenario results of one sweep run, in expansion order."""

    spec: SweepSpec
    results: list[ScenarioResult]
    base_time_us: float
    elapsed_seconds: float
    workers: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def scenarios_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return len(self.results) / self.elapsed_seconds

    def ranked(self) -> list[ScenarioResult]:
        """Results ordered fastest-first (stable on ties via the label)."""
        return rank_results(self.results)

    def best(self) -> ScenarioResult:
        return self.ranked()[0]


# -- per-worker state ---------------------------------------------------------

_WORKER_STUDY: Study | None = None


def _pool_initializer(study: Study) -> None:
    global _WORKER_STUDY
    _WORKER_STUDY = study


def _pool_evaluate(item: tuple[Target, list[dict[str, Any]], float | None]) -> list[dict[str, Any]]:
    assert _WORKER_STUDY is not None, "worker pool used before initialisation"
    config, scenarios, slo_ms = item
    return _evaluate_group(_WORKER_STUDY, config,
                           [ScenarioSpec.from_json(s) for s in scenarios],
                           slo_ms=slo_ms)


# -- evaluation ---------------------------------------------------------------

def _evaluate_group(study: Study, config: Target,
                    scenarios: list[ScenarioSpec], *,
                    slo_ms: float | None = None) -> list[dict[str, Any]]:
    """Evaluate every scenario sharing one target configuration.

    The group's compiled graph (a retime's is a view of its source's) runs
    on one simulation session and the whole group is one
    :func:`~repro.core.whatif.evaluate_scenarios` call: row 0 of its
    duration matrix times the configuration itself
    (what a no-what-if scenario reads) and each what-if variant adds one
    row.  Three or more rows run as one call of the topology's batch plan
    (falling back to per-row sequential runs only for graphs without a
    duration-independent schedule) — no graph clones, no separate
    configuration run.  The
    per-target state is memoized on the study, so a composite
    ``<workload>+hardware`` group resumes from its workload sibling's
    derived graph and reuses anything a prior ``predict`` derived.
    """
    with observability.trace_span("sweep.group", kind=config.kind,
                                  target=config.label, scenarios=len(scenarios)):
        compiled, world_size, session = study.config_state(config)
        outcomes = evaluate_scenarios(
            compiled, [None if s.whatif is None else
                       scenario_for(s.whatif.kind, op_class=s.whatif.op_class,
                                    group=s.whatif.group, speedup=s.whatif.speedup)
                       for s in scenarios],
            session=session, deadline_ms=slo_ms)
    return [ScenarioResult(
        label=scenario.label,
        kind=scenario.kind,
        target=scenario.target,
        whatif=scenario.whatif.describe() if scenario.whatif else None,
        world_size=world_size,
        iteration_time_us=outcome.scenario_time_us,
        base_time_us=study.base_time_us,
        affected_tasks=outcome.affected_tasks,
        serving=None if outcome.serving is None else outcome.serving.to_json(),
    ).to_json() for scenario, outcome in zip(scenarios, outcomes)]


def open_study(bundle: TraceBundle, spec: SweepSpec) -> Study:
    """Open a study over ``bundle`` for ``spec``'s base, which names every key."""
    return Study(bundle, model=spec.base_model, parallelism=spec.base_parallelism,
                 training=spec.training(), inference=spec.inference)


def run_sweep(study: Study, spec: SweepSpec, *, workers: int = 1,
              cache: SweepCache | None = None, force: bool = False) -> SweepResult:
    """Evaluate every scenario of ``spec`` against ``study``'s base trace.

    Parameters
    ----------
    study:
        The :class:`~repro.api.Study` over the profiled base trace; its
        base configuration must match the spec's.  Its memoized replay,
        calibration, sessions and trace digest are reused.
    spec:
        The declarative sweep specification; it is validated first.
    workers:
        Process count for scenario evaluation.  ``1`` runs serially in
        process; parallel and serial runs produce identical results.
    cache:
        Optional on-disk result cache, keyed by the study's trace digest.
        Cached scenarios skip evaluation, and a fully cached sweep skips
        base-trace replay and calibration.
    force:
        Re-evaluate every scenario even when cached (results are re-stored).
    """
    started = time.perf_counter()
    spec.validate()
    study.ensure_matches(spec)
    scenarios = spec.expand()
    observability.count("sweep.scenarios.total", len(scenarios))

    # Content hashing walks the full trace bundle, so only pay for it when
    # there is a cache to key; the study memoizes the digest.
    bundle_hash = ""
    scenario_hashes: dict[ScenarioSpec, str] = {}
    collected: dict[ScenarioSpec, ScenarioResult] = {}
    if cache is not None:
        with observability.trace_span("sweep.hash", scenarios=len(scenarios)):
            bundle_hash = study.trace_digest
            scenario_hashes = {scenario: hash_json(scenario_cache_key(spec, scenario))
                               for scenario in scenarios}
        if not force:
            with observability.trace_span("sweep.cache.lookup"):
                for scenario in scenarios:
                    payload = cache.lookup(bundle_hash, scenario_hashes[scenario])
                    if payload is not None:
                        collected[scenario] = ScenarioResult.from_json(
                            payload, from_cache=True)
    observability.count("sweep.scenarios.cached", len(collected))

    missing = [scenario for scenario in scenarios if scenario not in collected]
    observability.count("sweep.scenarios.evaluated", len(missing))
    if missing:
        with observability.trace_span("sweep.prepare"):
            study.prepare()
        groups: dict[Target, list[ScenarioSpec]] = {}
        for scenario in missing:
            groups.setdefault(Target(scenario.kind, scenario.target), []).append(scenario)
        items = [(config, [s.to_json() for s in group], spec.slo_ms)
                 for config, group in groups.items()]
        if workers > 1 and len(items) > 1:
            # Worker processes run with tracing disabled, so the parent
            # accounts pool time as one span instead of per-worker spans.
            with observability.trace_span("sweep.pool", groups=len(items),
                                          workers=min(workers, len(items))), \
                    ProcessPoolExecutor(max_workers=min(workers, len(items)),
                                        initializer=_pool_initializer,
                                        initargs=(study,)) as pool:
                evaluated = list(pool.map(_pool_evaluate, items))
        else:
            evaluated = [_evaluate_group(study, config, group, slo_ms=spec.slo_ms)
                         for config, group in groups.items()]
        for (_, group), payloads in zip(groups.items(), evaluated):
            for scenario, payload in zip(group, payloads):
                result = ScenarioResult.from_json(payload)
                collected[scenario] = result
                if cache is not None:
                    cache.store(bundle_hash, scenario_hashes[scenario], payload)
        base_time_us = study.base_time_us
    else:
        base_time_us = next(iter(collected.values())).base_time_us

    results = [collected[scenario] for scenario in scenarios]
    swept = SweepResult(
        spec=spec,
        results=results,
        base_time_us=base_time_us,
        elapsed_seconds=time.perf_counter() - started,
        workers=workers,
        cache_stats=cache.stats if cache is not None else CacheStats(),
    )
    if observability.tracing_enabled():
        observability.gauge("sweep.cache.hits", swept.cache_stats.hits)
        observability.gauge("sweep.cache.misses", swept.cache_stats.misses)
        observability.gauge("sweep.cache.hit_rate", swept.cache_stats.hit_rate)
        observability.gauge("sweep.scenarios_per_sec", swept.scenarios_per_second)
    return swept
