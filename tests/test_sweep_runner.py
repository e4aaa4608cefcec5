"""Tests for the sweep runner, cache integration and Pareto analysis.

One small GPT-3 bundle is emulated per module; every test sweeps it.  The
acceptance-critical properties live here: parallel and serial runs produce
identical ranked results, and a repeated run is served from the cache
without replaying the base trace.
"""

import pytest

from repro import Study, sweep
from repro.sweep import (
    ScenarioResult,
    SweepCache,
    SweepSpec,
    WhatIfSpec,
    format_report,
    hash_json,
    hash_trace_bundle,
    pareto_frontier,
    rank_results,
    run_sweep,
)
from repro.sweep.runner import open_study
from repro.sweep.spec import scenario_cache_key
from repro.emulator.api import emulate
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig

BASE_PARALLELISM = "2x1x2"


@pytest.fixture(scope="module")
def base_bundle():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse(BASE_PARALLELISM)
    training = TrainingConfig(micro_batch_size=1, num_microbatches=2)
    return emulate(model, parallel, training, iterations=1, seed=7).profiled


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(
        base_model="gpt3-15b",
        base_parallelism=BASE_PARALLELISM,
        micro_batch_size=1,
        num_microbatches=2,
        parallelism=("2x1x4", "2x2x1"),
        models=("gpt3-v1",),
        whatif=(WhatIfSpec(kind="kernel_class", op_class="gemm", speedup=2.0),
                WhatIfSpec(kind="launch_overhead")),
    )


@pytest.fixture(scope="module")
def serial_result(base_bundle, small_spec):
    return run_sweep(open_study(base_bundle, small_spec), small_spec, workers=1)


def _ranked_view(result):
    return [(r.label, r.iteration_time_us, r.world_size) for r in result.ranked()]


class TestRunSweep:
    def test_evaluates_the_full_grid(self, serial_result, small_spec):
        assert len(serial_result) == len(small_spec.expand())
        assert [r.label for r in serial_result.results] == \
            [s.label for s in small_spec.expand()]

    def test_baseline_matches_replay(self, serial_result):
        baseline = next(r for r in serial_result.results
                        if r.kind == "baseline" and r.whatif is None)
        assert baseline.iteration_time_us == pytest.approx(serial_result.base_time_us)
        assert baseline.speedup_vs_base == pytest.approx(1.0)

    def test_world_sizes_follow_targets(self, serial_result):
        by_label = {r.label: r for r in serial_result.results}
        assert by_label["base"].world_size == 4
        assert by_label["2x1x4"].world_size == 8
        assert by_label["2x2x1"].world_size == 4
        assert by_label["gpt3-v1"].world_size == 4

    def test_whatif_never_slower_than_plain_config(self, serial_result):
        by_label = {r.label: r for r in serial_result.results}
        for result in serial_result.results:
            if result.whatif is None:
                continue
            plain = by_label[result.label.split(" +")[0].replace("base", "base")]
            assert result.iteration_time_us <= plain.iteration_time_us + 1e-6
            assert result.affected_tasks > 0

    def test_parallel_matches_serial(self, base_bundle, small_spec, serial_result):
        parallel = run_sweep(open_study(base_bundle, small_spec), small_spec, workers=2)
        assert _ranked_view(parallel) == _ranked_view(serial_result)

    def test_invalid_spec_rejected_before_work(self, base_bundle):
        spec = SweepSpec(base_parallelism=BASE_PARALLELISM, parallelism=("4x1x2",))
        with pytest.raises(ValueError, match="tensor parallelism"):
            run_sweep(open_study(base_bundle, spec), spec)

    def test_scenarios_per_second_positive(self, serial_result):
        assert serial_result.scenarios_per_second > 0
        assert serial_result.best().iteration_time_us == \
            min(r.iteration_time_us for r in serial_result.results)


class TestCacheIntegration:
    def test_second_run_is_fully_cached_and_identical(self, base_bundle, small_spec,
                                                      serial_result, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cold = run_sweep(open_study(base_bundle, small_spec), small_spec, cache=cache)
        assert cold.cache_stats.misses == len(cold)
        assert not any(r.from_cache for r in cold.results)

        warm_cache = SweepCache(tmp_path / "cache")
        warm = run_sweep(open_study(base_bundle, small_spec), small_spec, cache=warm_cache)
        assert warm_cache.stats.hits == len(warm)
        assert all(r.from_cache for r in warm.results)
        assert _ranked_view(warm) == _ranked_view(cold) == _ranked_view(serial_result)

    def test_new_scenarios_are_incremental(self, base_bundle, small_spec, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(open_study(base_bundle, small_spec), small_spec, cache=cache)
        extended = SweepSpec(
            base_model=small_spec.base_model,
            base_parallelism=small_spec.base_parallelism,
            micro_batch_size=small_spec.micro_batch_size,
            num_microbatches=small_spec.num_microbatches,
            parallelism=small_spec.parallelism + ("2x1x8",),
            models=small_spec.models,
            whatif=small_spec.whatif,
        )
        cache_two = SweepCache(tmp_path / "cache")
        result = run_sweep(open_study(base_bundle, extended), extended, cache=cache_two)
        # Only the three scenarios of the new 2x1x8 configuration are evaluated.
        assert cache_two.stats.misses == 3
        assert cache_two.stats.hits == len(result) - 3

    def test_force_reevaluates(self, base_bundle, small_spec, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(open_study(base_bundle, small_spec), small_spec, cache=cache)
        forced_cache = SweepCache(tmp_path / "cache")
        forced = run_sweep(open_study(base_bundle, small_spec), small_spec,
                           cache=forced_cache, force=True)
        assert forced_cache.stats.hits == 0
        assert not any(r.from_cache for r in forced.results)

    def test_different_trace_does_not_hit(self, base_bundle, small_spec, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(open_study(base_bundle, small_spec), small_spec, cache=cache)
        other = emulate(gpt3_model("gpt3-15b"),
                        ParallelismConfig.parse(BASE_PARALLELISM),
                        TrainingConfig(micro_batch_size=1, num_microbatches=2),
                        iterations=1, seed=8).profiled
        cache_two = SweepCache(tmp_path / "cache")
        run_sweep(open_study(other, small_spec), small_spec, cache=cache_two)
        assert cache_two.stats.hits == 0


class TestTraceDigest:
    """A study's own bundle is hashed once; cache keys keep their bytes."""

    @staticmethod
    def _study(bundle):
        return Study.from_trace(bundle, model="gpt3-15b",
                                parallelism=BASE_PARALLELISM,
                                micro_batch_size=1, num_microbatches=2)

    def test_two_study_sweeps_hash_the_trace_once(self, base_bundle, small_spec,
                                                  tmp_path, bundle_hashes):
        study = self._study(base_bundle)
        cold = study.sweep(small_spec, cache=SweepCache(tmp_path / "cache"))
        warm = study.sweep(small_spec, cache=SweepCache(tmp_path / "cache"))
        assert len(bundle_hashes) == 1 and bundle_hashes[0] is base_bundle
        assert not any(r.from_cache for r in cold.results)
        assert all(r.from_cache for r in warm.results)

    def test_digest_keys_entries_stored_under_the_bundle_hash(self, base_bundle,
                                                              small_spec, tmp_path):
        study = self._study(base_bundle)
        assert study.trace_digest == hash_trace_bundle(base_bundle)
        # Plant every scenario under the key computed straight from the
        # bundle hash; a study sweep must find each one without evaluating.
        cache = SweepCache(tmp_path / "cache")
        scenarios = small_spec.expand()
        for index, scenario in enumerate(scenarios):
            planted = ScenarioResult(
                label=scenario.label, kind=scenario.kind,
                target=scenario.target,
                whatif=scenario.whatif.describe() if scenario.whatif else None,
                world_size=1, iteration_time_us=1000.0 + index,
                base_time_us=999.0)
            cache.store(hash_trace_bundle(base_bundle),
                        hash_json(scenario_cache_key(small_spec, scenario)),
                        planted.to_json())
        warm_cache = SweepCache(tmp_path / "cache")
        warm = study.sweep(small_spec, cache=warm_cache)
        assert warm_cache.stats.hits == len(scenarios)
        assert [r.iteration_time_us for r in warm.results] == \
            [1000.0 + index for index in range(len(scenarios))]


class TestSweepApi:
    def test_sweep_accepts_trace_directory_and_spec_mapping(self, base_bundle,
                                                            small_spec, tmp_path):
        trace_dir = tmp_path / "bundle"
        base_bundle.save(trace_dir)
        result = sweep(trace_dir, small_spec.to_json(), cache_dir=tmp_path / "cache")
        assert len(result) == len(small_spec.expand())
        repeat = sweep(trace_dir, small_spec.to_json(), cache_dir=tmp_path / "cache")
        assert all(r.from_cache for r in repeat.results)

    def test_exported_from_package_root(self):
        import repro
        assert repro.sweep is sweep
        assert repro.SweepSpec is SweepSpec

    def test_callable_module_keeps_attribute_access(self):
        # ``repro.sweep`` is callable, but ordinary module idioms still work.
        import repro.sweep as sweep_module
        assert callable(sweep_module)
        assert sweep_module.SweepSpec is SweepSpec
        assert sweep_module.run_sweep is run_sweep


class TestAnalysis:
    def _mk(self, label, world, time_us):
        return ScenarioResult(label=label, kind="parallelism", target=label,
                              whatif=None, world_size=world,
                              iteration_time_us=time_us, base_time_us=1000.0)

    def test_rank_orders_by_time_then_label(self):
        results = [self._mk("b", 8, 200.0), self._mk("a", 8, 200.0),
                   self._mk("c", 8, 100.0)]
        assert [r.label for r in rank_results(results)] == ["c", "a", "b"]

    def test_pareto_drops_dominated_points(self):
        results = [
            self._mk("small-slow", 4, 400.0),
            self._mk("small-dominated", 4, 500.0),
            self._mk("big-fast", 16, 100.0),
            self._mk("big-dominated", 16, 450.0),
        ]
        frontier = [r.label for r in pareto_frontier(results)]
        assert frontier == ["small-slow", "big-fast"]

    def test_pareto_keeps_duplicate_optima(self):
        results = [self._mk("x", 4, 100.0), self._mk("y", 4, 100.0)]
        assert len(pareto_frontier(results)) == 2

    def test_pareto_on_real_sweep_is_sorted_and_nonempty(self, serial_result):
        frontier = pareto_frontier(serial_result.results)
        assert frontier
        sizes = [r.world_size for r in frontier]
        assert sizes == sorted(sizes)
        times = [r.iteration_time_us for r in frontier]
        assert times == sorted(times, reverse=True)

    def test_format_report_mentions_everything(self, serial_result):
        report = format_report(serial_result, top=3)
        assert "ranked scenarios (top 3)" in report
        assert "pareto frontier" in report
        assert "scenarios/s" in report
