"""Runners for every figure and table of the paper's evaluation.

Each ``run_*`` function emulates the relevant workload on the modelled
cluster (the substitute for the paper's H100 testbed), applies Lumos (its
predictions through a :class:`~repro.api.Study`) and — where the paper
does — the dPRO baseline, and returns the per-configuration comparisons.
Benchmarks print these; tests assert on their shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.comparison import (
    BreakdownComparison,
    ReplayComparison,
    compare_breakdowns,
    evaluate_replay,
)
from repro.api import Study
from repro.baselines.dpro import dpro_replay
from repro.core.breakdown import compute_breakdown
from repro.core.replay import replay
from repro.core.sm_utilization import sm_utilization_timeline
from repro.emulator.api import emulate
from repro.experiments.settings import EvaluationSettings
from repro.workload.model_config import GPT3_VARIANTS, ModelConfig, gpt3_model
from repro.workload.parallelism import ParallelismConfig

#: Figure 5 — the (model, TP×PP×DP) grid of the replay evaluation.
FIG5_CONFIGS: dict[str, list[str]] = {
    "gpt3-15b": ["2x2x4", "2x2x8", "2x4x2", "2x4x4", "4x2x2", "4x2x4"],
    "gpt3-44b": ["4x4x2", "4x4x4", "4x8x1", "4x8x2", "8x4x1", "8x4x2"],
    "gpt3-117b": ["4x8x2", "4x8x4", "8x4x2", "8x4x4", "8x8x1", "8x8x2"],
    "gpt3-175b": ["4x8x4", "4x8x8", "4x8x16", "8x4x4", "8x4x8", "8x4x16"],
}

#: Figure 7a/b/c — scale-out targets predicted from the GPT-3 15B 2x2x4 base trace.
FIG7_BASE_CONFIG = "2x2x4"
FIG7A_CONFIGS = ["2x2x8", "2x2x16", "2x2x32"]
FIG7B_CONFIGS = ["2x4x4", "2x8x4", "2x16x4"]
FIG7C_CONFIGS = ["2x4x8", "2x8x8", "2x4x16"]

#: Figure 8 / Table 2 — architecture variants predicted from the 15B base trace.
FIG8_VARIANTS = ["gpt3-v1", "gpt3-v2", "gpt3-v3", "gpt3-v4"]


@dataclass(frozen=True)
class MotivationComparison:
    """Figure 1: actual vs dPRO breakdown of one GPT-3 175B iteration."""

    actual: BreakdownComparison
    dpro_overlap_ratio: float
    dpro_underestimates_total: bool


@dataclass(frozen=True)
class SMUtilizationComparison:
    """Figure 6: actual / Lumos / dPRO SM-utilisation timelines of one rank."""

    actual: np.ndarray
    lumos: np.ndarray
    dpro: np.ndarray


def _emulate_pair(model: ModelConfig, parallel: ParallelismConfig,
                  settings: EvaluationSettings, seed_offset: int = 0):
    """Emulate one configuration, returning (profiled, measured) bundles."""
    result = emulate(model, parallel, settings.training(),
                     iterations=settings.measured_iterations,
                     seed=settings.seed + seed_offset)
    return result.profiled, result.measured


def run_replay_comparison(model_name: str, config_label: str,
                          settings: EvaluationSettings | None = None,
                          seed_offset: int = 0) -> ReplayComparison:
    """One Figure 5 cell: actual vs Lumos vs dPRO for one configuration."""
    settings = settings or EvaluationSettings.default()
    model = gpt3_model(model_name)
    parallel = ParallelismConfig.parse(config_label)
    profiled, measured = _emulate_pair(model, parallel, settings, seed_offset)
    return evaluate_replay(f"{model_name}:{config_label}", profiled, measured)


def run_motivation_comparison(settings: EvaluationSettings | None = None) -> MotivationComparison:
    """Figure 1: dPRO's breakdown of GPT-3 175B at 8x4x8 vs the actual one."""
    settings = settings or EvaluationSettings.default()
    model = gpt3_model("gpt3-175b")
    parallel = ParallelismConfig.parse("8x4x8")
    profiled, measured = _emulate_pair(model, parallel, settings)
    dpro = dpro_replay(profiled)
    comparison = compare_breakdowns("gpt3-175b:8x4x8", compute_breakdown(measured),
                                    dpro.breakdown())
    actual_overlap = comparison.actual.overlapped
    dpro_overlap = comparison.predicted.overlapped
    return MotivationComparison(
        actual=comparison,
        dpro_overlap_ratio=dpro_overlap / max(actual_overlap, 1e-9),
        dpro_underestimates_total=comparison.predicted.total < comparison.actual.total,
    )


def run_sm_utilization(settings: EvaluationSettings | None = None,
                       bin_us: float = 1000.0) -> SMUtilizationComparison:
    """Figure 6: SM utilisation of GPT-3 15B at 2x2x4, actual vs Lumos vs dPRO."""
    settings = settings or EvaluationSettings.default()
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse("2x2x4")
    profiled, measured = _emulate_pair(model, parallel, settings)
    rank = measured.ranks()[0]
    lumos = replay(profiled)
    dpro = dpro_replay(profiled)
    return SMUtilizationComparison(
        actual=sm_utilization_timeline(measured[rank], bin_us=bin_us),
        lumos=sm_utilization_timeline(lumos.replayed_trace[rank], bin_us=bin_us),
        dpro=sm_utilization_timeline(dpro.replayed_trace[rank], bin_us=bin_us),
    )


def run_parallelism_prediction(target_label: str, base_label: str = FIG7_BASE_CONFIG,
                               model_name: str = "gpt3-15b",
                               settings: EvaluationSettings | None = None) -> BreakdownComparison:
    """One Figure 7 bar pair: predict a scale-out configuration from the base trace.

    Tensor-parallel changes are refused with the study's
    :class:`~repro.api.errors.PredictError`.
    """
    settings = settings or EvaluationSettings.default()
    model = gpt3_model(model_name)
    base_parallel = ParallelismConfig.parse(base_label)
    profiled, _ = _emulate_pair(model, base_parallel, settings)
    study = Study.from_trace(profiled, model=model, parallelism=base_parallel,
                             training=settings.training())
    predicted = study.predict(target_label)

    _, measured = _emulate_pair(model, ParallelismConfig.parse(target_label), settings,
                                seed_offset=17)
    return compare_breakdowns(f"{model_name}:{target_label}", compute_breakdown(measured),
                              predicted.breakdown())


def run_architecture_prediction(variant_name: str, base_model_name: str = "gpt3-15b",
                                config_label: str = FIG7_BASE_CONFIG,
                                settings: EvaluationSettings | None = None) -> BreakdownComparison:
    """One Figure 8 bar pair: predict a model variant from the base model's trace."""
    settings = settings or EvaluationSettings.default()
    base_model = gpt3_model(base_model_name)
    target_model = GPT3_VARIANTS[variant_name] if variant_name in GPT3_VARIANTS \
        else gpt3_model(variant_name)
    parallel = ParallelismConfig.parse(config_label)
    profiled, _ = _emulate_pair(base_model, parallel, settings)
    study = Study.from_trace(profiled, model=base_model, parallelism=parallel,
                             training=settings.training())
    predicted = study.predict(target_model)

    _, measured = _emulate_pair(target_model, parallel, settings, seed_offset=23)
    return compare_breakdowns(f"{variant_name}:{config_label}", compute_breakdown(measured),
                              predicted.breakdown())
