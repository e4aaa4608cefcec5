"""Golden snapshot tests for the Study workflow.

Two canned traces (deterministic seeded emulations of the tiny test
transformer) are replayed, broken down, predicted and what-if'd through
the :class:`~repro.api.Study` facade, and the numeric outputs are compared
**exactly** against committed JSON snapshots under ``tests/goldens/``.

The engine's contract is bit-identical scheduling, so these numbers must
not move unless an algorithm changes on purpose — refactors like the
batched simulation kernel, session reuse or array-backend changes cannot
silently shift them.  After an intentional change, regenerate with::

    python -m pytest tests/test_goldens.py --update-goldens

and commit the resulting diff (it documents exactly what moved).
"""

from __future__ import annotations

import pytest

from repro.api import Study
from repro.workload.arrivals import parse_arrival
from repro.workload.inference import InferenceConfig
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model

#: The canned traces: name -> (emulation inputs, prediction targets).
#: Training cases predict parallelism labels; the serving case predicts
#: ``batch=/prompt=/tp=`` targets from an emulated inference episode.
_CASES = {
    "study_tiny_2x2x2": dict(
        model=tiny_model(),
        parallelism="2x2x2",
        training=TrainingConfig(micro_batch_size=1, num_microbatches=2,
                                sequence_length=512, gradient_bucket_layers=2),
        seed=7,
        predict_targets=("2x1x2", "2x2x4", "gpu=H200-SXM",
                         "parallelism=2x2x4,gpu=H200-SXM"),
    ),
    "study_tiny_1x2x2": dict(
        model=tiny_model(n_layers=2, d_model=512, name="tiny-gpt-narrow"),
        parallelism="1x2x2",
        training=TrainingConfig(micro_batch_size=2, num_microbatches=2,
                                sequence_length=256, gradient_bucket_layers=1),
        seed=9,
        predict_targets=("1x2x4",),
    ),
    "study_tiny_serving_2x1x1": dict(
        model=tiny_model(),
        parallelism="2x1x1",
        inference=InferenceConfig(batch_size=8, prompt_length=512,
                                  decode_length=4),
        seed=11,
        predict_targets=("gpu=H200-SXM", "batch=16,gpu=H200-SXM"),
        serving_targets=("batch=16", "prompt=1024", "tp=1"),
    ),
    "study_tiny_stream_2x1x1": dict(
        model=tiny_model(n_layers=2, d_model=4096, name="tiny-stream"),
        parallelism="2x1x1",
        inference=InferenceConfig(
            batch_size=4, prompt_length=512, decode_length=2,
            arrival=parse_arrival("poisson:rate=600,n=6,seed=3")),
        seed=7,
        predict_targets=("serving:prompt=1024",),
        serving_metrics=True,
    ),
}


@pytest.fixture(scope="module", params=sorted(_CASES))
def canned_study(request):
    case = _CASES[request.param]
    study = Study.from_emulation(case["model"], case["parallelism"],
                                 case.get("training"),
                                 inference=case.get("inference"),
                                 iterations=1, seed=case["seed"])
    return request.param, case, study


def _snapshot(case: dict, study: Study) -> dict:
    replay = study.replay()
    payload = {
        "replay": {
            "iteration_time_us": replay.iteration_time_us,
            "n_tasks": len(replay.graph),
            "n_dependencies": len(replay.graph.dependencies),
        },
        "breakdown": study.breakdown().as_dict(),
        "predict": {},
        "whatif": {},
    }
    if case.get("serving_metrics"):
        payload["serving"] = study.base_serving_metrics().to_json()
    for target in case.get("predict_targets", ()):
        prediction = study.predict(target)
        payload["predict"][target] = {
            "iteration_time_us": prediction.iteration_time_us,
            "world_size": prediction.world_size,
            "speedup_vs_base": prediction.speedup_vs_base,
        }
        if case.get("serving_metrics") and prediction.is_stream:
            payload["predict"][target]["serving"] = \
                prediction.serving_metrics().to_json()
    for target in case.get("serving_targets", ()):
        prediction = study.predict(f"serving:{target}")
        payload["predict"][target] = {
            "iteration_time_us": prediction.iteration_time_us,
            "world_size": prediction.world_size,
            "speedup_vs_base": prediction.speedup_vs_base,
        }
    for result in (study.whatif()
                   .kernel_class("gemm", 2.0)
                   .communication(2.0)
                   .launch_overhead()
                   .run()):
        payload["whatif"][result.name] = {
            "scenario_time_us": result.scenario_time_us,
            "affected_tasks": result.affected_tasks,
        }
    return payload


class TestGoldenSnapshots:
    def test_study_outputs_match_golden(self, canned_study, golden_check):
        name, case, study = canned_study
        golden_check(name, _snapshot(case, study))

    def test_snapshot_is_deterministic(self, canned_study):
        # The same study must serve identical numbers on repeated calls
        # (memoized replay, calibrate-once): a cheap within-run guard that
        # the golden comparison itself is meaningful.
        name, case, study = canned_study
        assert _snapshot(case, study) == _snapshot(case, study)
