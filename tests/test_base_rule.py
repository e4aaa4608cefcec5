"""One base rule: every entry point resolves a trace's base the same way.

A trace's base configuration is what the caller names, else what the trace
metadata records, else the defaults (:func:`repro.api.study.resolve_base`).
These tests open one trace through each entry point — ``Study(...)``,
``Study.from_trace``, the CLI, ``repro.sweep`` / ``Study.sweep`` and the
service — and check that they agree.  The training trace is gpt3-15b
2x2x2 with micro-batch size 1 and 2 microbatches: its metadata records
the whole base (model, parallelism, micro-batch size and microbatch
count), so an entry point that names nothing opens the profiled base.  A
bundle saved before the emulator recorded the micro-batch size opens at
the default one unless it is named.  A JSON spec run on a study takes the
base keys it omits from the study.
"""

from __future__ import annotations

import json
import re

import pytest

import repro
from repro.api import Study, StudyError
from repro.api.study import BASE_DEFAULTS, resolve_base
from repro.cli import main
from repro.emulator.api import emulate
from repro.service import ProtocolError, ServiceApp, Worker, bundle_to_json
from repro.service.protocol import CODE_STUDY_ERROR, PROTOCOL_VERSION
from repro.trace.kineto import TraceBundle
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig
from tests.conftest import tiny_model

FLAGS = ["--model", "gpt3-15b", "--parallelism", "2x2x2",
         "--micro-batch-size", "1", "--num-microbatches", "2"]
SPEC = {"parallelism": ["2x2x4", "2x4x2"], "whatif": [{"kind": "launch_overhead"}]}


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("base-rule") / "bundle"
    emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x2x2"),
            TrainingConfig(micro_batch_size=1, num_microbatches=2),
            iterations=1, seed=0).profiled.save(directory)
    return directory


@pytest.fixture(scope="module")
def bundle(trace_dir):
    return TraceBundle.load(trace_dir)


@pytest.fixture(scope="module")
def unrecorded(bundle):
    """The same trace with neither its model nor its parallelism recorded."""
    stripped = TraceBundle(metadata={"num_microbatches": 2})
    for rank in bundle.ranks():
        stripped.add(bundle[rank])
    return stripped


def _rows(results) -> list[tuple]:
    return [(row["label"], row["world_size"], row["iteration_time_us"])
            for row in results]


class TestResolveBase:
    def test_named_then_recorded_then_defaults(self):
        base, guessed = resolve_base(
            {"model": "gpt3-v1", "parallelism": "2x2x2", "num_microbatches": 2},
            {"parallelism": "2x4x2", "micro_batch_size": None})
        assert base == {"model": "gpt3-v1", "parallelism": "2x4x2",
                        "micro_batch_size": BASE_DEFAULTS["micro_batch_size"],
                        "num_microbatches": 2}
        assert not guessed

    def test_a_named_spelling_is_kept_canonical(self):
        # One base, one cache key: a sweep spec built from the CLI's
        # ``--model GPT3-15B`` must match the study that flag opens.
        base, _ = resolve_base({}, {"model": "GPT3-15B", "parallelism": "2x2x2",
                                    "micro_batch_size": "1"})
        assert (base["model"], base["micro_batch_size"]) == ("gpt3-15b", 1)

    def test_unresolvable_metadata_is_a_guess(self):
        base, guessed = resolve_base({"model": "llama-405b", "parallelism": "weird"})
        assert (base["model"], base["parallelism"]) == ("gpt3-15b", "2x2x4")
        assert guessed
        _, guessed = resolve_base({}, {"model": "gpt3-15b", "parallelism": "2x2x2"})
        assert not guessed

    def test_serving_metadata_is_parsed_and_checked(self):
        inference = InferenceConfig(batch_size=4)
        base, _ = resolve_base({"workload": "serving", "inference": inference.to_json()})
        assert base["inference"] == inference
        with pytest.raises(StudyError, match="carries no inference configuration"):
            resolve_base({"workload": "serving"})
        with pytest.raises(StudyError, match="malformed inference configuration"):
            resolve_base({"workload": "serving", "inference": {"batch_size": "x"}})
        # A named block spares the trace's own.
        base, _ = resolve_base({"workload": "serving"}, {"inference": inference})
        assert base["inference"] is inference


class TestStudyEntryPoints:
    def test_constructor_matches_from_trace(self, bundle):
        direct, opened = Study(bundle), Study.from_trace(bundle)
        for study in (direct, opened):
            assert study.base_model.name == "gpt3-15b"
            assert study.base_parallel.label() == "2x2x2"
            assert study.training == TrainingConfig(micro_batch_size=1, num_microbatches=2)
        assert (direct.predict("2x4x2").iteration_time_us
                == opened.predict("2x4x2").iteration_time_us)

    def test_a_flagless_study_predicts_at_the_profiled_micro_batch_size(self, bundle):
        assert bundle.metadata["micro_batch_size"] == 1
        assert (Study.from_trace(bundle).predict("2x4x2").iteration_time_us
                == Study.from_trace(bundle, micro_batch_size=1)
                .predict("2x4x2").iteration_time_us)

    def test_named_batching_keeps_the_recorded_microbatches(self, bundle):
        study = Study.from_trace(bundle, micro_batch_size=1)
        assert study.training == TrainingConfig(micro_batch_size=1, num_microbatches=2)


class TestSweepEntryPoints:
    def test_a_json_spec_gets_one_base_everywhere(self, bundle, trace_dir, tmp_path):
        standalone = _rows(row.to_json() for row in repro.sweep(bundle, SPEC).results)
        via_study = _rows(row.to_json()
                          for row in Study.from_trace(bundle).sweep(SPEC).results)
        with ServiceApp(tmp_path / "svc", workers=0, traces={"t": trace_dir}) as app:
            job = app.submit({"version": PROTOCOL_VERSION, "kind": "sweep",
                              "trace": "t", "spec": SPEC})["job"]
            assert Worker(app.store, app.registry, app.cache_root).run_once()
            served = _rows(app.job_result(job["job_id"])["result"]["scenarios"])
        assert standalone == via_study == served
        assert len(standalone) == 6

    def test_a_json_spec_refuses_a_guessed_base(self, unrecorded):
        with pytest.raises(StudyError, match="guessed base configuration"):
            repro.sweep(unrecorded, SPEC)


class TestStudySweep:
    """A JSON spec run on a study takes the base keys it omits from the study,
    so it returns what the study's inline axes return."""

    MAPPING = {"parallelism": ["2x2x4"],
               "whatif": [{"kind": "kernel_class", "op_class": "gemm", "speedup": 2}]}

    @staticmethod
    def _as_inline(study, mapping, **axes):
        by_mapping, inline = study.sweep(mapping), study.sweep(**axes)
        assert (_rows(row.to_json() for row in by_mapping.results)
                == _rows(row.to_json() for row in inline.results))
        assert by_mapping.spec.base_json() == inline.spec.base_json()
        return by_mapping

    def test_an_emulated_training_study(self):
        study = Study.from_emulation(
            "gpt3-15b", "2x2x2", TrainingConfig(micro_batch_size=1, num_microbatches=2),
            iterations=1, seed=1)
        swept = self._as_inline(study, self.MAPPING, parallelism=["2x2x4"],
                                whatif=["gemm:2"])
        assert len(swept) == 4

    def test_a_bundle_that_does_not_record_its_micro_batch_size(self, bundle):
        older = TraceBundle(metadata={key: value for key, value in bundle.metadata.items()
                                      if key != "micro_batch_size"})
        for rank in bundle.ranks():
            older.add(bundle[rank])
        study = Study.from_trace(older, micro_batch_size=1)
        swept = self._as_inline(study, self.MAPPING, parallelism=["2x2x4"],
                                whatif=["gemm:2"])
        assert swept.spec.micro_batch_size == 1

    def test_a_custom_model_serving_study(self):
        study = Study.from_emulation(
            tiny_model(), "2x1x1",
            inference=InferenceConfig(batch_size=4, prompt_length=64, decode_length=2),
            iterations=1, seed=1)
        swept = self._as_inline(study, {"serving": ["batch=8"]}, serving=["batch=8"])
        assert len(swept) == 2
        assert swept.spec.base_model == "tiny-gpt"


class TestServiceAdmission:
    def test_a_guessed_base_is_refused_before_anything_is_queued(self, unrecorded,
                                                                 tmp_path):
        body = {"version": PROTOCOL_VERSION, "kind": "predict",
                "bundle": bundle_to_json(unrecorded), "target": "2x2x8"}
        with ServiceApp(tmp_path / "svc", workers=0) as app:
            with pytest.raises(ProtocolError) as excinfo:
                app.submit(body)
            assert excinfo.value.code == CODE_STUDY_ERROR
            assert excinfo.value.status == 400
            assert "guessed base configuration" in str(excinfo.value)
            assert app.store.queue_depth() == 0
            named = {**body, "base": {"model": "gpt3-15b", "parallelism": "2x2x2"}}
            job = app.submit(named)["job"]
            assert job["state"] == "queued"
            assert app.store.queue_depth() == 1

    def test_a_model_the_study_cannot_open_is_refused_before_anything_is_queued(
            self, tmp_path):
        serving = emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x1x1"),
                          inference=InferenceConfig(batch_size=2, prompt_length=64,
                                                    decode_length=4),
                          iterations=1, seed=1).profiled
        upload = {"version": PROTOCOL_VERSION, "bundle": bundle_to_json(serving),
                  "base": {"model": "my-custom"}}
        with ServiceApp(tmp_path / "svc", workers=0) as app:
            for job in ({"kind": "sweep", "targets": ["batch=4"]},
                        {"kind": "predict", "target": "batch=4"}):
                with pytest.raises(ProtocolError) as excinfo:
                    app.submit({**upload, **job})
                assert excinfo.value.code == CODE_STUDY_ERROR
                assert excinfo.value.status == 400
                assert "unknown model 'my-custom'" in str(excinfo.value)
            assert app.store.queue_depth() == 0


def _cli(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestCommandLine:
    @pytest.mark.parametrize("command", [
        ["predict", "--target", "2x4x2"],
        ["sweep", "--target", "2x4x2", "--whatif", "gemm:2"],
    ])
    def test_flags_default_to_the_trace(self, trace_dir, capsys, command):
        def run(flags):
            output = _cli([*command, "--trace", str(trace_dir), *flags], capsys)
            # A sweep report states its own wall time.
            return re.sub(r" in \S+ s \(\S+ scenarios/s", "", output)

        assert run(["--micro-batch-size", "1"]) == run(FLAGS)

    def test_export_timeline_defaults_to_the_trace(self, trace_dir, tmp_path, capsys):
        payloads = []
        for index, flags in enumerate((["--micro-batch-size", "1"], FLAGS)):
            output = tmp_path / f"timeline-{index}.json"
            _cli(["export-timeline", "--trace", str(trace_dir), "--target", "2x4x2",
                  "--output", str(output), *flags], capsys)
            payloads.append(json.loads(output.read_text()))
        assert payloads[0] == payloads[1]

    def test_a_serving_trace_needs_no_flags(self, tmp_path, capsys):
        directory = tmp_path / "serving"
        emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x1x1"),
                inference=InferenceConfig(batch_size=2, prompt_length=64,
                                          decode_length=4),
                iterations=1, seed=1).profiled.save(directory)
        command = ["predict", "--trace", str(directory), "--target", "batch=4"]
        flagless = _cli(command, capsys)
        assert "predicted batch=4:" in flagless
        assert flagless == _cli([*command, "--model", "gpt3-15b",
                                 "--parallelism", "2x1x1"], capsys)
