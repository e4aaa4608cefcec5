"""Tests for declarative sweep specifications and their expansion."""

import json

import pytest

from repro.sweep.spec import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_PARALLELISM,
    ScenarioSpec,
    SweepSpec,
    SweepSpecError,
    WhatIfSpec,
    scenario_cache_key,
)


class TestWhatIfSpec:
    def test_kernel_class_describe(self):
        spec = WhatIfSpec(kind="kernel_class", op_class="gemm", speedup=2.0)
        assert spec.describe() == "gemm x2"

    def test_communication_defaults_to_all_groups(self):
        assert WhatIfSpec(kind="communication").describe() == "all-comm x2"
        assert WhatIfSpec(kind="communication", group="dp").describe() == "dp-comm x2"

    def test_launch_overhead_is_always_infinite(self):
        spec = WhatIfSpec.from_json({"kind": "launch_overhead"})
        assert spec.speedup == float("inf")
        assert spec.describe() == "zero-launch"

    def test_json_roundtrip_preserves_infinity(self):
        spec = WhatIfSpec(kind="kernel_class", op_class="attention", speedup=float("inf"))
        payload = json.loads(json.dumps(spec.to_json()))
        assert WhatIfSpec.from_json(payload) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(SweepSpecError):
            WhatIfSpec(kind="teleportation")

    def test_kernel_class_requires_op_class(self):
        with pytest.raises(SweepSpecError):
            WhatIfSpec(kind="kernel_class")

    def test_non_positive_speedup_rejected(self):
        with pytest.raises(SweepSpecError):
            WhatIfSpec(kind="communication", speedup=0.0)

    def test_nan_speedup_rejected_in_every_spelling(self):
        # ``speedup <= 0`` is false for NaN, which let NaN rows through.
        with pytest.raises(SweepSpecError, match="positive"):
            WhatIfSpec.parse("gemm:nan")
        with pytest.raises(SweepSpecError, match="positive"):
            WhatIfSpec.from_json({"kind": "kernel_class", "op_class": "gemm",
                                  "speedup": "nan"})
        with pytest.raises(SweepSpecError, match="positive"):
            WhatIfSpec(kind="communication", speedup=float("nan"))
        assert WhatIfSpec.parse("gemm:inf").speedup == float("inf")

    @pytest.mark.parametrize("text, expected", [
        ("launch", WhatIfSpec(kind="launch_overhead", speedup=float("inf"))),
        ("gemm:2", WhatIfSpec(kind="kernel_class", op_class="gemm", speedup=2.0)),
        ("comm:dp:4", WhatIfSpec(kind="communication", group="dp", speedup=4.0)),
        ("comm:1.5", WhatIfSpec(kind="communication", speedup=1.5)),
        ("comm::inf", WhatIfSpec(kind="communication", speedup=float("inf"))),
    ])
    def test_parse_compact_cli_form(self, text, expected):
        assert WhatIfSpec.parse(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(SweepSpecError):
            WhatIfSpec.parse("gemm")
        with pytest.raises(SweepSpecError):
            WhatIfSpec.parse("gemm:fast")


class TestExpansion:
    def _spec(self, **overrides):
        defaults = dict(base_model="gpt3-15b", base_parallelism="2x2x2",
                        micro_batch_size=1, num_microbatches=2)
        defaults.update(overrides)
        return SweepSpec(**defaults)

    def test_baseline_only(self):
        scenarios = self._spec().expand()
        assert [s.kind for s in scenarios] == [KIND_BASELINE]
        assert scenarios[0].label == "base"

    def test_grid_is_configurations_times_whatif_variants(self):
        spec = self._spec(parallelism=("2x2x4", "2x4x2"), models=("gpt3-v1",),
                          whatif=(WhatIfSpec(kind="kernel_class", op_class="gemm"),
                                  WhatIfSpec(kind="launch_overhead")))
        scenarios = spec.expand()
        # (baseline + 2 parallelism + 1 model) x (none + 2 what-if) = 12
        assert len(scenarios) == 12
        assert sum(1 for s in scenarios if s.whatif is None) == 4
        assert sum(1 for s in scenarios if s.kind == KIND_ARCHITECTURE) == 3

    def test_labels_are_unique(self):
        spec = self._spec(parallelism=("2x2x4",), models=("gpt3-v1",),
                          whatif=(WhatIfSpec(kind="communication", group="dp"),))
        labels = [s.label for s in spec.expand()]
        assert len(labels) == len(set(labels))

    def test_duplicate_configurations_collapse(self):
        spec = self._spec(parallelism=("2x2x4", "2x2x4"))
        kinds = [(s.kind, s.target) for s in spec.expand()]
        assert kinds.count((KIND_PARALLELISM, "2x2x4")) == 1

    def test_exclude_baseline(self):
        spec = self._spec(parallelism=("2x2x4",), include_baseline=False)
        assert all(s.kind != KIND_BASELINE for s in spec.expand())


class TestValidation:
    def test_tensor_parallelism_change_rejected(self):
        spec = SweepSpec(base_parallelism="2x2x2", parallelism=("4x2x2",))
        with pytest.raises(SweepSpecError, match="tensor parallelism"):
            spec.validate()

    def test_unknown_model_rejected(self):
        spec = SweepSpec(models=("gpt5-900t",))
        with pytest.raises(SweepSpecError, match="unknown model"):
            spec.validate()

    def test_unknown_base_model_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown model"):
            SweepSpec(base_model="not-a-model").validate()

    def test_malformed_label_rejected(self):
        spec = SweepSpec(base_parallelism="2x2x2", parallelism=("2x2",))
        with pytest.raises(SweepSpecError, match="TPxPPxDP"):
            spec.validate()

    def test_excessive_pipeline_parallelism_rejected(self):
        spec = SweepSpec(base_model="gpt3-15b", base_parallelism="2x2x2",
                         parallelism=("2x64x1",))
        with pytest.raises(ValueError):
            spec.validate()

    def test_empty_grid_rejected(self):
        spec = SweepSpec(include_baseline=False)
        with pytest.raises(SweepSpecError, match="zero scenarios"):
            spec.validate()

    def test_valid_spec_passes(self):
        SweepSpec(base_parallelism="2x2x2", parallelism=("2x2x4",),
                  models=("gpt3-v1",)).validate()


class TestSerialisation:
    def test_json_roundtrip(self):
        spec = SweepSpec(base_model="gpt3-15b", base_parallelism="2x2x4",
                         micro_batch_size=2, num_microbatches=4,
                         parallelism=("2x2x8",), models=("gpt3-v2",),
                         whatif=(WhatIfSpec(kind="communication", group="pp"),),
                         include_baseline=False)
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_file_roundtrip(self, tmp_path):
        spec = SweepSpec(parallelism=("2x2x8",))
        path = tmp_path / "spec.json"
        spec.save(path)
        assert SweepSpec.load(path) == spec

    def test_coerce_accepts_spec_mapping_and_path(self, tmp_path):
        spec = SweepSpec(parallelism=("2x2x8",))
        path = tmp_path / "spec.json"
        spec.save(path)
        assert SweepSpec.coerce(spec) is spec
        assert SweepSpec.coerce(spec.to_json()) == spec
        assert SweepSpec.coerce(path) == spec
        with pytest.raises(SweepSpecError):
            SweepSpec.coerce(42)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SweepSpecError, match="not valid JSON"):
            SweepSpec.load(path)

    def test_scenario_roundtrip(self):
        scenario = ScenarioSpec(kind=KIND_PARALLELISM, target="2x4x4",
                                whatif=WhatIfSpec(kind="launch_overhead",
                                                  speedup=float("inf")))
        assert ScenarioSpec.from_json(scenario.to_json()) == scenario

    def test_cache_key_depends_on_base_configuration(self):
        scenario = ScenarioSpec(kind=KIND_PARALLELISM, target="2x2x8")
        key_a = scenario_cache_key(SweepSpec(base_parallelism="2x2x2"), scenario)
        key_b = scenario_cache_key(SweepSpec(base_parallelism="2x2x4"), scenario)
        assert key_a != key_b


class TestServingSpecs:
    def _serving_spec(self, **overrides):
        from repro.workload.inference import InferenceConfig
        base = dict(base_model="gpt3-15b", base_parallelism="2x1x1",
                    inference=InferenceConfig(batch_size=8, prompt_length=512,
                                              decode_length=16),
                    serving=("batch=16", "tp=4,prompt=1024"))
        base.update(overrides)
        return SweepSpec(**base)

    def test_serving_spec_roundtrips_through_json(self, tmp_path):
        spec = self._serving_spec()
        assert SweepSpec.from_json(spec.to_json()) == spec
        path = tmp_path / "serving.json"
        spec.save(path)
        assert SweepSpec.load(path) == spec

    def test_serving_configurations_use_canonical_labels(self):
        from repro.core.manipulation import KIND_SERVING
        configs = [(t.kind, t.label) for t in self._serving_spec().configurations()]
        assert (KIND_SERVING, "batch=16") in configs
        # Keys are re-ordered canonically so equal targets memoize together.
        assert (KIND_SERVING, "prompt=1024,tp=4") in configs

    @pytest.mark.parametrize("slo_ms", [0.0, -5.0, float("nan"), float("inf")])
    def test_slo_must_be_positive_and_finite(self, slo_ms):
        with pytest.raises(SweepSpecError, match="slo_ms"):
            self._serving_spec(slo_ms=slo_ms).validate()
        payload = json.loads(json.dumps(self._serving_spec().to_json()))
        payload["base"]["slo_ms"] = str(slo_ms)
        with pytest.raises(SweepSpecError, match="slo_ms"):
            SweepSpec.from_json(payload).validate()

    def test_serving_axis_requires_inference_base(self):
        with pytest.raises(SweepSpecError, match="inference base"):
            SweepSpec(serving=("batch=16",)).validate()

    def test_training_axes_rejected_on_serving_base(self):
        with pytest.raises(SweepSpecError, match="training bases"):
            self._serving_spec(parallelism=("2x1x2",), serving=()).validate()

    def test_serving_base_needs_no_registry_model(self):
        self._serving_spec(base_model="custom-llm").validate()

    def test_pp_base_rejected(self):
        with pytest.raises(SweepSpecError, match="pipeline parallelism"):
            self._serving_spec(base_parallelism="2x2x1").validate()

    def test_tp1_base_cannot_reshard_up(self):
        with pytest.raises(SweepSpecError, match="TP=1 base"):
            self._serving_spec(base_parallelism="1x1x1",
                               serving=("tp=2",)).validate()

    def test_stream_base_refuses_a_new_batch_cap(self):
        # The cap drives a continuous-batching stream's admission schedule;
        # validate() refuses a new one, as the study would at derive time.
        from repro.workload.arrivals import parse_arrival
        from repro.workload.inference import InferenceConfig
        stream = InferenceConfig(batch_size=4, prompt_length=512, decode_length=2,
                                 arrival=parse_arrival("poisson:rate=400,n=4,seed=1"))
        with pytest.raises(SweepSpecError, match="re-emulate"):
            self._serving_spec(inference=stream, serving=("batch=8",)).validate()
        # The base's own cap is the base, and other knobs keep the schedule.
        self._serving_spec(inference=stream,
                           serving=("batch=4", "prompt=1024", "tp=1")).validate()

    def test_malformed_serving_target_rejected(self):
        with pytest.raises(SweepSpecError, match="topology"):
            self._serving_spec(serving=("decode=32",)).validate()

    def test_non_dividing_tp_target_rejected_up_front(self):
        # gpt3-15b has 48 heads / 51200 vocab: tp=3 truncates the shards,
        # and validate() must say so before any replay/calibration work.
        with pytest.raises(SweepSpecError, match="does not divide"):
            self._serving_spec(serving=("tp=3",)).validate()
        # Custom base models can only be resolved by the owning study, so
        # the same target defers to evaluation-time validation there.
        self._serving_spec(base_model="custom-llm", serving=("tp=3",)).validate()

    def test_cache_key_depends_on_inference_base(self):
        from repro.core.manipulation import KIND_SERVING
        from repro.workload.inference import InferenceConfig
        scenario = ScenarioSpec(kind=KIND_SERVING, target="batch=16")
        key_a = scenario_cache_key(self._serving_spec(), scenario)
        key_b = scenario_cache_key(
            self._serving_spec(inference=InferenceConfig(batch_size=4)), scenario)
        assert key_a != key_b

    def test_training_base_json_is_unchanged_by_the_serving_fields(self):
        # Training cache keys must not move: the serving keys only appear
        # in serving-base payloads.
        payload = SweepSpec().base_json()
        assert "inference" not in payload
        assert set(payload) == {"model", "parallelism", "micro_batch_size",
                                "num_microbatches"}


class TestHardwareAxis:
    def _spec(self, **overrides):
        defaults = dict(base_model="gpt3-15b", base_parallelism="2x2x2",
                        parallelism=("2x2x4",), hardware=("H200-SXM",))
        defaults.update(overrides)
        return SweepSpec(**defaults)

    def test_json_roundtrip(self):
        spec = self._spec()
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert spec.to_json()["hardware"] == ["H200-SXM"]

    def test_empty_axis_is_omitted_from_json(self):
        # Pre-hardware sweep specs must keep their cache keys.
        assert "hardware" not in SweepSpec().to_json()

    def test_axis_crosses_the_configuration_grid(self):
        configs = [(t.kind, t.label) for t in self._spec().configurations()]
        # Every workload config appears unretargeted (the profiled-GPU
        # reference column) and once per listed GPU.
        assert (KIND_BASELINE, "2x2x2") in configs
        assert (KIND_PARALLELISM, "2x2x4") in configs
        assert ("hardware", "gpu=H200-SXM") in configs
        assert ("parallelism+hardware", "2x2x4+gpu=H200-SXM") in configs
        assert len(configs) == 4

    def test_gpu_names_canonicalise(self):
        spec = self._spec(hardware=("h200_sxm", "gpu=H200-SXM"))
        configs = [(t.kind, t.label) for t in spec.configurations()]
        assert configs.count(("hardware", "gpu=H200-SXM")) == 1

    def test_unknown_gpu_rejected(self):
        with pytest.raises(SweepSpecError, match="unknown GPU"):
            self._spec(hardware=("RTX-9090",)).validate()

    def test_spec_file_paths_rejected(self):
        with pytest.raises(SweepSpecError, match="registry GPU names"):
            self._spec(hardware=("/tmp/custom.json",)).validate()

    def test_registry_names_validate(self):
        self._spec(hardware=("H200-SXM", "B200", "A100-SXM")).validate()
