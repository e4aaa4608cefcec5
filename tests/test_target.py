"""Tests for the unified prediction-target type.

:func:`repro.parse_target` is the single coercion point every
``Study.predict/whatif/sweep`` target routes through; these tests lock
its auto-detection, prefix handling and canonicalisation, plus
:func:`~repro.sweep.spec.inline_spec`, which decomposes target lists
onto a sweep spec's axes for the CLI and the service.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServingTarget, Study, Target, parse_target
from repro.api import (
    KIND_ARCHITECTURE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    KIND_SERVING,
    PredictError,
)
from repro.hardware.gpu import B200, H200_SXM, GPUSpec, gpu_names
from repro.sweep.spec import inline_spec
from repro.workload.inference import InferenceConfig
from repro.workload.parallelism import ParallelismConfig
from tests.conftest import hyp_max_examples, tiny_model


class TestParseTarget:
    def test_parallelism_auto_detected(self):
        target = parse_target("2x2x4")
        assert target == Target(KIND_PARALLELISM, "2x2x4")

    def test_serving_auto_detected_by_equals(self):
        target = parse_target("batch=16,prompt=256")
        assert target.kind == KIND_SERVING

    def test_model_name_is_the_fallback(self):
        target = parse_target("gpt3-44b")
        assert target == Target(KIND_ARCHITECTURE, "gpt3-44b")

    @pytest.mark.parametrize("text,kind", [
        ("parallelism:2x2x4", KIND_PARALLELISM),
        ("serving:batch=16", KIND_SERVING),
        ("model:gpt3-44b", KIND_ARCHITECTURE),
        ("architecture:gpt3-44b", KIND_ARCHITECTURE),
    ])
    def test_explicit_prefixes(self, text, kind):
        assert parse_target(text).kind == kind

    def test_prefix_overrides_auto_detection(self):
        # A model whose name looks nothing like NxNxN still routes by prefix.
        assert parse_target("model:2x2x4").kind == KIND_ARCHITECTURE

    def test_serving_label_is_canonicalised(self):
        # Knob order must not create distinct memoization keys.
        a = parse_target("serving:tp=2,batch=16")
        b = parse_target("serving:batch=16,tp=2")
        assert a == b

    def test_typed_objects_map_to_their_kind(self):
        assert parse_target(ParallelismConfig.parse("2x2x4")) == \
            Target(KIND_PARALLELISM, "2x2x4")
        serving = ServingTarget.parse("batch=16")
        assert parse_target(serving) == Target(KIND_SERVING, serving.label())
        model = tiny_model()
        target = parse_target(model)
        assert (target.kind, target.label, target.model) == \
            (KIND_ARCHITECTURE, model.name, model)

    def test_target_passes_through(self):
        target = Target(KIND_PARALLELISM, "2x2x4")
        assert parse_target(target) is target

    @pytest.mark.parametrize("value", [
        "", "   ", "parallelism:", "serving:", "parallelism:2x2",
        "serving:decode=4", 42, None,
    ])
    def test_malformed_targets_raise_predict_error(self, value):
        with pytest.raises(PredictError):
            parse_target(value)

    def test_str_is_prefixed_label(self):
        assert str(Target(KIND_SERVING, "batch=16")) == "serving:batch=16"

    def test_target_validates_kind_and_payload(self):
        with pytest.raises(PredictError):
            Target("cluster", "x")
        with pytest.raises(PredictError):
            Target(KIND_SERVING, "batch=16", model=tiny_model())


class TestLegacyKeywordParity:
    """Every target kind goes through the one ``target`` argument; the
    removed ``model=`` / ``serving=`` keywords are refused."""

    @pytest.fixture(scope="class")
    def training_study(self):
        return Study.from_emulation(tiny_model(), "2x1x1", iterations=1, seed=11)

    @pytest.fixture(scope="class")
    def serving_study(self):
        inference = InferenceConfig(batch_size=4, prompt_length=64,
                                    decode_length=2)
        return Study.from_emulation(tiny_model(), "2x1x1", inference=inference,
                                    iterations=1, seed=11)

    def test_positional_parallelism_stays_undeprecated(self, training_study, recwarn):
        prediction = training_study.predict("2x1x2")
        assert prediction.label == "2x1x2"
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_two_kwargs_still_rejected(self, training_study):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            training_study.predict(model="gpt3-44b", serving="batch=2")

    def test_target_accepts_all_three_kinds(self, serving_study, training_study):
        assert training_study.predict("2x1x2").label == "2x1x2"
        assert training_study.predict("model:gpt3-44b").label == "gpt3-44b"
        assert serving_study.predict("serving:batch=2").label == "batch=2"


class TestSweepAxes:
    """Target strings onto the JSON spec :func:`inline_spec` builds."""

    def test_composite_target_fills_two_axes(self):
        assert inline_spec(["batch=8,gpu=H200-SXM"]) == {
            "parallelism": [], "models": [], "serving": ["batch=8"],
            "hardware": ["H200-SXM"], "whatif": [], "include_baseline": True}

    def test_hardware_spellings_give_one_entry(self):
        spec = inline_spec(["gpu=H200-SXM", "hardware:h200_sxm", "gpu=h200_sxm"])
        assert spec["hardware"] == ["H200-SXM"]

    def test_input_order_is_kept(self):
        spec = inline_spec(["2x2x8", "gpu=B200", "model:gpt3-v1", "2x1x4",
                            "gpu=H200-SXM", "model:gpt3-xl"], ["gemm:2", "launch"])
        assert spec == {"parallelism": ["2x2x8", "2x1x4"],
                        "models": ["gpt3-v1", "gpt3-xl"], "serving": [],
                        "hardware": ["B200", "H200-SXM"],
                        "whatif": [{"kind": "kernel_class", "op_class": "gemm",
                                    "speedup": 2.0},
                                   {"kind": "launch_overhead"}],
                        "include_baseline": True}


class TestHardwareTargets:
    """The composable v2 grammar: ``gpu=`` as a first-class axis."""

    def test_pure_hardware_auto_detected(self):
        target = parse_target("gpu=H200-SXM")
        assert target == Target(KIND_HARDWARE, "gpu=H200-SXM")

    def test_hardware_prefix(self):
        assert parse_target("hardware:H200-SXM") == \
            Target(KIND_HARDWARE, "gpu=H200-SXM")
        assert parse_target("hardware:gpu=H200-SXM") == \
            Target(KIND_HARDWARE, "gpu=H200-SXM")

    def test_gpu_name_is_canonicalised(self):
        # Registry lookup is case- and separator-insensitive; the label
        # always carries the marketing name, so every spelling shares one
        # memoization/cache key.
        for spelling in ("gpu=h200-sxm", "gpu=H200_SXM", "gpu=H200-SXM "):
            assert parse_target(spelling).label == "gpu=H200-SXM"

    def test_serving_composes_with_hardware(self):
        target = parse_target("tp=2,batch=16,gpu=B200")
        assert target.kind == "serving+hardware"
        assert target.label == "batch=16,tp=2+gpu=B200"
        assert target.manipulations == (
            (KIND_SERVING, "batch=16,tp=2"), (KIND_HARDWARE, "gpu=B200"))

    def test_parallelism_selector_composes_with_hardware(self):
        target = parse_target("parallelism=2x2x8,gpu=H200-SXM")
        assert target.kind == "parallelism+hardware"
        assert target.manipulations == (
            (KIND_PARALLELISM, "2x2x8"), (KIND_HARDWARE, "gpu=H200-SXM"))

    def test_model_selector_composes_with_hardware(self):
        target = parse_target("model=gpt3-44b,gpu=B200")
        assert target.manipulations == (
            (KIND_ARCHITECTURE, "gpt3-44b"), (KIND_HARDWARE, "gpu=B200"))

    def test_serving_prefix_composes_with_hardware(self):
        target = parse_target("serving:batch=64,gpu=B200")
        assert target.kind == "serving+hardware"
        assert target.label == "batch=64+gpu=B200"

    def test_gpu_spec_object_maps_to_hardware_kind(self):
        target = parse_target(H200_SXM)
        # Registry specs carry no payload: the label alone resolves them.
        assert target == Target(KIND_HARDWARE, "gpu=H200-SXM")
        custom = GPUSpec(name="X100", sm_count=100, bf16_tflops=500.0,
                         fp32_tflops=50.0, memory_gb=64.0,
                         memory_bandwidth_gbps=2000.0,
                         nvlink_bandwidth_gbps=400.0)
        resolved = parse_target(custom)
        assert resolved.label == "gpu=X100"
        assert resolved.gpu == custom

    def test_json_spec_file_target(self, tmp_path):
        path = tmp_path / "x100.json"
        path.write_text(
            '{"name": "X100", "sm_count": 100, "bf16_tflops": 500.0,'
            ' "fp32_tflops": 50.0, "memory_gb": 64.0,'
            ' "memory_bandwidth_gbps": 2000.0,'
            ' "nvlink_bandwidth_gbps": 400.0}', encoding="utf-8")
        target = parse_target(f"gpu={path}")
        assert target.label == "gpu=X100"
        assert target.gpu is not None and target.gpu.name == "X100"

    @pytest.mark.parametrize("text", [
        "gpu=",                            # empty value
        "gpu=NoSuchGPU",                   # unknown registry name
        "gpu=B200,gpu=H200-SXM",           # two hardware selections
        "parallelism=2x2x4,model=gpt3-44b,gpu=B200",  # two workload axes
        "parallelism=2x2x4,batch=16,gpu=B200",        # selector + serving knobs
        "hardware:batch=16",               # non-gpu item under hardware prefix
        "serving:parallelism=2x2x4,gpu=B200",         # selector/prefix mismatch
        "batch=16,,gpu=B200",              # empty item
    ])
    def test_malformed_composites_raise_predict_error(self, text):
        with pytest.raises(PredictError):
            parse_target(text)

    def test_equivalent_spellings_share_one_target(self):
        spellings = ["tp=2,gpu=B200", "gpu=b200,tp=2", "serving:tp=2,gpu=B200"]
        targets = {parse_target(text) for text in spellings}
        assert len(targets) == 1

    def test_composite_str_round_trips(self):
        for text in ("tp=2,batch=16,gpu=B200", "parallelism=2x2x8,gpu=H200-SXM",
                     "model=gpt3-44b,gpu=B200", "gpu=A100-SXM"):
            target = parse_target(text)
            assert parse_target(str(target)) == target

    def test_target_validates_composite_shape_and_gpu_payload(self):
        with pytest.raises(PredictError):
            Target("hardware+serving", "gpu=B200+batch=16")  # wrong order
        with pytest.raises(PredictError):
            Target("serving+hardware", "batch=16")  # segment count mismatch
        with pytest.raises(PredictError):
            Target(KIND_SERVING, "batch=16", gpu=B200)  # payload on wrong kind


def _target_strategy():
    parallelism = st.builds(
        lambda tp, pp, dp: Target(KIND_PARALLELISM, f"{tp}x{pp}x{dp}"),
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    architecture = st.sampled_from(
        ["gpt3-15b", "gpt3-44b", "tiny-gpt", "my-variant"]).map(
        lambda name: Target(KIND_ARCHITECTURE, name))
    serving = st.builds(
        lambda batch, prompt, tp: ServingTarget(
            batch_size=batch, prompt_length=prompt, tensor_parallel=tp),
        st.one_of(st.none(), st.integers(1, 64)),
        st.one_of(st.none(), st.integers(16, 2048)),
        st.one_of(st.none(), st.integers(1, 8)),
    ).filter(lambda s: s.label()).map(
        lambda s: Target(KIND_SERVING, s.label()))
    workload = st.one_of(parallelism, architecture, serving)
    gpu = st.sampled_from(sorted(gpu_names()))
    composite = st.builds(
        lambda w, name: Target(f"{w.kind}+{KIND_HARDWARE}",
                               f"{w.label}+gpu={name}"),
        workload, gpu)
    hardware = gpu.map(lambda name: Target(KIND_HARDWARE, f"gpu={name}"))
    return st.one_of(workload, hardware, composite)


class TestTargetRoundTripProperty:
    @settings(max_examples=hyp_max_examples(200), deadline=None)
    @given(target=_target_strategy())
    def test_parse_of_str_is_identity(self, target):
        assert parse_target(str(target)) == target
