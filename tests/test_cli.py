"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.observability import validate_chrome_trace


@pytest.fixture(scope="module")
def trace_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traces") / "bundle"
    exit_code = main([
        "emulate", "--model", "gpt3-15b", "--parallelism", "2x2x2",
        "--micro-batch-size", "1", "--num-microbatches", "2",
        "--iterations", "1", "--output", str(directory),
    ])
    assert exit_code == 0
    return directory


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_emulate_defaults(self):
        args = build_parser().parse_args(["emulate", "--output", "/tmp/x"])
        assert args.model == "gpt3-15b"
        assert args.parallelism == "2x2x4"

    def test_version_flag(self, capsys):
        from repro.version import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-lumos {__version__}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["predict", "sweep", "export-timeline"])
    def test_seed_is_an_emulate_flag_only(self, trace_directory, tmp_path, command,
                                          capsys):
        # Only the emulator reads a seed; the trace commands refuse one.
        argv = [command, "--trace", str(trace_directory), "--target", "2x2x4"]
        if command == "export-timeline":
            argv += ["--output", str(tmp_path / "timeline.json")]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestCommands:
    def test_emulate_writes_bundle(self, trace_directory):
        assert (trace_directory / "manifest.json").exists()

    def test_replay_command(self, trace_directory, capsys):
        assert main(["replay", "--trace", str(trace_directory)]) == 0
        output = capsys.readouterr().out
        assert "replayed iteration time" in output
        assert "exposed_comm_ms" in output

    def test_replay_with_dpro_baseline(self, trace_directory, capsys):
        assert main(["replay", "--trace", str(trace_directory), "--baseline", "dpro"]) == 0
        assert "replayed iteration time" in capsys.readouterr().out

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, trace_directory, unbuffered):
        # A reader that goes away (``| head``) must not cost a traceback,
        # whether the write fails in a print or in the final flush.
        src = str(Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "replay", "--trace", str(trace_directory)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        process.stdout.close()
        stderr = process.stderr.read().decode()
        assert process.wait() == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr

    def test_breakdown_command(self, trace_directory, capsys):
        assert main(["breakdown", "--trace", str(trace_directory)]) == 0
        assert "iteration time" in capsys.readouterr().out

    def test_replay_and_breakdown_tolerate_foreign_metadata(self, trace_directory,
                                                            tmp_path, capsys):
        # Trace bundles from other profilers may carry metadata outside
        # the GPT-3 registry; replay-only workflows must still work.
        from repro.trace.kineto import TraceBundle
        bundle = TraceBundle.load(trace_directory)
        bundle.metadata["model"] = "llama-405b"
        bundle.metadata["parallelism"] = "not-a-label"
        foreign = tmp_path / "foreign"
        bundle.save(foreign)
        assert main(["replay", "--trace", str(foreign)]) == 0
        assert main(["breakdown", "--trace", str(foreign)]) == 0
        assert "iteration time" in capsys.readouterr().out

    def test_predict_parallelism(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1", "--num-microbatches", "2",
            "--target", "parallelism:2x2x8",
        ])
        assert code == 0
        assert "predicted 2x2x8" in capsys.readouterr().out

    def test_predict_architecture(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1", "--num-microbatches", "2",
            "--target", "model:gpt3-v1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "gpt3-v1" in output
        # Both the base replay and the predicted target get a breakdown row.
        assert "base replay:" in output
        assert "predicted gpt3-v1:" in output
        assert "exposed_comm_ms" in output

    def test_predict_rejects_unknown_target_model(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "model:gpt9",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown model 'gpt9'" in err

    def test_predict_without_target_errors(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2",
        ])
        assert code == 2

    def test_predict_without_target_prints_usage(self, trace_directory, capsys):
        main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2",
        ])
        err = capsys.readouterr().err
        assert "predict requires a single --target" in err
        assert "usage:" in err

    def test_predict_rejects_tensor_parallelism_change(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "parallelism:4x2x2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "tensor" in err
        assert "4x2x2" in err

    def test_predict_tp_mismatch_is_a_typed_library_error(self, trace_directory):
        # The rule lives in the library, not in CLI string handling: the
        # same target raises PredictError when driven through the API.
        from repro.api import PredictError, Study
        study = Study.from_trace(trace_directory, model="gpt3-15b",
                                 parallelism="2x2x2")
        with pytest.raises(PredictError, match="tensor parallelism"):
            study.predict("4x2x2")

    def test_sweep_with_inline_axes(self, trace_directory, tmp_path, capsys):
        argv = [
            "sweep", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "parallelism:2x2x4",
            "--whatif", "gemm:2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "evaluated 4 scenarios" in output
        assert "pareto frontier" in output
        # A repeated invocation is served entirely from the cache.
        assert main(argv) == 0
        assert "cache hits=4 misses=0 hit-rate=100%" in capsys.readouterr().out

    def test_sweep_with_spec_file(self, trace_directory, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"base": {"model": "gpt3-15b", "parallelism": "2x2x2",'
            ' "micro_batch_size": 1, "num_microbatches": 2},'
            ' "parallelism": ["2x2x4"], "include_baseline": false}',
            encoding="utf-8")
        assert main(["sweep", "--trace", str(trace_directory),
                     "--spec", str(spec), "--top", "1"]) == 0
        output = capsys.readouterr().out
        assert "evaluated 1 scenarios" in output
        assert "2x2x4" in output

    def test_sweep_without_axes_errors(self, trace_directory, capsys):
        assert main(["sweep", "--trace", str(trace_directory)]) == 2
        err = capsys.readouterr().err
        assert "sweep requires --spec or --target" in err
        assert "usage:" in err

    def test_sweep_reports_bad_whatif_cleanly(self, trace_directory, capsys):
        code = main(["sweep", "--trace", str(trace_directory),
                     "--target", "parallelism:2x2x4", "--whatif", "gemm"])
        assert code == 2
        assert "error: bad what-if 'gemm'" in capsys.readouterr().err

    def test_sweep_reports_unknown_model_cleanly(self, trace_directory, capsys):
        code = main(["sweep", "--trace", str(trace_directory),
                     "--target", "model:gpt9"])
        assert code == 2
        assert "error: unknown model 'gpt9'" in capsys.readouterr().err

    def test_sweep_reports_bad_spec_file_cleanly(self, trace_directory, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["sweep", "--trace", str(trace_directory), "--spec", str(bad)])
        assert code == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_sweep_reports_missing_trace_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "--trace", str(tmp_path / "nope"),
                     "--target", "parallelism:2x2x4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_reports_malformed_target_cleanly(self, trace_directory, capsys):
        code = main(["sweep", "--trace", str(trace_directory),
                     "--target", "parallelism:2x2"])
        assert code == 2
        assert "TPxPPxDP" in capsys.readouterr().err

    def test_sweep_rejects_tp_change(self, trace_directory, capsys):
        code = main([
            "sweep", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "parallelism:4x2x2",
        ])
        assert code == 2
        assert "tensor parallelism" in capsys.readouterr().err


@pytest.fixture(scope="module")
def serving_trace_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serving") / "bundle"
    exit_code = main([
        "emulate", "--workload", "serving", "--model", "gpt3-15b",
        "--parallelism", "2x1x1", "--requests", "2", "--prompt-length", "64",
        "--decode-length", "2", "--iterations", "1", "--output", str(directory),
    ])
    assert exit_code == 0
    return directory


class TestServingCommands:
    def test_emulate_serving_writes_bundle(self, serving_trace_directory, capsys):
        assert (serving_trace_directory / "manifest.json").exists()

    def test_emulate_serving_rejects_pipeline_parallelism(self, tmp_path, capsys):
        code = main(["emulate", "--workload", "serving", "--parallelism", "2x2x1",
                     "--output", str(tmp_path / "x")])
        assert code == 2
        assert "pipeline parallelism" in capsys.readouterr().err

    def test_emulate_serving_rejects_non_dividing_tp(self, tmp_path, capsys):
        # Raised inside the builder, not the pre-check: still exit 2.
        code = main(["emulate", "--workload", "serving", "--parallelism", "3x1x1",
                     "--output", str(tmp_path / "x")])
        assert code == 2
        assert "does not divide" in capsys.readouterr().err

    def test_predict_serving_target(self, serving_trace_directory, capsys):
        code = main(["predict", "--trace", str(serving_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:batch=4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted batch=4" in out
        assert "base replay" in out

    def test_predict_rejects_two_targets(self, serving_trace_directory, capsys):
        code = main(["predict", "--trace", str(serving_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:batch=4", "--target", "model:gpt3-v1"])
        assert code == 2
        assert "a single --target" in capsys.readouterr().err

    def test_predict_serving_on_training_trace_errors(self, trace_directory, capsys):
        code = main(["predict", "--trace", str(trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x2x2",
                     "--micro-batch-size", "1", "--num-microbatches", "2",
                     "--target", "serving:batch=4"])
        assert code == 2
        assert "training iteration" in capsys.readouterr().err

    def test_predict_parallelism_on_serving_trace_errors(self, serving_trace_directory,
                                                         capsys):
        code = main(["predict", "--trace", str(serving_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "parallelism:2x1x2"])
        assert code == 2
        assert "serving episode" in capsys.readouterr().err

    def test_predict_malformed_serving_target_errors(self, serving_trace_directory,
                                                     capsys):
        code = main(["predict", "--trace", str(serving_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:decode=4"])
        assert code == 2
        assert "topology" in capsys.readouterr().err

    def test_sweep_serving_axis(self, serving_trace_directory, capsys):
        code = main(["sweep", "--trace", str(serving_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:batch=4", "--target", "serving:tp=1",
                     "--whatif", "decode_attention:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch=4" in out
        assert "tp=1" in out
        assert "decode_attention x2" in out

    def test_sweep_serving_axis_on_training_trace_errors(self, trace_directory, capsys):
        code = main(["sweep", "--trace", str(trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x2x2",
                     "--micro-batch-size", "1", "--num-microbatches", "2",
                     "--target", "serving:batch=4"])
        assert code == 2
        assert "inference base" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stream_trace_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stream") / "bundle"
    exit_code = main([
        "emulate", "--workload", "serving", "--model", "gpt3-15b",
        "--parallelism", "2x1x1", "--requests", "4", "--prompt-length", "64",
        "--decode-length", "2", "--arrival", "poisson:rate=600,n=6,seed=3",
        "--iterations", "1", "--output", str(directory),
    ])
    assert exit_code == 0
    return directory


class TestStreamCommands:
    def test_emulate_stream_reports_arrival(self, tmp_path, capsys):
        code = main([
            "emulate", "--workload", "serving", "--model", "gpt3-15b",
            "--parallelism", "2x1x1", "--requests", "2", "--prompt-length", "64",
            "--decode-length", "2", "--arrival", "trace:0,1.5,4",
            "--iterations", "1", "--output", str(tmp_path / "bundle"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving stream (trace:0,1.5,4, batch cap 2, 64+2 tokens)" in out

    def test_emulate_rejects_malformed_arrival(self, tmp_path, capsys):
        code = main([
            "emulate", "--workload", "serving", "--parallelism", "2x1x1",
            "--arrival", "weibull:rate=10", "--output", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_predict_prints_serving_metrics(self, stream_trace_directory, capsys):
        code = main(["predict", "--trace", str(stream_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:prompt=128", "--slo-ms", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted prompt=128" in out
        assert "serving metrics (SLO 40 ms):" in out
        # Both the base stream and the predicted target get a metrics row.
        assert "  base: ttft p50/p99" in out
        assert "  prompt=128: ttft p50/p99" in out
        assert "goodput" in out
        assert "within SLO" in out

    @pytest.mark.parametrize("slo_ms", ["nan", "inf", "0", "-5"])
    @pytest.mark.parametrize("trace, target", [
        ("stream_trace_directory", ["--parallelism", "2x1x1",
                                    "--target", "serving:prompt=128"]),
        ("trace_directory", ["--parallelism", "2x2x2", "--micro-batch-size", "1",
                             "--num-microbatches", "2", "--target", "2x2x4"]),
    ], ids=["stream", "training"])
    def test_predict_refuses_a_bad_slo(self, request, trace, target, slo_ms, capsys):
        code = main(["predict", "--trace", str(request.getfixturevalue(trace)),
                     "--model", "gpt3-15b", *target, f"--slo-ms={slo_ms}"])
        assert code == 2
        assert "slo_ms must be a positive finite number" in capsys.readouterr().err

    def test_predict_unified_target_auto_detects_parallelism(self, trace_directory,
                                                             capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "2x2x8",
        ])
        assert code == 0
        assert "predicted 2x2x8" in capsys.readouterr().out

    def test_predict_rejects_two_unified_targets(self, stream_trace_directory,
                                                 capsys):
        code = main(["predict", "--trace", str(stream_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "batch=2", "--target", "serving:prompt=128"])
        assert code == 2
        assert "a single --target" in capsys.readouterr().err

    def test_sweep_unified_targets_rank_by_goodput(self, stream_trace_directory,
                                                   capsys):
        code = main(["sweep", "--trace", str(stream_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:prompt=32",
                     "--target", "serving:prompt=128", "--slo-ms", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput_rps" in out
        assert "ttft_p99_ms" in out
        assert "prompt=32" in out
        assert "prompt=128" in out

    def test_export_timeline_emits_request_tracks(self, stream_trace_directory,
                                                  tmp_path, capsys):
        output = tmp_path / "stream.json"
        code = main(["export-timeline", "--trace", str(stream_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:prompt=128", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-request tracks:" in out
        payload = json.loads(output.read_text(encoding="utf-8"))
        validate_chrome_trace(payload)
        assert payload["otherData"]["sections"] == ["profiled", "replayed",
                                                    "prompt=128"]
        assert payload["otherData"]["request_tracks"] == ["replayed",
                                                          "prompt=128"]
        request_events = [e for e in payload["traceEvents"]
                          if e.get("cat") == "serving-request"]
        assert len(request_events) == 2 * 6 * 2  # 2 spans x 6 requests x 2 tracks


class TestObservabilityCommands:
    def test_profile_flag_writes_a_run_report(self, trace_directory, tmp_path, capsys):
        report_path = tmp_path / "profile.json"
        assert main(["replay", "--trace", str(trace_directory),
                     "--profile", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote pipeline profile to {report_path}" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["schema"] == 1
        assert report["enabled"] is True
        assert report["label"] == "replay"
        assert "study.replay" in report["stages"]
        assert "engine.compile_graph" in report["stages"]
        assert report["wall_time_us"] > 0

    def test_profile_flag_preserves_failure_exit_codes(self, trace_directory,
                                                       tmp_path, capsys):
        report_path = tmp_path / "failed.json"
        code = main(["sweep", "--trace", str(trace_directory),
                     "--profile", str(report_path)])
        assert code == 2  # sweep without axes still fails
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["label"] == "sweep"

    def test_profile_flag_reports_unwritable_path(self, trace_directory,
                                                  tmp_path, capsys):
        code = main(["replay", "--trace", str(trace_directory),
                     "--profile", str(tmp_path / "missing-dir" / "p.json")])
        assert code == 2
        assert "cannot write pipeline profile" in capsys.readouterr().err

    def test_export_timeline_writes_valid_chrome_trace(self, trace_directory,
                                                       tmp_path, capsys):
        output = tmp_path / "timeline.json"
        code = main(["export-timeline", "--trace", str(trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x2x2",
                     "--micro-batch-size", "1", "--num-microbatches", "2",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chrome-trace events" in out
        assert "perfetto" in out
        payload = json.loads(output.read_text(encoding="utf-8"))
        validate_chrome_trace(payload)
        assert payload["otherData"]["sections"] == ["profiled", "replayed"]

    def test_export_timeline_with_serving_target(self, serving_trace_directory,
                                                 tmp_path, capsys):
        output = tmp_path / "serving.json"
        code = main(["export-timeline", "--trace", str(serving_trace_directory),
                     "--model", "gpt3-15b", "--parallelism", "2x1x1",
                     "--target", "serving:batch=4", "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text(encoding="utf-8"))
        validate_chrome_trace(payload)
        assert payload["otherData"]["sections"] == ["profiled", "replayed",
                                                    "batch=4"]

    def test_export_timeline_reports_missing_trace_cleanly(self, tmp_path, capsys):
        code = main(["export-timeline", "--trace", str(tmp_path / "nope"),
                     "--output", str(tmp_path / "out.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestHardwareCli:
    def test_predict_hardware_target(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "gpu=H200-SXM",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "gpu=H200-SXM" in output
        assert "base replay:" in output

    def test_predict_composite_target(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2",
            "--target", "parallelism=2x2x4,gpu=H200-SXM",
        ])
        assert code == 0
        assert "2x2x4+gpu=H200-SXM" in capsys.readouterr().out

    def test_predict_capacity_refusal_exits_2(self, trace_directory, tmp_path,
                                              capsys):
        # gpt3-15b training state needs ~67 GiB/rank at TPxPP=4: a 1 GiB
        # part must be refused, through the CLI, with the typed message.
        spec = tmp_path / "tiny-gpu.json"
        spec.write_text(json.dumps({
            "name": "TINY", "sm_count": 8, "bf16_tflops": 10.0,
            "fp32_tflops": 5.0, "memory_gb": 1.0,
            "memory_bandwidth_gbps": 100.0, "nvlink_bandwidth_gbps": 50.0,
        }), encoding="utf-8")
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", f"gpu={spec}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "would not fit" in err

    def test_predict_unknown_gpu_exits_2(self, trace_directory, capsys):
        code = main([
            "predict", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--target", "gpu=RTX-9090",
        ])
        assert code == 2
        assert "unknown GPU" in capsys.readouterr().err

    def test_sweep_crosses_hardware_axis(self, trace_directory, tmp_path, capsys):
        code = main([
            "sweep", "--trace", str(trace_directory), "--model", "gpt3-15b",
            "--parallelism", "2x2x2", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "2x2x4",
            "--target", "gpu=H200-SXM", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        output = capsys.readouterr().out
        # baseline + 2x2x4, each on the profiled part and on the H200.
        assert "evaluated 4 scenarios" in output
        assert "2x2x4+gpu=H200-SXM" in output

    def test_sweep_of_the_profiled_gpu_folds_onto_the_base(self, h100_base_trace,
                                                           capsys):
        # The retarget's memory bound refuses gpt3-15b 2x1x1 on any 80 GiB
        # part; naming the profiled H100 is the base, so the sweep reports
        # the base replay for it, as predict does, instead of exiting 2.
        code = main([
            "sweep", "--trace", str(h100_base_trace), "--model", "gpt3-15b",
            "--parallelism", "2x1x1", "--micro-batch-size", "1",
            "--num-microbatches", "2", "--target", "gpu=H100-SXM",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        rows = [line.split() for line in captured.out.splitlines()
                if line.startswith(("1 ", "2 "))]
        assert {(row[1], row[4]) for row in rows} == {("base", "588.3"),
                                                     ("gpu=H100-SXM", "588.3")}

    @pytest.mark.parametrize("name", [
        "target-parallelism", "target-model", "target-serving",
        "targets", "target-models", "serving",
    ])
    def test_removed_target_flags_are_rejected(self, trace_directory, name, capsys):
        # The pre-unification spellings are gone: argparse refuses them.
        flag = f"--{name}"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--trace", str(trace_directory), flag, "2x2x4"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 2x2x4" in capsys.readouterr().err
