"""Tests for the ``repro.api`` Study facade.

The acceptance-critical semantics live here: calibration runs exactly once
per study, repeated predictions of one target reuse the derived graph and
compiled session, the TP-mismatch rule is a typed library error, and
``Study.sweep`` produces the same results as the standalone runner while
skipping its private state preparation.
"""

import gc
import pickle
import weakref
from dataclasses import replace

import pytest

from repro.api import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    PredictError,
    Study,
    StudyError,
    Target,
    predict,
)
from repro.core.engine import SessionRun, SimulationSession
from repro.core.manipulation import dispatch
from repro.core.replay import replay
from repro.core.whatif import WhatIfResult, evaluate_scenarios, scenario_for
from repro.emulator.api import emulate
from repro.observability import coerce_bundle, profile
from repro.service.protocol import predict_result_payload
from repro.sweep import SweepSpec, WhatIfSpec, run_sweep
from repro.sweep.runner import open_study
from repro.workload.arrivals import parse_arrival
from repro.workload.inference import InferenceConfig
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig
from tests.conftest import H100_BASE_TIME_US, tiny_model

BASE_PARALLELISM = "2x1x2"
TRAINING = TrainingConfig(micro_batch_size=1, num_microbatches=2)


@pytest.fixture(scope="module")
def emulation():
    model = gpt3_model("gpt3-15b")
    parallel = ParallelismConfig.parse(BASE_PARALLELISM)
    return emulate(model, parallel, TRAINING, iterations=1, seed=11)


@pytest.fixture(scope="module")
def bundle(emulation):
    return emulation.profiled


@pytest.fixture(scope="module")
def saved_bundle(emulation, tmp_path_factory):
    directory = tmp_path_factory.mktemp("study") / "bundle"
    emulation.profiled.save(directory)
    return directory


@pytest.fixture()
def study(bundle):
    return Study.from_trace(bundle, model="gpt3-15b", parallelism=BASE_PARALLELISM,
                            training=TRAINING)


class TestConstruction:
    def test_from_trace_path(self, saved_bundle):
        study = Study.from_trace(saved_bundle, model="gpt3-15b",
                                 parallelism=BASE_PARALLELISM, training=TRAINING)
        assert study.base_parallel.label() == BASE_PARALLELISM
        assert study.base_model.name == "gpt3-15b"

    def test_from_trace_defaults_from_metadata(self, bundle):
        study = Study.from_trace(bundle)
        assert study.base_model.name == "gpt3-15b"
        assert study.base_parallel.label() == BASE_PARALLELISM
        assert study.training.num_microbatches == TRAINING.num_microbatches

    def test_from_emulation(self):
        study = Study.from_emulation("gpt3-15b", BASE_PARALLELISM, TRAINING,
                                     iterations=1, seed=11)
        assert study.emulation.profiled is study.trace
        assert study.base_time_us > 0

    def test_unknown_model_is_typed_error(self, bundle):
        with pytest.raises(StudyError, match="unknown model"):
            Study.from_trace(bundle, model="gpt9", training=TRAINING)

    def test_malformed_parallelism_is_typed_error(self, bundle):
        with pytest.raises(StudyError, match="TPxPPxDP"):
            Study.from_trace(bundle, parallelism="2x2", training=TRAINING)

    def test_unresolvable_metadata_falls_back_to_defaults(self, bundle):
        # Trace bundles are general Kineto containers: metadata written by
        # other profilers must not break replay-only workflows.
        from repro.trace.kineto import TraceBundle
        odd = TraceBundle(metadata={"model": "llama-405b", "parallelism": "weird"})
        for trace in bundle.traces.values():
            odd.add(trace)
        study = Study.from_trace(odd)
        assert study.base_model.name == "gpt3-15b"
        assert study.base_time_us > 0
        # ... but manipulation refuses to run against a guessed base.
        with pytest.raises(StudyError, match="guessed base configuration"):
            study.predict("2x1x4")


class TestMemoization:
    def test_replay_runs_once(self, study):
        assert study.replay() is study.replay()

    def test_replay_matches_core_replay(self, study, bundle):
        assert study.base_time_us == replay(bundle).iteration_time_us

    def test_calibration_is_lazy_and_runs_once(self, study):
        study.replay()
        assert study.calibrations == 0
        study.predict("2x1x4")
        assert study.calibrations == 1
        study.predict("2x2x1")
        study.predict("model:gpt3-v1")
        assert study.calibrations == 1
        assert study.perf_model is study.perf_model

    def test_repeated_predict_reuses_graph_and_session(self, study):
        first = study.predict("2x1x4")
        second = study.predict("2x1x4")
        assert first is second
        graph, _ = study.derived_graph("2x1x4")
        assert graph is first.graph
        *_, session = study.config_state("2x1x4")
        *_, session2 = study.config_state("parallelism:2x1x4")
        assert session is session2 and session.compiled is first.result.run.compiled

    def test_release_drops_target_caches_keeps_calibration(self, study):
        study.predict("2x1x4")
        assert study._configs
        study.release()
        assert not study._configs and not study._predictions
        assert study.calibrations == 1
        assert study.predict("2x1x4").iteration_time_us > 0
        assert study.calibrations == 1

    def test_release_frees_graphs_and_sessions_without_a_collection(self, study):
        # A session that ran a batch must not keep itself alive through its
        # batched runner: released graphs and sessions go with their last
        # reference, not at some later gen-2 collection.
        study.sweep(parallelism=["2x1x4", "2x2x1"], whatif=["gemm:2", "comm:2"])
        held = [weakref.ref(session.compiled) for session, _ in study._configs.values()
                if session.compiled is not study.replay().run.compiled]
        held += [weakref.ref(session) for session, _ in study._configs.values()]
        assert len(held) == 5
        assert any(session._batch is not None for session, _ in study._configs.values())
        gc.disable()
        try:
            study.release()
            assert [ref for ref in held if ref() is not None] == []
        finally:
            gc.enable()

    def test_baseline_session_reuses_replay_run(self, study):
        # The base replay already compiled and simulated the base: its
        # session reuses the compiled graph, and predicting the base
        # keeps the replay's run instead of re-running Algorithm 1.
        *_, session = study.config_state(BASE_PARALLELISM)
        assert session.compiled is study.replay().run.compiled
        assert study.predict(BASE_PARALLELISM).result.run is study.replay().run

    def test_whatif_reuses_predict_session(self, study):
        study.predict("2x1x4")
        *_, session_before = study.config_state("2x1x4")
        study.whatif("kernel_class", target="2x1x4", op_class="gemm")
        *_, session_after = study.config_state("2x1x4")
        assert session_before is session_after


class TestPredict:
    def test_parallelism_target(self, study):
        prediction = study.predict("2x1x4")
        assert prediction.kind == KIND_PARALLELISM
        assert prediction.world_size == 8
        assert prediction.iteration_time_us > 0
        assert prediction.base_time_us == study.base_time_us
        assert prediction.breakdown().total > 0

    def test_model_target(self, study):
        prediction = study.predict("model:gpt3-v1")
        assert prediction.kind == KIND_ARCHITECTURE
        assert prediction.target == "gpt3-v1"
        assert prediction.world_size == study.base_parallel.world_size

    def test_custom_model_config_target(self, study):
        # A variant outside the GPT-3 registry must work: the paper's
        # Table-2 use case generalised to arbitrary architectures.
        import dataclasses
        custom = dataclasses.replace(gpt3_model("gpt3-15b"),
                                     name="custom-52l", n_layers=52)
        prediction = study.predict(custom)
        assert prediction.target == "custom-52l"
        assert prediction.iteration_time_us > study.base_time_us  # more layers

    def test_custom_model_name_collisions_are_rejected(self, study):
        # Predictions are memoized by name: ambiguous names would serve
        # stale results for a different architecture.
        import dataclasses
        base = gpt3_model("gpt3-15b")
        with pytest.raises(PredictError, match="shadows the registry"):
            study.predict(dataclasses.replace(gpt3_model("gpt3-v1"), n_layers=128))
        with pytest.raises(PredictError, match="named like the base model"):
            study.predict(dataclasses.replace(base, n_layers=128))
        study.predict(dataclasses.replace(base, name="coll", n_layers=50))
        with pytest.raises(PredictError, match="already predicted"):
            study.predict(dataclasses.replace(base, name="coll", n_layers=52))
        # Re-predicting the identical config is fine (idempotent).
        study.predict(dataclasses.replace(base, name="coll", n_layers=50))

    def test_base_target_is_baseline(self, study):
        prediction = study.predict(BASE_PARALLELISM)
        assert prediction.kind == KIND_BASELINE
        assert prediction.iteration_time_us == pytest.approx(study.base_time_us)

    def test_tp_mismatch_raises_predict_error(self, study):
        with pytest.raises(PredictError, match="tensor parallelism") as excinfo:
            study.predict("4x1x2")
        assert excinfo.value.base_tp == 2
        assert excinfo.value.target_tp == 4
        assert "4x1x2" in str(excinfo.value)

    def test_unknown_target_model_raises_predict_error(self, study):
        with pytest.raises(PredictError, match="unknown model"):
            study.predict("model:gpt9")

    def test_requires_exactly_one_target(self, study):
        with pytest.raises(PredictError, match="requires"):
            study.predict()
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            study.predict("2x1x4", model="gpt3-v1")

    def test_one_call_predict_wrapper(self, bundle, study):
        prediction = predict(bundle, "2x1x4", base_model="gpt3-15b",
                             base_parallelism=BASE_PARALLELISM, training=TRAINING)
        assert prediction.iteration_time_us == \
            pytest.approx(study.predict("2x1x4").iteration_time_us)


class TestDataParallelFromADP1Base:
    """A DP=1 base traced no gradient all-reduce; a DP target must add it."""

    @pytest.fixture(scope="class")
    def dp1_study(self):
        return Study.from_emulation(tiny_model(n_layers=8), "2x1x1", TRAINING,
                                    iterations=1, seed=1)

    @pytest.mark.parametrize("target", ["parallelism=2x1x2", "parallelism=2x1x4"])
    def test_dp_target_synthesises_the_gradient_all_reduce(self, dp1_study, target):
        prediction = dp1_study.predict(target)
        dp_kernels = [task for task in prediction.graph.gpu_tasks()
                      if task.args.get("group") == "dp"]
        assert dp_kernels
        assert all("AllReduce" in task.name for task in dp_kernels)
        assert prediction.iteration_time_us > dp1_study.base_time_us


class TestWhatIf:
    def test_single_scenario_matches_evaluate_scenarios(self, study):
        result = study.whatif("kernel_class", op_class="gemm", speedup=2.0)
        assert isinstance(result, WhatIfResult)
        scenario = scenario_for("kernel_class", op_class="gemm", speedup=2.0)
        direct = evaluate_scenarios(study.base_graph, [scenario])[0]
        assert result.scenario_time_us == pytest.approx(direct.scenario_time_us)
        assert result.affected_tasks == direct.affected_tasks

    def test_builder_batch(self, study):
        results = (study.whatif()
                   .kernel_class("gemm", 2.0)
                   .communication(2.0, group="dp")
                   .launch_overhead()
                   .scenario("everything x1.25", lambda task: True, 1.25)
                   .run())
        assert len(results) == 4
        assert all(r.scenario_time_us <= study.base_time_us * 1.001 for r in results)
        assert results[0].name == "gemm x2"

    def test_builder_best(self, study):
        best = (study.whatif().kernel_class("gemm", 2.0).launch_overhead().best())
        assert best.scenario_time_us == min(
            r.scenario_time_us for r in
            study.whatif().kernel_class("gemm", 2.0).launch_overhead().run())

    def test_empty_builder_refuses_to_run(self, study):
        with pytest.raises(StudyError, match="no what-if scenarios"):
            study.whatif().run()

    def test_whatif_on_predicted_target(self, study):
        result = study.whatif("launch_overhead", target="2x1x4")
        target_time = study.predict("2x1x4").iteration_time_us
        assert result.baseline_time_us == pytest.approx(target_time)
        assert result.scenario_time_us <= target_time


class TestSweep:
    @pytest.fixture(scope="class")
    def spec(self):
        return SweepSpec(
            base_model="gpt3-15b",
            base_parallelism=BASE_PARALLELISM,
            micro_batch_size=TRAINING.micro_batch_size,
            num_microbatches=TRAINING.num_microbatches,
            parallelism=("2x1x4",),
            models=("gpt3-v1",),
            whatif=(WhatIfSpec(kind="kernel_class", op_class="gemm", speedup=2.0),),
        )

    def test_matches_standalone_runner(self, bundle, study, spec):
        via_study = study.sweep(spec)
        standalone = run_sweep(open_study(bundle, spec), spec)
        assert [(r.label, r.iteration_time_us) for r in via_study.results] == \
            [(r.label, r.iteration_time_us) for r in standalone.results]

    def test_reuses_study_state(self, bundle, spec):
        study = Study.from_trace(bundle, model="gpt3-15b",
                                 parallelism=BASE_PARALLELISM, training=TRAINING)
        study.predict("2x1x4")
        assert study.calibrations == 1
        study.sweep(spec)
        assert study.calibrations == 1  # the sweep did not recalibrate
        # A caller-owned study keeps the sweep's per-target sessions for
        # later predictions (the facade's memoization contract).
        assert Target(KIND_ARCHITECTURE, "gpt3-v1") in study._configs

    def test_standalone_hardware_sweep_derives_each_workload_target_once(
            self, bundle, spec, monkeypatch):
        derived = []
        original = dispatch.derive

        def recording(source, kind, context):
            derived.append((kind, context.target.parallel.label()))
            return original(source, kind, context)

        monkeypatch.setattr(dispatch, "derive", recording)
        crossed = replace(spec, parallelism=("2x1x4", "2x2x2"), models=(),
                          hardware=("H200-SXM",))
        run_sweep(open_study(bundle, crossed), crossed)
        # Each composite ``<workload>+hardware`` group resumes from its
        # workload sibling's memoized graph instead of deriving it again.
        workload = sorted(entry for entry in derived if entry[0] != KIND_HARDWARE)
        assert workload == [(KIND_PARALLELISM, "2x1x4"), (KIND_PARALLELISM, "2x2x2")]

    def test_inline_axes(self, study, spec):
        inline = study.sweep(parallelism=["2x1x4"], models=["gpt3-v1"],
                             whatif=["gemm:2"])
        assert [(r.label, r.iteration_time_us) for r in inline.results] == \
            [(r.label, r.iteration_time_us) for r in study.sweep(spec).results]

    def test_spec_and_axes_are_exclusive(self, study, spec):
        with pytest.raises(StudyError, match="not both"):
            study.sweep(spec, parallelism=["2x1x4"])

    def test_include_baseline_is_an_inline_argument(self, study, spec):
        # A full spec carries its own include_baseline; the inline flag
        # must not be dropped silently.
        with pytest.raises(StudyError, match="not both"):
            study.sweep(spec, include_baseline=False)

    def test_any_registry_spelling_of_the_base_model_matches(self, study, spec):
        upper = replace(spec, base_model="GPT3-15B")
        assert ([r.iteration_time_us for r in study.sweep(upper).results]
                == [r.iteration_time_us for r in study.sweep(spec).results])

    def test_mismatched_base_is_rejected(self, study):
        bad = SweepSpec(base_model="gpt3-15b", base_parallelism="2x2x4",
                        parallelism=("2x2x8",))
        with pytest.raises(StudyError, match="does not match"):
            study.sweep(bad)


class TestGroupRuns:
    """A sweep group is one simulation call whose row 0 is its configuration."""

    @pytest.fixture()
    def runs(self, study, monkeypatch):
        study.prepare()
        graphs = []
        run = SimulationSession.run

        def counted(session, *args, **kwargs):
            graphs.append(session.compiled.graph)
            return run(session, *args, **kwargs)

        monkeypatch.setattr(SimulationSession, "run", counted)
        return graphs

    def test_batched_groups_make_no_sequential_runs(self, study, runs):
        result = study.sweep(parallelism=["2x1x4"], hardware=["H200-SXM"],
                             whatif=["gemm:2", "comm:2"])
        assert len(result) == 4 * 3
        assert runs == []

    def test_one_whatif_group_runs_its_two_rows_in_sequence(self, study, runs):
        result = study.sweep(parallelism=["2x1x4"], whatif=["gemm:2"],
                             include_baseline=False)
        assert len(result) == 2
        graph, _ = study.derived_graph("2x1x4")
        assert runs == [graph, graph]
        plain, gemm = result.results
        assert gemm.base_time_us == plain.base_time_us == study.base_time_us
        assert plain.iteration_time_us == study.predict("2x1x4").iteration_time_us


class TestBaseFold:
    """A target equal to the base is the base, in predict and sweep alike."""

    @pytest.fixture()
    def h100_study(self, h100_base_trace):
        return Study.from_trace(h100_base_trace, micro_batch_size=1)

    def test_sweep_of_the_profiled_gpu_is_the_base(self, h100_study):
        # The memory bound would refuse the base itself on its own GPU.
        base = h100_study.predict("gpu=H100-SXM").iteration_time_us
        assert base == h100_study.base_time_us
        assert base == pytest.approx(H100_BASE_TIME_US, abs=0.005)
        rows = h100_study.sweep(hardware=["H100-SXM"]).results
        assert [(row.label, row.kind, row.iteration_time_us) for row in rows] == [
            ("base", KIND_BASELINE, base), ("gpu=H100-SXM", "hardware", base)]

    def test_sweep_of_the_base_parallelism_derives_nothing(self, h100_study,
                                                           monkeypatch):
        derived = []
        original = dispatch.derive

        def recording(source, kind, context):
            derived.append((kind, context.target.parallel.label()))
            return original(source, kind, context)

        monkeypatch.setattr(dispatch, "derive", recording)
        rows = {row.label: row for row in
                h100_study.sweep(parallelism=["2x1x1", "2x1x2"]).results}
        assert derived == [(KIND_PARALLELISM, "2x1x2")]
        # The row keeps the spec's spelling but times the base replay.
        assert (rows["2x1x1"].kind, rows["2x1x1"].target) == (KIND_PARALLELISM, "2x1x1")
        assert rows["2x1x1"].iteration_time_us == h100_study.base_time_us

    def test_memo_keys_are_folded_targets(self, h100_study):
        assert h100_study.config_state("parallelism=2x1x1,gpu=H100-SXM")[2] is \
            h100_study.config_state(None)[2]
        h100_study.predict("parallelism=2x1x2,gpu=H100-SXM")
        assert list(h100_study._predictions) == [Target(KIND_PARALLELISM, "2x1x2")]


class TestPickling:
    def test_prepared_study_round_trips(self, study):
        study.prepare()
        clone = pickle.loads(pickle.dumps(study))
        assert clone.calibrations == 1
        assert clone.base_time_us == study.base_time_us
        graph, world_size = clone.derived_graph("2x1x4")
        assert world_size == 8 and len(graph) > 0
        assert clone.calibrations == 1  # the snapshot carried the perf model

    def test_clone_has_no_bundle(self, study):
        clone = pickle.loads(pickle.dumps(study.prepare()))
        with pytest.raises(StudyError, match="no trace bundle"):
            clone.trace

    def test_clone_evaluates_baseline_without_bundle(self, study):
        # What a pool worker does for the baseline scenario group under
        # the spawn start method: the snapshot has no bundle and no
        # replay, only the base graph — sessions must rebuild from it.
        clone = pickle.loads(pickle.dumps(study.prepare()))
        prediction = clone.predict(BASE_PARALLELISM)
        assert prediction.iteration_time_us == pytest.approx(study.base_time_us)
        result = clone.whatif("kernel_class", target=BASE_PARALLELISM, op_class="gemm")
        assert result.baseline_time_us == pytest.approx(study.base_time_us)

    def test_custom_model_survives_pickling(self, study):
        import dataclasses
        custom = dataclasses.replace(gpt3_model("gpt3-15b"),
                                     name="custom-pickled", n_layers=50)
        study.predict(custom)
        clone = pickle.loads(pickle.dumps(study.prepare()))
        graph, _ = clone.derived_graph("model:custom-pickled")
        assert len(graph) > 0


class TestReplaySignature:
    def test_graph_only_replay(self, study):
        again = replay(graph=study.base_graph)
        assert again.iteration_time_us == pytest.approx(study.base_time_us)

    def test_replay_without_input_raises(self):
        with pytest.raises(ValueError, match="traces or a pre-built graph"):
            replay()


class TestRetimedViews:
    """A retimed target is a view of its source's compiled graph."""

    def test_predict_builds_no_task_until_the_graph_is_read(self, study):
        with profile() as prof:
            prediction = study.predict("parallelism=2x1x4,gpu=H200-SXM")
            assert prediction.iteration_time_us > 0
            assert not prediction.is_stream and prediction.serving_metrics() is None
        assert "engine.materialise" not in prof.metrics.snapshot()["counters"]
        compiled = prediction.result.run.compiled
        assert not {"tasks", "graph"} & vars(compiled).keys()
        with profile() as prof:
            graph = prediction.graph
        # The composite and its data-parallel source build their tasks once.
        assert prof.metrics.snapshot()["counters"]["engine.materialise"] == 2.0
        assert graph is prediction.graph is study.derived_graph(
            "parallelism=2x1x4,gpu=H200-SXM")[0]
        assert graph.metadata == compiled.metadata
        assert graph.metadata["manipulated"] == "data_parallel+hardware"
        assert [graph.tasks[task_id].duration for task_id in compiled.index_of] == \
            compiled.durations.tolist()

    def test_custom_whatif_predicate_sees_the_retimed_tasks(self, study):
        seen = {}

        def data_parallel(task):
            seen[task.task_id] = (task.duration, dict(task.args))
            return task.args.get("group") == "dp"

        result = (study.whatif(target="2x1x4").scenario("dp x2", data_parallel, 2.0)
                  .run()[0])
        graph, _ = study.derived_graph("2x1x4")
        assert seen == {task_id: (task.duration, task.args)
                        for task_id, task in graph.tasks.items()}
        retimed = [task_id for task_id, task in study.base_graph.tasks.items()
                   if task.args.get("group") == "dp" and task.args.get("collective")]
        assert retimed and result.affected_tasks == len(retimed)
        for task_id in retimed:
            duration, args = seen[task_id]
            assert args["group_size"] == 4
            assert duration != study.base_graph.tasks[task_id].duration


class TestRenderOnRead:
    """A prediction is its session run; traces render only when read."""

    @pytest.fixture()
    def renders(self, monkeypatch):
        calls = {"bundle": 0}
        original = SessionRun.to_trace_bundle

        def counted(self):
            calls["bundle"] += 1
            return original(self)

        monkeypatch.setattr(SessionRun, "to_trace_bundle", counted)
        return calls

    def test_predictions_render_nothing_unasked(self, renders):
        training = Study.from_emulation(tiny_model(), "2x1x1", iterations=1,
                                        seed=7).prepare()
        stream = Study.from_emulation(
            tiny_model(n_layers=2, d_model=4096, name="tiny-stream"), "2x1x1",
            inference=InferenceConfig(
                batch_size=4, prompt_length=512, decode_length=2,
                arrival=parse_arrival("poisson:rate=600,n=6,seed=3")),
            iterations=1, seed=7).prepare()
        predictions = [training.predict("2x1x2"),
                       stream.predict("serving:prompt=1024")]
        for prediction in predictions:
            assert prediction.iteration_time_us > 0
            assert prediction.speedup_vs_base > 0
            prediction.serving_metrics()
            predict_result_payload(prediction)
        assert predictions[1].serving_metrics() is not None
        assert renders == {"bundle": 0}

        prediction = predictions[0]
        assert prediction.breakdown() == prediction.breakdown()
        assert len(coerce_bundle(prediction)) > 0
        assert renders == {"bundle": 1}
