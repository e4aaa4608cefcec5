"""Shared fixtures.

The unit and integration tests run against a deliberately small transformer
(a few layers, short sequences) so that the full suite stays fast; the
paper-scale models are exercised by the benchmark harness.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.engine import SessionRun, SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.graph_builder import GraphBuilder
from repro.core.replay import replay
from repro.emulator.api import ClusterEmulator, emulate
from repro.hardware.cluster import ClusterSpec
from repro.workload.model_config import ModelConfig, gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


GOLDENS_DIR = Path(__file__).parent / "goldens"

#: Hypothesis example-budget multipliers per profile.  Property tests pass
#: their per-test budget through :func:`hyp_max_examples`, so the nightly
#: workflow (``REPRO_HYPOTHESIS_PROFILE=nightly``) runs every strategy
#: several times harder without touching the fast default runs.
_HYPOTHESIS_PROFILES = {"ci": 1, "nightly": 5}


def hyp_max_examples(n: int) -> int:
    """``max_examples`` for one property test under the active profile."""
    profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci")
    return n * _HYPOTHESIS_PROFILES.get(profile, 1)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite the JSON snapshots under tests/goldens/ instead of "
             "comparing against them")


@pytest.fixture
def golden_check(request: pytest.FixtureRequest):
    """Compare a JSON-able payload against its committed golden snapshot.

    ``golden_check(name, payload)`` asserts exact equality (floats round-
    trip through ``json.dumps``/``loads``, so the comparison is bit-exact)
    against ``tests/goldens/<name>.json``; run ``pytest --update-goldens``
    to (re)write the snapshots after an intentional change.
    """
    update = request.config.getoption("--update-goldens")

    def check(name: str, payload) -> None:
        path = GOLDENS_DIR / f"{name}.json"
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if update:
            GOLDENS_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered, encoding="utf-8")
            return
        assert path.exists(), (
            f"golden snapshot {path} is missing; run "
            f"pytest --update-goldens to create it")
        expected = json.loads(path.read_text(encoding="utf-8"))
        assert json.loads(rendered) == expected, (
            f"output diverged from the committed golden {path.name}; if the "
            f"change is intentional, rerun with --update-goldens and commit "
            f"the diff")

    return check


def simulate(graph: ExecutionGraph, start_time: float = 0.0) -> SessionRun:
    """Compile ``graph`` and run it once."""
    return SimulationSession(compile_graph(graph)).run(start_time=start_time)


def spans(run: SessionRun) -> dict[int, tuple[float, float]]:
    """``task_id -> (start, end)`` of every task of ``run``."""
    ids = [task.task_id for task in run.compiled.tasks]
    return dict(zip(ids, zip(run.starts.tolist(), run.ends.tolist())))


def tiny_model(n_layers: int = 4, d_model: int = 1024, name: str = "tiny-gpt") -> ModelConfig:
    """A small transformer used throughout the tests."""
    return ModelConfig(name=name, n_layers=n_layers, d_model=d_model, d_ff=4 * d_model,
                       n_heads=max(1, d_model // 128), d_head=128, vocab_size=8192,
                       seq_length=512)


@pytest.fixture(scope="session")
def small_model() -> ModelConfig:
    return tiny_model()


@pytest.fixture(scope="session")
def small_parallel() -> ParallelismConfig:
    return ParallelismConfig(tensor_parallel=2, pipeline_parallel=2, data_parallel=2)


@pytest.fixture(scope="session")
def small_training() -> TrainingConfig:
    return TrainingConfig(micro_batch_size=1, num_microbatches=2, sequence_length=512,
                          gradient_bucket_layers=2)


@pytest.fixture(scope="session")
def small_cluster(small_parallel) -> ClusterSpec:
    return ClusterSpec.for_world_size(small_parallel.world_size)


@pytest.fixture(scope="session")
def small_emulation(small_model, small_parallel, small_training):
    """Two emulated iterations of the tiny workload (profiled + measured)."""
    return emulate(small_model, small_parallel, small_training, iterations=2, seed=42)


@pytest.fixture(scope="session")
def profiled_bundle(small_emulation):
    return small_emulation.profiled


@pytest.fixture(scope="session")
def measured_bundle(small_emulation):
    return small_emulation.measured


@pytest.fixture(scope="session")
def small_graph(profiled_bundle):
    """The Lumos execution graph of the tiny profiled trace."""
    return GraphBuilder().build(profiled_bundle)


@pytest.fixture(scope="session")
def small_replay(profiled_bundle):
    """Lumos replay of the tiny profiled trace."""
    return replay(profiled_bundle)


@pytest.fixture(scope="session")
def small_emulator(small_model, small_parallel, small_training):
    return ClusterEmulator(small_model, small_parallel, small_training, seed=42)


@pytest.fixture
def bundle_hashes(monkeypatch):
    """Every bundle :func:`hash_trace_bundle` digests while the test runs.

    The function is patched at each binding the program calls it through
    (the hashing module itself, which :class:`~repro.api.Study` imports
    from lazily, and the service job store).
    """
    import repro.service.jobs
    import repro.sweep.hashing

    hashed: list = []
    real = repro.sweep.hashing.hash_trace_bundle

    def recording(bundle):
        hashed.append(bundle)
        return real(bundle)

    for module in (repro.sweep.hashing, repro.service.jobs):
        monkeypatch.setattr(module, "hash_trace_bundle", recording)
    return hashed


#: The replayed iteration time (us) of :func:`h100_base_trace`.
H100_BASE_TIME_US = 588_266.90


@pytest.fixture(scope="session")
def h100_base_trace(tmp_path_factory) -> Path:
    """A saved gpt3-15b 2x1x1 training base profiled on H100s.

    Micro-batch size 1, two microbatches, seed 1.  The hardware retarget's
    per-rank memory bound refuses this workload on an 80 GiB part, the
    profiled H100 included, so a target naming the H100 is only served
    when it folds onto the base replay.
    """
    directory = tmp_path_factory.mktemp("h100-base") / "bundle"
    emulate(gpt3_model("gpt3-15b"), ParallelismConfig.parse("2x1x1"),
            TrainingConfig(micro_batch_size=1, num_microbatches=2),
            iterations=1, seed=1).profiled.save(directory)
    return directory
