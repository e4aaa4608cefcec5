"""Declarative sweep specifications.

A :class:`SweepSpec` describes a *what-if design space* around one profiled
base configuration: target parallelism labels (§3.4 graph manipulation),
target model variants (§4.3.2 architecture changes) and kernel-speedup
what-if scenarios (§5).  :meth:`SweepSpec.expand` turns the spec into the
concrete grid of :class:`ScenarioSpec` entries the runner evaluates — the
cartesian product of configurations and what-if variants.

Specs are plain JSON on disk::

    {
      "base": {"model": "gpt3-15b", "parallelism": "2x2x4",
               "micro_batch_size": 2, "num_microbatches": 4},
      "parallelism": ["2x2x8", "2x4x4"],
      "models": ["gpt3-v1"],
      "whatif": [{"kind": "kernel_class", "op_class": "gemm", "speedup": 2.0},
                 {"kind": "communication", "group": "dp", "speedup": 2.0},
                 {"kind": "launch_overhead"}],
      "include_baseline": true
    }

:meth:`SweepSpec.validate` judges every configuration of the grid up front
through the manipulation layer's one refusal walk
(:func:`repro.core.manipulation.resolve`), the same walk a study and
service admission use, so a target is refused the same way wherever it is
named — e.g. tensor-parallelism targets of training bases, which the paper
(and ``repro.core.manipulation``) does not support.  Only the memory check
waits for a study: it needs the profiled GPU.

A spec whose base records an ``inference`` configuration sweeps a
*serving* episode instead; its configuration axis is ``serving`` (compact
``batch=/prompt=/tp=`` labels — serving TP resharding *is* supported,
because the serving graph is topology-invariant under it)::

    {
      "base": {"model": "gpt3-15b", "parallelism": "4x1x1",
               "inference": {"batch_size": 8, "prompt_length": 512,
                             "decode_length": 64}},
      "serving": ["batch=16", "batch=32", "tp=2,batch=16"],
      "whatif": [{"kind": "kernel_class", "op_class": "decode_attention"}]
    }

An optional ``"hardware": ["H200-SXM", "B200"]`` axis (registry GPU
names) crosses either grid with roofline hardware retargets: every
configuration is evaluated on the profiled GPU and once per listed GPU
(composite ``<kind>+hardware`` scenarios).

A JSON spec fills the ``base`` keys it omits by the rule every entry
point shares (:meth:`SweepSpec.coerce`): from a trace's metadata, or from
the study's own base in :meth:`Study.sweep <repro.api.Study.sweep>`.
:func:`inline_spec` is the one builder of a JSON spec from inline axes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.api.errors import StudyError
from repro.api.study import BASE_DEFAULTS, GUESSED_BASE, resolve_base
from repro.api.target import Target, on_gpu, parse_target

# The scenario kinds are shared vocabulary defined by the manipulation
# layer (the one place that implements them); re-exported here for spec
# authors.
from repro.core.manipulation import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    KIND_SERVING,
    Configuration,
    resolve,
)
from repro.hardware.gpu import resolve_gpu
from repro.workload.inference import InferenceConfig, ServingTarget
from repro.workload.model_config import gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


class SweepSpecError(ValueError):
    """Raised when a sweep spec is malformed or asks for unsupported changes."""


def _canonical_gpu(name: str) -> str:
    """Resolve a hardware-axis entry to its canonical registry GPU name.

    Specs are shareable, content-addressed artefacts, so the hardware
    axis takes registry names only — a JSON spec-file path would make the
    cache key depend on local filesystem content it does not hash.
    """
    text = name.strip()
    if text.lower().startswith("gpu="):
        text = text[len("gpu="):].strip()
    if "/" in text or "\\" in text or text.endswith(".json"):
        raise SweepSpecError(
            f"hardware axis entry {name!r} looks like a spec-file path; "
            "sweep specs take registry GPU names (custom specs are a "
            "Study.predict feature)")
    try:
        return resolve_gpu(text).name
    except ValueError as error:
        raise SweepSpecError(str(error)) from error


_WHATIF_KINDS = ("kernel_class", "communication", "launch_overhead")


@dataclass(frozen=True)
class WhatIfSpec:
    """One declarative kernel-speedup scenario (maps onto ``core/whatif.py``)."""

    kind: str
    op_class: str | None = None
    group: str | None = None
    speedup: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _WHATIF_KINDS:
            raise SweepSpecError(
                f"unknown what-if kind '{self.kind}' (expected one of {_WHATIF_KINDS})")
        if self.kind == "kernel_class" and not self.op_class:
            raise SweepSpecError("what-if kind 'kernel_class' requires 'op_class'")
        if not self.speedup > 0:  # NaN fails too
            raise SweepSpecError("what-if speedup must be positive")

    def describe(self) -> str:
        """Short human-readable label used in scenario names and tables."""
        if self.kind == "launch_overhead":
            return "zero-launch"
        scale = "inf" if math.isinf(self.speedup) else f"{self.speedup:g}"
        if self.kind == "communication":
            return f"{self.group or 'all'}-comm x{scale}"
        return f"{self.op_class} x{scale}"

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind}
        if self.op_class is not None:
            payload["op_class"] = self.op_class
        if self.group is not None:
            payload["group"] = self.group
        if self.kind != "launch_overhead":
            payload["speedup"] = "inf" if math.isinf(self.speedup) else self.speedup
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "WhatIfSpec":
        if not isinstance(payload, Mapping):
            raise SweepSpecError(f"what-if entry must be an object, got {payload!r}")
        kind = str(payload.get("kind", ""))
        speedup = float(payload.get("speedup", 2.0))
        if kind == "launch_overhead":
            speedup = float("inf")
        return cls(kind=kind, op_class=payload.get("op_class"),
                   group=payload.get("group"), speedup=speedup)

    @classmethod
    def parse(cls, text: str) -> "WhatIfSpec":
        """Parse the compact CLI form.

        ``launch`` — zero launch overhead; ``comm[:group]:S`` — communication
        (optionally one group) sped up ``S`` times; ``CLASS:S`` — one kernel
        class (e.g. ``gemm:2``) sped up ``S`` times.  ``S`` may be ``inf``.
        """
        parts = text.split(":")
        if parts[0] == "launch" and len(parts) == 1:
            return cls(kind="launch_overhead", speedup=float("inf"))
        try:
            if parts[0] == "comm" and len(parts) == 3:
                return cls(kind="communication", group=parts[1] or None,
                           speedup=float(parts[2]))
            if parts[0] == "comm" and len(parts) == 2:
                return cls(kind="communication", speedup=float(parts[1]))
            if len(parts) == 2:
                return cls(kind="kernel_class", op_class=parts[0], speedup=float(parts[1]))
        except ValueError as error:
            raise SweepSpecError(f"bad what-if '{text}': {error}") from error
        raise SweepSpecError(
            f"bad what-if '{text}' (expected 'launch', 'comm[:group]:S' or 'CLASS:S')")

    @classmethod
    def coerce(cls, entry: "WhatIfSpec | Mapping[str, Any] | str") -> "WhatIfSpec":
        """A what-if from a spec, its JSON mapping or the compact CLI form."""
        if isinstance(entry, cls):
            return entry
        if isinstance(entry, str):
            return cls.parse(entry)
        return cls.from_json(entry)


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete point of the expanded sweep grid."""

    kind: str
    target: str
    whatif: WhatIfSpec | None = None

    @property
    def label(self) -> str:
        base = "base" if self.kind == KIND_BASELINE else self.target
        return f"{base} +{self.whatif.describe()}" if self.whatif else base

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, "target": self.target}
        if self.whatif is not None:
            payload["whatif"] = self.whatif.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        whatif = payload.get("whatif")
        return cls(kind=str(payload["kind"]), target=str(payload["target"]),
                   whatif=WhatIfSpec.from_json(whatif) if whatif else None)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep over one base trace."""

    base_model: str = BASE_DEFAULTS["model"]
    base_parallelism: str = BASE_DEFAULTS["parallelism"]
    micro_batch_size: int = BASE_DEFAULTS["micro_batch_size"]
    num_microbatches: int = BASE_DEFAULTS["num_microbatches"]
    #: A serving-episode base; set to sweep ``serving`` targets instead of
    #: training manipulations.
    inference: InferenceConfig | None = None
    #: SLO deadline (ms) for the per-request serving metrics attached to
    #: continuous-batching scenario results; ``None`` keeps the default
    #: deadline and (like pre-serving specs) stays out of cache keys.
    slo_ms: float | None = None
    parallelism: tuple[str, ...] = ()
    models: tuple[str, ...] = ()
    serving: tuple[str, ...] = ()
    #: Registry GPU names to retarget onto.  The axis *crosses* the
    #: configuration axes: every configuration is evaluated on the
    #: profiled GPU (the reference column) and once per listed GPU.
    hardware: tuple[str, ...] = ()
    whatif: tuple[WhatIfSpec, ...] = ()
    include_baseline: bool = True

    @property
    def workload(self) -> str:
        return "training" if self.inference is None else "serving"

    # -- construction -------------------------------------------------------

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        base = payload.get("base", {})
        if not isinstance(base, Mapping):
            raise SweepSpecError("'base' must be an object")
        inference = base.get("inference")
        if inference is not None and not isinstance(inference, InferenceConfig):
            if not isinstance(inference, Mapping):
                raise SweepSpecError("'base.inference' must be an object")
            try:
                inference = InferenceConfig.from_json(inference)
            except (TypeError, ValueError) as error:
                raise SweepSpecError(f"malformed inference base: {error}") from error
        try:
            return cls(
                base_model=str(base.get("model", cls.base_model)),
                base_parallelism=str(base.get("parallelism", cls.base_parallelism)),
                micro_batch_size=int(base.get("micro_batch_size", cls.micro_batch_size)),
                num_microbatches=int(base.get("num_microbatches", cls.num_microbatches)),
                inference=inference,
                slo_ms=(None if base.get("slo_ms") is None
                        else float(base["slo_ms"])),
                parallelism=tuple(str(p) for p in payload.get("parallelism", ())),
                models=tuple(str(m) for m in payload.get("models", ())),
                serving=tuple(str(s) for s in payload.get("serving", ())),
                hardware=tuple(str(h) for h in payload.get("hardware", ())),
                whatif=tuple(WhatIfSpec.from_json(w) for w in payload.get("whatif", ())),
                include_baseline=bool(payload.get("include_baseline", True)),
            )
        except (TypeError, ValueError) as error:
            if isinstance(error, SweepSpecError):
                raise
            raise SweepSpecError(f"malformed sweep spec: {error}") from error

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        """Read a spec from a JSON file."""
        return cls.coerce(path)

    @classmethod
    def coerce(cls, spec: "SweepSpec | Mapping[str, Any] | str | Path",
               metadata: Mapping[str, Any] | None = None,
               named: Mapping[str, Any] | None = None) -> "SweepSpec":
        """Accept a spec object, a JSON-style mapping, or a spec file path.

        A spec object names its whole base.  A JSON spec applied to a
        trace's ``metadata`` fills its omitted base keys by
        :func:`~repro.api.study.resolve_base` (``named`` — a service
        request's ``base``, the CLI's flags or a study's own base — ranks
        below the spec's own) and refuses a guessed base with
        :class:`~repro.api.StudyError`.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, (str, Path)):
            try:
                spec = json.loads(Path(spec).read_text(encoding="utf-8"))
            except json.JSONDecodeError as error:
                raise SweepSpecError(f"spec file {spec} is not valid JSON: {error}") from error
        if not isinstance(spec, Mapping):
            raise SweepSpecError(f"cannot build a SweepSpec from {type(spec).__name__}")
        if metadata is not None:
            base = spec.get("base") or {}
            if not isinstance(base, Mapping):
                raise SweepSpecError("'base' must be an object")
            base, guessed = resolve_base(metadata, {**(named or {}), **base})
            if guessed:
                raise StudyError(GUESSED_BASE)
            spec = {**spec, "base": base}
        return cls.from_json(spec)

    # -- serialisation ------------------------------------------------------

    def base_json(self) -> dict[str, Any]:
        payload = {
            "model": self.base_model,
            "parallelism": self.base_parallelism,
            "micro_batch_size": self.micro_batch_size,
            "num_microbatches": self.num_microbatches,
        }
        # Only serving bases carry the extra keys, so training cache keys
        # (hashes of this payload) are unchanged by the workload family —
        # and a default-deadline serving spec hashes like a pre-SLO one.
        if self.inference is not None:
            payload["inference"] = self.inference.to_json()
        if self.slo_ms is not None:
            payload["slo_ms"] = self.slo_ms
        return payload

    def to_json(self) -> dict[str, Any]:
        payload = {
            "base": self.base_json(),
            "parallelism": list(self.parallelism),
            "models": list(self.models),
            "whatif": [w.to_json() for w in self.whatif],
            "include_baseline": self.include_baseline,
        }
        if self.serving:
            payload["serving"] = list(self.serving)
        # Omitted when empty, like 'serving': pre-hardware specs keep
        # their cache keys.
        if self.hardware:
            payload["hardware"] = list(self.hardware)
        return payload

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")

    # -- workload accessors -------------------------------------------------

    def training(self) -> TrainingConfig:
        return TrainingConfig(micro_batch_size=self.micro_batch_size,
                              num_microbatches=self.num_microbatches)

    # -- validation and expansion -------------------------------------------

    def base_configuration(self) -> Configuration:
        """The base as the manipulation layer's resolve walk reads it.

        The model is ``None`` when it is not in the GPT-3 registry: a
        serving base may be a custom model only its study knows.  The
        profiled GPU is unknown, so the walk skips the memory check.
        """
        try:
            parallel = ParallelismConfig.parse(self.base_parallelism)
            if self.inference is not None:
                parallel.validate_for_inference()
        except ValueError as error:
            raise SweepSpecError(str(error)) from error
        try:
            model = gpt3_model(self.base_model)
        except KeyError:
            model = None
        return Configuration(model, parallel, self.inference)

    def validate(self) -> None:
        """Reject unsupported or inconsistent specs before any work happens.

        The spec-level checks (the base, ``slo_ms``, registry GPU names, a
        non-empty grid) live here; each configuration of the grid is
        judged by :func:`~repro.core.manipulation.resolve`.
        """
        base = self.base_configuration()
        if self.slo_ms is not None and not 0 < self.slo_ms < math.inf:
            raise SweepSpecError("slo_ms must be a positive finite number")
        try:
            configurations = self.configurations()
            for target in configurations:
                resolve(base, target.manipulations)
        except ValueError as error:
            raise SweepSpecError(str(error)) from error
        if base.model is None and self.inference is None:
            try:  # a training base is rebuilt from its registry name
                gpt3_model(self.base_model)
            except KeyError as error:
                raise SweepSpecError(error.args[0]) from error
        if not configurations:
            raise SweepSpecError("sweep spec expands to zero scenarios")

    def configurations(self) -> list[Target]:
        """The configuration axis, one :class:`~repro.api.target.Target` per
        configuration, de-duplicated in order.

        The baseline row is ``Target("baseline", <base parallelism>)``.  A
        non-empty ``hardware`` axis crosses the grid: every configuration
        appears once unretargeted (the profiled-GPU reference) and once
        per listed GPU (:func:`~repro.api.target.on_gpu`: a composite
        ``<kind>+hardware`` target, pure ``hardware`` for the baseline).
        Labels are the spec's own spellings, so scenario labels and cache
        keys do not depend on a study; :class:`~repro.api.Study` folds
        them onto its keys when it evaluates them.
        """
        configs = ([Target(KIND_BASELINE, self.base_parallelism)]
                   if self.include_baseline else [])
        configs += [Target(KIND_PARALLELISM, label) for label in self.parallelism]
        configs += [Target(KIND_ARCHITECTURE, name) for name in self.models]
        configs += [Target(KIND_SERVING, ServingTarget.parse(label).label())
                    for label in self.serving]
        gpus = [_canonical_gpu(name) for name in self.hardware]
        crossed = [target for config in configs
                   for target in (config, *(on_gpu(config, gpu) for gpu in gpus))]
        return list(dict.fromkeys(crossed))

    def expand(self) -> list[ScenarioSpec]:
        """The full scenario grid: configurations × (no what-if + each what-if)."""
        variants: list[WhatIfSpec | None] = [None, *self.whatif]
        return [ScenarioSpec(kind=config.kind, target=config.label, whatif=variant)
                for config in self.configurations()
                for variant in variants]


#: The spec axis each target kind fills (see :func:`inline_spec`).
_AXES = {KIND_PARALLELISM: "parallelism", KIND_ARCHITECTURE: "models",
         KIND_SERVING: "serving", KIND_HARDWARE: "hardware"}


def inline_spec(targets: Iterable[str] = (),
                whatif: Iterable[WhatIfSpec | Mapping[str, Any] | str] = (), *,
                parallelism: Iterable[str] = (), models: Iterable[str] = (),
                serving: Iterable[str] = (), hardware: Iterable[str] = (),
                include_baseline: bool = True) -> dict[str, Any]:
    """The JSON spec of inline sweep axes; :meth:`SweepSpec.coerce` fills its base.

    Each target fills the axis of its kind, after the per-kind axes, in
    input order.  A composite ``"tp=8,gpu=B200"`` fills two axes, which
    the spec re-crosses into the full hardware × workload grid (so it
    also evaluates the reference points ``tp=8`` and ``gpu=B200``).  A
    target's GPU is its canonical name without the ``gpu=`` key, kept
    once, so every spelling of one part is one axis entry.  What-if
    entries are specs, JSON mappings or compact CLI strings (``"gemm:2"``).
    """
    spec: dict[str, Any] = {"parallelism": list(parallelism), "models": list(models),
                            "serving": list(serving), "hardware": list(hardware)}
    for target in targets:
        for kind, label in parse_target(target).manipulations:
            axis = spec[_AXES[kind]]
            if kind == KIND_HARDWARE:
                label = label.removeprefix("gpu=")
                if label in axis:
                    continue
            axis.append(label)
    spec["whatif"] = [WhatIfSpec.coerce(entry).to_json() for entry in whatif]
    spec["include_baseline"] = include_baseline
    return spec


def scenario_cache_key(spec: SweepSpec, scenario: ScenarioSpec) -> dict[str, Any]:
    """The JSON payload whose hash keys one scenario in the result cache.

    The base configuration participates because graph manipulation depends
    on it; the trace content is hashed separately (see ``hashing.py``).
    """
    return {"schema": 1, "base": spec.base_json(), "scenario": scenario.to_json()}
