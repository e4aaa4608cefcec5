"""The unified prediction-target type and its parser.

Every way a study can be pointed at a configuration — a parallelism
label, a model architecture, a serving knob set, a hypothetical GPU — is
one :class:`Target`: a ``(kind, label)`` pair using the shared
manipulation vocabulary (``KIND_PARALLELISM`` / ``KIND_ARCHITECTURE`` /
``KIND_SERVING`` / ``KIND_HARDWARE``), plus optional payloads for
targets that are not in a registry (a
:class:`~repro.workload.model_config.ModelConfig` for custom
architectures, a :class:`~repro.hardware.gpu.GPUSpec` for custom GPUs).

A target may compose a *workload* manipulation with a *hardware*
retarget; the composite is encoded as ``+``-separated segments in both
fields (``kind="serving+hardware"``, ``label="batch=64+gpu=B200"``) and
:attr:`Target.manipulations` exposes the ordered ``(kind, label)``
chain.  This module is the only place that writes or reads that
encoding: :func:`on_gpu` composes a target with a hardware retarget
(``parse_target``'s ``workload,gpu=`` grammar, a study's key fold and
the sweep grid's hardware axis all use it).  The ``baseline`` kind names
the unmodified base configuration; :class:`~repro.api.Study` folds every
target equal to its base onto it, so one configuration is one key.

:func:`parse_target` is the single coercion point.  It accepts a
:class:`Target`, the typed configuration objects
(:class:`~repro.workload.parallelism.ParallelismConfig`,
:class:`~repro.workload.model_config.ModelConfig`,
:class:`~repro.workload.inference.ServingTarget`,
:class:`~repro.hardware.gpu.GPUSpec`), or a string in the composable
``key=value`` grammar:

* ``"2x2x4"`` / ``"gpt3-xl"`` — bare parallelism / model names,
  auto-detected exactly as before;
* ``"batch=64,prompt=512"`` — serving knobs;
* ``"gpu=H200-SXM"`` — a pure hardware retarget;
* ``"tp=8,gpu=H200-SXM"`` / ``"parallelism=2x2x4,gpu=B200"`` /
  ``"model=gpt3-xl,gpu=B200"`` — a workload axis combined with a
  hardware axis (``gpu=`` composes with exactly one workload selector);
* explicit kind prefixes keep working and constrain the body:
  ``parallelism:2x2x4``, ``serving:batch=64,gpu=B200``,
  ``model:gpt3-xl``, ``hardware:H200-SXM`` (``architecture:`` is an
  alias for ``model:``).

Labels are canonicalised through the same parsers the manipulations
use, so equivalent spellings of one configuration produce equal
:class:`Target` values (and therefore one memo/cache/service key).
Malformed targets raise :class:`~repro.api.errors.PredictError`.

:func:`resolve_target` judges a target against a base configuration
through the manipulation layer's one refusal walk, as a study and the
service's predict admission do.  A sweep's targets become spec axes in
the sweep layer (:func:`repro.sweep.spec.inline_spec`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.api.errors import PredictError
from repro.core.manipulation import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    KIND_SERVING,
    Configuration,
    dispatch,
)
from repro.hardware.gpu import GPUSpec, registry_gpu, resolve_gpu
from repro.workload.inference import ServingTarget
from repro.workload.model_config import ModelConfig
from repro.workload.parallelism import ParallelismConfig

__all__ = ["Target", "parse_target", "resolve_target"]

#: Separator of composite kind / label segments.
_SEPARATOR = "+"

_PARALLELISM_RE = re.compile(r"^\d+x\d+x\d+$")

#: Explicit kind prefixes a target string may carry.
_PREFIXES = {
    "parallelism": KIND_PARALLELISM,
    "serving": KIND_SERVING,
    "model": KIND_ARCHITECTURE,
    "architecture": KIND_ARCHITECTURE,
    "hardware": KIND_HARDWARE,
}

#: Kinds a single (non-composite) target may carry.
_SINGLE_KINDS = (KIND_BASELINE, KIND_PARALLELISM, KIND_ARCHITECTURE,
                 KIND_SERVING, KIND_HARDWARE)

#: Workload kinds that may precede ``+hardware`` in a composite.
_WORKLOAD_KINDS = (KIND_PARALLELISM, KIND_ARCHITECTURE, KIND_SERVING)


@dataclass(frozen=True)
class Target:
    """One prediction target: a manipulation kind and its canonical label.

    ``kind`` and ``label`` may be composite (``+``-separated segments,
    applied left to right); :attr:`manipulations` exposes the chain.
    Kind ``baseline`` is the unmodified base configuration, labelled by
    its parallelism.
    ``model`` carries the :class:`ModelConfig` payload of an architecture
    target built from a config object, ``gpu`` the :class:`GPUSpec`
    payload of a hardware target built from a non-registry spec;
    registry-name targets leave both ``None``.
    """

    kind: str
    label: str
    model: ModelConfig | None = None
    gpu: GPUSpec | None = None

    def __post_init__(self) -> None:
        kinds = self.kind.split(_SEPARATOR)
        labels = self.label.split(_SEPARATOR)
        if len(kinds) != len(labels):
            raise PredictError(
                f"composite target label '{self.label}' has {len(labels)} "
                f"segment(s) but its kind '{self.kind}' has {len(kinds)}")
        if len(kinds) == 1:
            if self.kind not in _SINGLE_KINDS:
                raise PredictError(f"unknown target kind '{self.kind}'")
        elif (len(kinds) != 2 or kinds[0] not in _WORKLOAD_KINDS
              or kinds[1] != KIND_HARDWARE):
            raise PredictError(
                f"unknown target kind '{self.kind}'; composite targets "
                f"chain one workload kind with hardware "
                f"('<workload>{_SEPARATOR}{KIND_HARDWARE}')")
        if self.model is not None and KIND_ARCHITECTURE not in kinds:
            raise PredictError(
                f"a ModelConfig payload only belongs on an architecture "
                f"target, not kind '{self.kind}'")
        if self.gpu is not None and KIND_HARDWARE not in kinds:
            raise PredictError(
                f"a GPUSpec payload only belongs on a hardware "
                f"target, not kind '{self.kind}'")

    @property
    def manipulations(self) -> tuple[tuple[str, str], ...]:
        """The ordered ``(kind, label)`` manipulation chain."""
        return tuple(zip(self.kind.split(_SEPARATOR),
                         self.label.split(_SEPARATOR)))

    def __str__(self) -> str:
        manipulations = self.manipulations
        if len(manipulations) == 1:
            return f"{self.kind}:{self.label}"
        (workload_kind, workload_label), (_, gpu_label) = manipulations
        if workload_kind == KIND_PARALLELISM:
            workload = f"parallelism={workload_label}"
        elif workload_kind == KIND_ARCHITECTURE:
            workload = f"model={workload_label}"
        else:
            workload = workload_label  # serving knobs are already key=value
        return f"{workload},{gpu_label}"


#: Every form :func:`parse_target` accepts.
TargetLike = Target | ParallelismConfig | ModelConfig | ServingTarget | GPUSpec | str


def _parallelism_target(text: str) -> Target:
    try:
        label = ParallelismConfig.parse(text).label()
    except ValueError as exc:
        raise PredictError(str(exc)) from exc
    return Target(KIND_PARALLELISM, label)


def _serving_target(text: str) -> Target:
    try:
        label = ServingTarget.parse(text).label()
    except ValueError as exc:
        raise PredictError(str(exc)) from exc
    return Target(KIND_SERVING, label)


def _resolve_gpu_payload(name: str) -> tuple[str, GPUSpec | None]:
    """Resolve a GPU name/path to its canonical name and optional payload."""
    try:
        spec = resolve_gpu(name)
    except ValueError as exc:
        raise PredictError(str(exc)) from exc
    payload = None if registry_gpu(spec.name) == spec else spec
    return spec.name, payload


def _hardware_target(text: str) -> Target:
    name = text[len("gpu="):] if text.lower().startswith("gpu=") else text
    return on_gpu(None, *_resolve_gpu_payload(name.strip()))


def on_gpu(workload: Target | None, gpu: str,
           payload: GPUSpec | None = None) -> Target:
    """``workload`` retargeted onto the GPU named ``gpu``.

    A workload manipulation becomes the composite ``<kind>+hardware``
    target; no workload (``None`` or the baseline) becomes a pure
    hardware target.  ``payload`` is the :class:`GPUSpec` of a
    non-registry part.
    """
    gpu_label = f"gpu={gpu}"
    if workload is None or workload.kind == KIND_BASELINE:
        return Target(KIND_HARDWARE, gpu_label, gpu=payload)
    return Target(f"{workload.kind}{_SEPARATOR}{KIND_HARDWARE}",
                  f"{workload.label}{_SEPARATOR}{gpu_label}",
                  model=workload.model, gpu=payload)


def _parse_body(text: str, constraint: str | None, original: str) -> Target:
    """Parse a target body, optionally constrained by a ``kind:`` prefix."""
    if "=" not in text:
        # Bare scalar: a parallelism label, a model name or a GPU name.
        if constraint == KIND_PARALLELISM:
            return _parallelism_target(text)
        if constraint == KIND_SERVING:
            return _serving_target(text)
        if constraint == KIND_ARCHITECTURE:
            return Target(KIND_ARCHITECTURE, text)
        if constraint == KIND_HARDWARE:
            return _hardware_target(text)
        if _PARALLELISM_RE.match(text):
            return _parallelism_target(text)
        return Target(KIND_ARCHITECTURE, text)

    # key=value grammar: comma-separated items; 'gpu=' selects the
    # hardware axis, 'parallelism=' / 'model=' select a workload axis,
    # everything else is a serving knob.
    gpu_values: list[str] = []
    selectors: list[tuple[str, str]] = []
    rest: list[str] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise PredictError(f"target '{original}' has an empty item")
        key, eq, value = item.partition("=")
        key_norm = key.strip().lower()
        if eq and key_norm in ("gpu", "parallelism", "model", "architecture"):
            value = value.strip()
            if not value:
                raise PredictError(
                    f"target '{original}': '{key_norm}=' needs a value")
            if key_norm == "gpu":
                gpu_values.append(value)
            else:
                kind = (KIND_PARALLELISM if key_norm == "parallelism"
                        else KIND_ARCHITECTURE)
                selectors.append((kind, value))
        else:
            rest.append(item)

    if len(gpu_values) > 1:
        raise PredictError(
            f"target '{original}' gives more than one 'gpu=' value")
    if len(selectors) > 1 or (selectors and rest):
        raise PredictError(
            f"target '{original}' mixes more than one workload axis; "
            "combine 'gpu=' with exactly one of a parallelism, model or "
            "serving selection")

    workload: Target | None = None
    if selectors:
        kind, value = selectors[0]
        if constraint is not None and constraint != kind:
            raise PredictError(
                f"target '{original}': selector does not match its "
                f"'{original.partition(':')[0]}:' kind prefix")
        if kind == KIND_PARALLELISM:
            workload = _parallelism_target(value)
        else:
            workload = Target(KIND_ARCHITECTURE, value)
    elif rest:
        body = ",".join(rest)
        if constraint is None or constraint == KIND_SERVING:
            workload = _serving_target(body)
        elif constraint == KIND_PARALLELISM:
            workload = _parallelism_target(body)
        elif constraint == KIND_ARCHITECTURE:
            workload = Target(KIND_ARCHITECTURE, body)
        else:  # hardware prefix with leftover non-gpu items
            raise PredictError(
                f"target '{original}': a hardware target only takes "
                "'gpu=<name>'")

    if gpu_values:
        return on_gpu(workload, *_resolve_gpu_payload(gpu_values[0]))
    if constraint == KIND_HARDWARE:
        raise PredictError(
            f"target '{original}': a hardware target needs 'gpu=<name>'")
    if workload is None:
        raise PredictError(
            f"cannot interpret '{original}' as a prediction target")
    return workload


def parse_target(value: TargetLike) -> Target:
    """Coerce any supported target form into a canonical :class:`Target`.

    Typed objects map directly onto their kind; strings are parsed with
    an optional explicit ``kind:`` prefix or auto-detected (``NxNxN`` →
    parallelism, contains ``=`` → the composable key=value grammar, else
    a model name).  ``gpu=<name-or-spec.json>`` selects the hardware
    axis and composes with at most one workload selection.  Labels are
    canonicalised through the same parsers the manipulations use, so
    equal targets memoize under one key.
    """
    if isinstance(value, Target):
        return value
    if isinstance(value, ParallelismConfig):
        return Target(KIND_PARALLELISM, value.label())
    if isinstance(value, ModelConfig):
        return Target(KIND_ARCHITECTURE, value.name, model=value)
    if isinstance(value, ServingTarget):
        return Target(KIND_SERVING, value.label())
    if isinstance(value, GPUSpec):
        return on_gpu(None, value.name,
                      None if registry_gpu(value.name) == value else value)
    if not isinstance(value, str):
        raise PredictError(
            f"cannot interpret {value!r} as a prediction target; give a "
            "Target, ParallelismConfig, ModelConfig, ServingTarget, "
            "GPUSpec or string")
    text = value.strip()
    if not text:
        raise PredictError("empty prediction target")
    prefix, sep, rest = text.partition(":")
    kind = _PREFIXES.get(prefix.strip().lower()) if sep else None
    if kind is not None:
        rest = rest.strip()
        if not rest:
            raise PredictError(f"target '{text}' has a kind prefix but no value")
        return _parse_body(rest, kind, text)
    return _parse_body(text, None, text)


def resolve_target(target: Target, base: Configuration) -> list[Configuration]:
    """``base`` and the configuration after each segment of ``target``.

    Raises the first refusal of the chain as :class:`PredictError`,
    keeping its code and TP degrees.
    """
    try:
        return dispatch.resolve(base, target.manipulations, model=target.model,
                                gpu=target.gpu)
    except ValueError as exc:
        raise PredictError.from_refusal(exc) from exc

