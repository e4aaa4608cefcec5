"""The programmable facade over the paper's workflow (Figure 2).

``repro.api`` packages the profile → replay → calibrate → manipulate →
predict loop behind one stateful object:

``repro.api.study``
    :class:`Study` (the facade), :class:`Prediction`,
    :class:`WhatIfBuilder` and the one-call :func:`predict` convenience
    wrapper.
``repro.api.target``
    :class:`Target` and :func:`parse_target` — the unified prediction-
    target type every study method accepts (parallelism, model, serving
    and hardware targets — composable as ``"tp=8,gpu=H200-SXM"`` —
    behind one ``target=`` parameter).
``repro.api.errors``
    :class:`StudyError` and :class:`PredictError` — the typed errors the
    facade raises instead of printing to stderr.

The CLI and the sweep runner are clients of this package; anything they
can do is available programmatically here.
"""

from repro.api.errors import PredictError, StudyError
from repro.api.study import (
    KIND_ARCHITECTURE,
    KIND_BASELINE,
    KIND_HARDWARE,
    KIND_PARALLELISM,
    KIND_SERVING,
    Prediction,
    Study,
    WhatIfBuilder,
    predict,
)
from repro.api.target import Target, parse_target

__all__ = [
    "KIND_ARCHITECTURE",
    "KIND_BASELINE",
    "KIND_HARDWARE",
    "KIND_PARALLELISM",
    "KIND_SERVING",
    "Prediction",
    "PredictError",
    "Study",
    "StudyError",
    "Target",
    "WhatIfBuilder",
    "parse_target",
    "predict",
]
