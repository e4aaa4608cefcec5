"""Typed errors raised by the :mod:`repro.api` facade.

The library raises these instead of printing to stderr; front-ends (the
CLI, notebooks, services) decide how to present them.  Both derive from
:class:`ValueError`, so pre-facade code that caught ``ValueError`` keeps
working.
"""

from __future__ import annotations


class StudyError(ValueError):
    """A study was asked for something inconsistent or unavailable."""


class PredictError(StudyError):
    """A prediction target is unsupported by graph manipulation.

    The canonical case is the paper's stated limitation: tensor-parallelism
    changes rewrite per-kernel shapes throughout the graph, so manipulation
    refuses them.  :attr:`base_tp` / :attr:`target_tp` carry the offending
    degrees when the error is a TP mismatch (both are ``None`` otherwise).
    :attr:`code` carries a machine-readable refusal code when the
    underlying manipulation provided one (e.g. the serving manipulation's
    ``batch=``-on-a-stream refusal), else ``None``.
    """

    def __init__(self, message: str, *, base_tp: int | None = None,
                 target_tp: int | None = None, code: str | None = None) -> None:
        super().__init__(message)
        self.base_tp = base_tp
        self.target_tp = target_tp
        self.code = code

    @classmethod
    def from_refusal(cls, refusal: ValueError) -> "PredictError":
        """A manipulation refusal, typed: its message, code and TP degrees."""
        return cls(str(refusal), base_tp=getattr(refusal, "base_tp", None),
                   target_tp=getattr(refusal, "target_tp", None),
                   code=getattr(refusal, "code", None))
