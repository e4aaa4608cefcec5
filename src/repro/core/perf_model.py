"""Kernel performance model for graph manipulation.

When manipulating the execution graph — changing data parallelism, pipeline
parallelism or the model architecture — some kernels change shape (GEMMs
under a new hidden size), some change cost (collectives over a new group),
and some appear that were not in the original trace (point-to-point
transfers for new stage boundaries).  The paper uses an in-house
fleet-trace performance model for these; this module provides the
equivalent: an analytical model *calibrated against the kernels observed in
the profiled trace*, used in two ways:

* ``scale_*`` — the rescale of an observed kernel's duration by the ratio
  of the analytical prediction for the new configuration to the prediction
  for the old one.  Systematic model error cancels in the ratio, which is
  why the paper only needs to update "a few key kernels, such as GEMM and
  communication-related ones".  Each returns the rescale as a function of
  the observed duration, so a retime that meets one shape on many kernels
  (every layer, step and rank) evaluates the analytical models once.
* ``predict_*`` — absolute predictions (analytical model times the
  calibration factor learned from observed kernels of the same class), for
  kernels with no counterpart in the original trace.

Both run on the profiled cluster, grown by :meth:`KernelPerfModel.covering`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from statistics import median
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.graph import ExecutionGraph
from repro.core.tasks import TaskKind
from repro.hardware.cluster import ClusterSpec
from repro.kernels.collectives import collective_time_us, point_to_point_time_us
from repro.kernels.decode import decode_attention_time_us
from repro.kernels.gemm import gemm_time_us
from repro.kernels.memory_bound import memory_bound_time_us
from repro.observability import tracing as observability
from repro.workload.operators import CollectiveKind, OpClass
from repro.workload.parallelism import ParallelismConfig

_GEMM_SHAPE_RE = re.compile(r"_m(\d+)_n(\d+)_k(\d+)")


def parse_gemm_shape(kernel_name: str) -> tuple[int, int, int] | None:
    """Extract (m, n, k) from a GEMM kernel name, if present."""
    match = _GEMM_SHAPE_RE.search(kernel_name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2)), int(match.group(3))


@dataclass
class KernelPerfModel:
    """Analytical kernel-time model calibrated from an observed trace."""

    cluster: ClusterSpec
    dtype_bytes: int = 2
    calibration: dict[str, float] = field(default_factory=dict)

    # -- calibration --------------------------------------------------------------

    @classmethod
    def calibrate(cls, graph: ExecutionGraph, cluster: ClusterSpec,
                  dtype_bytes: int = 2) -> "KernelPerfModel":
        """Fit per-class calibration factors from the kernels of ``graph``."""
        model = cls(cluster=cluster, dtype_bytes=dtype_bytes)
        ratios: dict[str, list[float]] = {}
        for task in graph.tasks.values():
            if task.kind != TaskKind.GPU or task.duration <= 0:
                continue
            if task.is_communication:
                key, analytical = model._analyse_communication(task.args)
            elif task.op_class == OpClass.DECODE_ATTENTION:
                # Decode-attention shapes are not in the kernel name; the
                # serving emulator carries the analytical inputs in the
                # event args instead (flops / bytes of KV traffic).
                flops = float(task.args.get("flops", 0.0))
                bytes_accessed = float(task.args.get("bytes_accessed", 0.0))
                if bytes_accessed <= 0:
                    continue
                key = "decode_attention"
                analytical = decode_attention_time_us(flops, bytes_accessed, cluster.gpu)
            else:
                shape = parse_gemm_shape(task.name)
                if shape is None:
                    continue
                key = "gemm"
                analytical = gemm_time_us(*shape, dtype_bytes=dtype_bytes, gpu=cluster.gpu)
            if analytical is None or analytical <= 0:
                continue
            ratios.setdefault(key, []).append(task.duration / analytical)
        model.calibration = {key: float(median(values)) for key, values in ratios.items()}
        if observability.tracing_enabled():
            # Residuals are what remains after the per-class factor: how far
            # each observed kernel sits from the fitted median, as a
            # fraction.  Only recorded under an active profile — the loop
            # re-walks every observation.
            for key, values in ratios.items():
                factor = model.calibration[key]
                observability.gauge(f"calibration.factor.{key}", factor)
                for value in values:
                    observability.observe(f"calibration.residual.{key}",
                                          value / factor - 1.0)
        return model

    def covering(self, *parallelisms: ParallelismConfig) -> "KernelPerfModel":
        """This calibration on its own cluster, grown to hold ``parallelisms``.

        Only the GPU count grows; the part, node size and fabric stay the
        profiled ones.  Ratio rescaling evaluates the source
        configuration's groups as well as the target's, so a manipulation
        passes both.
        """
        num_gpus = max([self.cluster.num_gpus,
                        *(parallel.world_size for parallel in parallelisms)])
        return replace(self, cluster=replace(self.cluster, num_gpus=num_gpus))

    def _analyse_communication(self, args: dict) -> tuple[str, float | None]:
        kind = args.get("collective")
        size_bytes = float(args.get("size_bytes", 0.0))
        group_ranks = tuple(args.get("group_ranks", ()))
        group = args.get("group", "unknown")
        if kind is None or not group_ranks:
            return "comm:unknown", None
        key = f"comm:{group}:{kind}"
        if kind in CollectiveKind.POINT_TO_POINT:
            analytical = point_to_point_time_us(size_bytes, group_ranks[0], group_ranks[-1],
                                                self.cluster)
        else:
            analytical = collective_time_us(kind, size_bytes, group_ranks, self.cluster)
        return key, analytical

    def calibration_factor(self, key: str, default: float = 1.0) -> float:
        """Calibration multiplier for a kernel class (1.0 when never observed)."""
        if key in self.calibration:
            return self.calibration[key]
        if key.startswith("comm:"):
            # Fall back to any communication observation of the same collective kind.
            kind = key.split(":")[-1]
            candidates = [value for name, value in self.calibration.items()
                          if name.startswith("comm:") and name.endswith(f":{kind}")]
            if candidates:
                return float(median(candidates))
            candidates = [value for name, value in self.calibration.items()
                          if name.startswith("comm:")]
            if candidates:
                return float(median(candidates))
        return default

    # -- absolute predictions -------------------------------------------------------

    def predict_gemm_us(self, m: int, n: int, k: int) -> float:
        """Predict the duration of an ``m×n×k`` GEMM."""
        analytical = gemm_time_us(m, n, k, dtype_bytes=self.dtype_bytes, gpu=self.cluster.gpu)
        return analytical * self.calibration_factor("gemm")

    def predict_collective_us(self, kind: str, size_bytes: float,
                              group_ranks: tuple[int, ...], group: str = "dp") -> float:
        """Predict the duration of a collective over ``group_ranks``."""
        if kind in CollectiveKind.POINT_TO_POINT:
            analytical = point_to_point_time_us(size_bytes, group_ranks[0], group_ranks[-1],
                                                self.cluster)
        else:
            analytical = collective_time_us(kind, size_bytes, group_ranks, self.cluster)
        return analytical * self.calibration_factor(f"comm:{group}:{kind}")

    def predict_memory_bound_us(self, op_class: str, bytes_accessed: float) -> float:
        """Predict the duration of a bandwidth-bound kernel."""
        return memory_bound_time_us(bytes_accessed, self.cluster.gpu, op_class=op_class)

    def predict_decode_attention_us(self, flops: float, bytes_accessed: float) -> float:
        """Predict the duration of a decode-attention KV-cache sweep."""
        analytical = decode_attention_time_us(flops, bytes_accessed, self.cluster.gpu)
        return analytical * self.calibration_factor("decode_attention")

    # -- ratio-based rescaling ---------------------------------------------------------

    def scale_gemm(self, old_shape: tuple[int, int, int],
                   new_shape: tuple[int, int, int]) -> _Rescale:
        """Rescale of an observed GEMM duration from ``old_shape`` to ``new_shape``."""
        old = gemm_time_us(*old_shape, dtype_bytes=self.dtype_bytes, gpu=self.cluster.gpu)
        new = gemm_time_us(*new_shape, dtype_bytes=self.dtype_bytes, gpu=self.cluster.gpu)
        return _Rescale(new, old)

    def scale_collective(self, kind: str, old_size: float, old_ranks: tuple[int, ...],
                         new_size: float, new_ranks: tuple[int, ...]) -> _Rescale:
        """Rescale of an observed collective duration to a new size and group."""
        if kind in CollectiveKind.POINT_TO_POINT:
            old = point_to_point_time_us(old_size, old_ranks[0], old_ranks[-1], self.cluster)
            new = point_to_point_time_us(new_size, new_ranks[0], new_ranks[-1], self.cluster)
        else:
            old = collective_time_us(kind, old_size, old_ranks, self.cluster)
            new = collective_time_us(kind, new_size, new_ranks, self.cluster)
        return _Rescale(new, old)

    def scale_memory_bound(self, old_bytes: float, new_bytes: float) -> _Rescale:
        """Rescale of an observed bandwidth-bound kernel duration to new traffic."""
        if old_bytes <= 0:
            return _KEEP
        return _Rescale(new_bytes, old_bytes, self.cluster.gpu.kernel_fixed_overhead_us)

    def scale_decode_attention(self, old_flops: float, old_bytes: float,
                               new_flops: float, new_bytes: float) -> _Rescale:
        """Rescale of an observed decode-attention duration to a new KV sweep."""
        old = decode_attention_time_us(old_flops, old_bytes, self.cluster.gpu)
        new = decode_attention_time_us(new_flops, new_bytes, self.cluster.gpu)
        if old <= 0:
            return _KEEP
        return _Rescale(new, old)

    def scale_flops_bound(self, old_flops: float, new_flops: float) -> _Rescale:
        """Rescale of an observed compute-bound kernel (e.g. attention) by FLOP ratio."""
        if old_flops <= 0:
            return _KEEP
        return _Rescale(new_flops, old_flops, self.cluster.gpu.kernel_fixed_overhead_us)


class _Rescale(NamedTuple):
    """An observed duration's rescale: call it with the observed microseconds.

    Without an ``overhead`` the whole duration scales, ``observed * new /
    old``; with one, only the part above the fixed kernel overhead scales
    by ``new / old``, and the fixed part is ``target`` (a hardware
    retarget's new part's overhead) or else stays.  The analytical pair is
    kept rather than its quotient, so applying one rescale to many kernels
    is bit-identical to evaluating it for each.
    """

    new: float
    old: float
    overhead: float | None = None
    target: float | None = None

    def __call__(self, observed_us: float) -> float:
        if self.overhead is None:
            return observed_us * self.new / self.old
        variable = max(observed_us - self.overhead, 0.0)
        fixed = self.overhead if self.target is None else self.target
        return fixed + variable * (self.new / self.old)


#: The rescale that keeps an observed duration (``x * 1.0 / 1.0 == x``).
_KEEP = _Rescale(1.0, 1.0)


def rescale_durations(durations: np.ndarray, codes: np.ndarray,
                      rescales: Sequence[_Rescale | None]) -> np.ndarray:
    """``durations`` with ``rescales[codes[i]]`` applied to element ``i``.

    A ``None`` rescale keeps its durations (it is :data:`_KEEP`).  Every
    element takes the IEEE operations :meth:`_Rescale.__call__` performs, in
    its order, so the column is bit-identical to calling each task's rescale.
    """
    new, old, ratio, overheaded, overhead, fixed = np.array([
        (rescale.new, rescale.old, rescale.new / rescale.old, rescale.overhead is not None,
         rescale.overhead or 0.0,
         (rescale.overhead if rescale.target is None else rescale.target) or 0.0)
        for rescale in (rescale or _KEEP for rescale in rescales)],
        dtype=np.float64).reshape(-1, 6).T[:, codes]
    return np.where(overheaded > 0, fixed + np.maximum(durations - overhead, 0.0) * ratio,
                    durations * new / old)
