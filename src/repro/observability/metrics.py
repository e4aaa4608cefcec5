"""Process-local metrics registry: counters, gauges and histograms.

The registry is deliberately tiny — a dictionary per instrument family,
no dependencies, no background threads — because its job is narrow:
while a pipeline profile is active (:mod:`repro.observability.tracing`),
instrumented code records *why* the pipeline behaved the way it did
(cache hit rates, batched-fast-path vs. fallback counts, calibration
residuals, scenario throughput), and the run report snapshots the
registry next to the span tree.

Instruments are created on first use and addressed by name.  Histogram
values are kept as streaming summaries (count / total / min / max), not
raw samples, so recording is O(1) and the snapshot stays small however
many kernels a calibration observes.  Every update and snapshot holds the
registry's lock: the sweep service's handler and worker threads write one
registry concurrently, and a read-modify-write counter would otherwise
lose updates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any


@dataclass
class HistogramSummary:
    """Streaming summary of one histogram's observations."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_json(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {"count": self.count, "total": self.total,
                "min": self.minimum, "max": self.maximum, "mean": self.mean}


class MetricsRegistry:
    """Thread-safe counters, gauges and histograms for one profiled run."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, HistogramSummary] = {}
        self._lock = threading.Lock()

    def count(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to the counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + float(n)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = HistogramSummary()
            histogram.observe(value)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able snapshot of every instrument, sorted by name."""
        with self._lock:
            return {
                "counters": {name: self.counters[name] for name in sorted(self.counters)},
                "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
                "histograms": {name: self.histograms[name].to_json()
                               for name in sorted(self.histograms)},
            }

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)
