"""Latency recording at distribution granularity.

Previously homed in ``repro.metrics.timeseries``; now part of the unified
telemetry subsystem so trace replay and the experiments feed the same
recorder type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of recorded request latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def row(self) -> str:
        return (
            f"n={self.count} mean={self.mean * 1e6:.0f}us "
            f"p50={self.p50 * 1e6:.0f}us p90={self.p90 * 1e6:.0f}us "
            f"p99={self.p99 * 1e6:.0f}us max={self.maximum * 1e6:.0f}us"
        )


class LatencyRecorder:
    """Append-only record of ``(completion_time, latency)`` observations.

    Bounded by ``max_samples`` with uniform reservoir downsampling so
    indefinitely long runs can keep a recorder attached.
    """

    def __init__(self, name: str = "latency", max_samples: int = 200_000) -> None:
        from numpy.random import default_rng

        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.max_samples = max_samples
        self._times: List[float] = []
        self._values: List[float] = []
        self._seen = 0
        self._rng = default_rng(0)

    def record(self, time: float, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._seen += 1
        if len(self._values) < self.max_samples:
            self._times.append(time)
            self._values.append(latency)
            return
        # Reservoir sampling keeps a uniform subset of the full stream.
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.max_samples:
            self._times[slot] = time
            self._values[slot] = latency

    def __len__(self) -> int:
        return len(self._values)

    @property
    def total_observed(self) -> int:
        return self._seen

    def summary(self) -> LatencySummary:
        import numpy as np

        if not self._values:
            raise ValueError(f"{self.name}: no latencies recorded")
        arr = np.asarray(self._values)
        return LatencySummary(
            count=self._seen,
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p90=float(np.percentile(arr, 90)),
            p99=float(np.percentile(arr, 99)),
            maximum=float(arr.max()),
        )

    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))
