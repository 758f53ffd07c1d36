"""Time-series utilities: rate binning and percentile tables.

The latency-recording classes (:class:`~repro.telemetry.LatencyRecorder`,
:class:`~repro.telemetry.LatencySummary`) live in the unified
:mod:`repro.telemetry` subsystem; this module keeps only the pure
post-processing helpers (:func:`bin_rate`, :func:`percentile_table`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import LatencyRecorder


def bin_rate(
    events: Sequence[Tuple[float, float]],
    bin_width: float,
    t_end: float | None = None,
) -> List[Tuple[float, float]]:
    """Aggregate (time, amount) events into per-bin rates.

    Returns ``(bin_start, amount_per_second)`` rows covering ``[0, t_end)``;
    useful for bandwidth-over-time plots from byte-count traces.
    """
    import numpy as np

    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not events:
        return []
    end = t_end if t_end is not None else max(t for t, _ in events) + bin_width
    n_bins = max(int(np.ceil(end / bin_width)), 1)
    totals = np.zeros(n_bins)
    for t, amount in events:
        index = int(t / bin_width)
        if 0 <= index < n_bins:
            totals[index] += amount
    return [(i * bin_width, totals[i] / bin_width) for i in range(n_bins)]


def percentile_table(recorders: "Dict[str, LatencyRecorder]") -> str:
    """One-line-per-recorder percentile comparison table."""
    lines = []
    for name, rec in recorders.items():
        lines.append(f"{name}: {rec.summary().row()}")
    return "\n".join(lines)
