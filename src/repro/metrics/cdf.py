"""CDF utilities for the paper's Figure 3.

Figure 3 plots, for TF-optimized and PRISMA, the *cumulative distribution
function of the time percentage spent at each number of concurrently
reading threads*.  The raw input is a :class:`TimeWeightedGauge` histogram
(seconds at each thread count); these helpers normalize, build step CDFs,
and compute the summary statistics the paper quotes (max threads used,
"2–7× more threads").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class DiscreteCDF:
    """A right-continuous step CDF over discrete values."""

    values: Tuple[float, ...]
    cumulative: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.cumulative):
            raise ValueError("values and cumulative must have equal length")
        if list(self.values) != sorted(self.values):
            raise ValueError("values must be sorted ascending")
        if any(b < a - 1e-12 for a, b in zip(self.cumulative, self.cumulative[1:])):
            raise ValueError("cumulative must be non-decreasing")
        if self.cumulative and not (abs(self.cumulative[-1] - 1.0) < 1e-9):
            raise ValueError("cumulative must end at 1.0")

    def at(self, value: float) -> float:
        """P(X <= value)."""
        result = 0.0
        for v, c in zip(self.values, self.cumulative):
            if v <= value:
                result = c
            else:
                break
        return result

    def quantile(self, q: float) -> float:
        """Smallest value with cumulative probability >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        for v, c in zip(self.values, self.cumulative):
            if c >= q - 1e-12:
                return v
        return self.values[-1]

    @property
    def maximum(self) -> float:
        return self.values[-1]

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self.values, self.cumulative))


def cdf_from_histogram(histogram: Dict[float, float], drop_zero: bool = False) -> DiscreteCDF:
    """Build a time-fraction CDF from a {value: seconds} histogram.

    ``drop_zero`` excludes the zero-thread state — the paper's Figure 3
    measures "time spent by I/O threads actively reading", conditioning on
    the training phase being active.
    """
    items = {float(v): float(t) for v, t in histogram.items() if t > 0}
    if drop_zero:
        items.pop(0.0, None)
    if not items:
        raise ValueError("histogram is empty (after filtering)")
    total = sum(items.values())
    values = sorted(items)
    cum: List[float] = []
    acc = 0.0
    for v in values:
        acc += items[v] / total
        cum.append(acc)
    cum[-1] = 1.0  # kill accumulated float error
    return DiscreteCDF(tuple(values), tuple(cum))


def thread_usage_ratio(a: DiscreteCDF, b: DiscreteCDF, quantiles: Sequence[float] = (0.5, 0.9, 0.99)) -> Dict[float, float]:
    """Per-quantile ratio of thread counts (the paper's "2–7x more").

    Returns {q: a.quantile(q) / b.quantile(q)}; zero denominators map to inf.
    """
    out: Dict[float, float] = {}
    for q in quantiles:
        denom = b.quantile(q)
        out[q] = float("inf") if denom == 0 else a.quantile(q) / denom
    return out


def empirical_cdf(samples: Sequence[float]) -> DiscreteCDF:
    """Standard ECDF over raw samples (each sample weighted equally)."""
    import numpy as np

    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples are empty")
    values, counts = np.unique(arr, return_counts=True)
    cum = np.cumsum(counts) / arr.size
    cum[-1] = 1.0
    return DiscreteCDF(tuple(values.tolist()), tuple(cum.tolist()))
