"""Figure 3 — CDF of time spent at each concurrent-reader-thread count.

The paper instruments TF-optimized and PRISMA and plots, per model, the
cumulative distribution of the percentage of time each number of threads
was actively reading from backend storage.  Here the same measurement falls
out of the :class:`TimeWeightedGauge` attached to TF's reader pool
(``active_readers``) and PRISMA's producer pool (``active_producers``).

Headline claims verified: PRISMA uses at most ~4 threads (~3 for
ResNet-50) while TF-optimized spreads up to its full 30-thread allocation —
"2–7× more threads ... regardless of whether they are needed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..frameworks.models import ALEXNET, LENET, RESNET50, ModelProfile
from ..metrics.cdf import DiscreteCDF, cdf_from_histogram, thread_usage_ratio
from .config import ExperimentScale, HardwareProfile, figure2_scale
from .paper import FIG3_PRISMA_MAX_THREADS
from .runner import TrialResult, run_tf_trial

DEFAULT_MODELS: Tuple[ModelProfile, ...] = (LENET, ALEXNET, RESNET50)


@dataclass
class Figure3Curve:
    """One CDF line of the figure."""

    model: str
    setup: str
    cdf: DiscreteCDF
    trial: TrialResult

    @property
    def max_threads(self) -> int:
        return int(self.cdf.maximum)

    def median_threads(self) -> float:
        return self.cdf.quantile(0.5)


@dataclass
class Figure3Result:
    curves: List[Figure3Curve] = field(default_factory=list)

    def curve(self, model: str, setup: str) -> Figure3Curve:
        for c in self.curves:
            if (c.model, c.setup) == (model, setup):
                return c
        raise KeyError((model, setup))

    def thread_ratio(self, model: str) -> Dict[float, float]:
        """Per-quantile TF-optimized : PRISMA thread ratio (paper: 2-7x)."""
        return thread_usage_ratio(
            self.curve(model, "tf-optimized").cdf,
            self.curve(model, "tf-prisma").cdf,
        )


def run_figure3(
    scale: Optional[ExperimentScale] = None,
    models: Sequence[ModelProfile] = DEFAULT_MODELS,
    batch_size: int = 256,
    hardware: Optional[HardwareProfile] = None,
    trials: Optional[Dict[Tuple[str, str], TrialResult]] = None,
    progress=None,
    base_seed: int = 0,
    telemetry=None,
) -> Figure3Result:
    """Build the thread-activity CDFs.

    ``trials`` may carry pre-run Figure 2 trials keyed by
    ``(model_name, setup)`` to avoid re-simulating; missing cells are run.
    """
    scale = scale or figure2_scale()
    trials = dict(trials or {})
    result = Figure3Result()
    for model in models:
        for setup in ("tf-optimized", "tf-prisma"):
            trial = trials.get((model.name, setup))
            if trial is None:
                trial = run_tf_trial(
                    setup, model, batch_size, scale, hardware=hardware,
                    seed=base_seed, telemetry=telemetry,
                )
                if progress is not None:
                    progress(trial)
            activity = (
                trial.producer_activity if setup == "tf-prisma" else trial.reader_activity
            )
            # Condition on "actively reading": drop the zero-thread state
            # (validation phases and compute-bound idling), as the paper's
            # "time spent by I/O threads actively reading" does.
            cdf = cdf_from_histogram(activity, drop_zero=True)
            result.curves.append(Figure3Curve(model.name, setup, cdf, trial))
    return result


def paper_max_threads(model: str) -> int:
    return FIG3_PRISMA_MAX_THREADS[model]
