"""Figure 2 — TensorFlow training time: baseline vs optimized vs PRISMA.

Reproduces the paper's Figure 2: average training time of the three
TensorFlow setups for LeNet, AlexNet, and ResNet-50 under batch sizes
64/128/256 (10 epochs, 4 GPUs, ImageNet).  Multiple seeded runs give the
mean/std the paper's error bars report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..frameworks.models import ALEXNET, LENET, RESNET50, ModelProfile
from ..metrics.summary import RunStats, reduction_percent, run_stats
from .config import ExperimentScale, HardwareProfile, figure2_scale
from .paper import FIG2_LENET_SECONDS
from .runner import TF_SETUPS, TrialResult, run_tf_trial

DEFAULT_MODELS: Tuple[ModelProfile, ...] = (LENET, ALEXNET, RESNET50)
DEFAULT_BATCHES: Tuple[int, ...] = (64, 128, 256)


@dataclass
class Figure2Cell:
    """One bar of the figure: (model, batch, setup) across runs."""

    model: str
    batch_size: int
    setup: str
    stats: RunStats
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.stats.mean


@dataclass
class Figure2Result:
    """All cells plus derived reductions."""

    cells: List[Figure2Cell] = field(default_factory=list)

    def cell(self, model: str, batch_size: int, setup: str) -> Figure2Cell:
        for c in self.cells:
            if (c.model, c.batch_size, c.setup) == (model, batch_size, setup):
                return c
        raise KeyError((model, batch_size, setup))

    def reduction(self, model: str, batch_size: int, setup: str) -> float:
        """% training-time reduction of ``setup`` vs the baseline."""
        base = self.cell(model, batch_size, "tf-baseline").seconds
        return reduction_percent(base, self.cell(model, batch_size, setup).seconds)

    def models(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.model not in seen:
                seen.append(c.model)
        return seen

    def batch_sizes(self) -> List[int]:
        return sorted({c.batch_size for c in self.cells})


def run_figure2(
    scale: Optional[ExperimentScale] = None,
    models: Sequence[ModelProfile] = DEFAULT_MODELS,
    batch_sizes: Sequence[int] = DEFAULT_BATCHES,
    setups: Sequence[str] = TF_SETUPS,
    hardware: Optional[HardwareProfile] = None,
    progress=None,
    base_seed: int = 0,
    telemetry=None,
) -> Figure2Result:
    """Run the full Figure 2 grid; ``progress`` is an optional callback.

    ``base_seed`` offsets every trial's seed (run *i* uses ``base_seed + i``);
    ``telemetry`` is an optional :class:`repro.telemetry.Telemetry` hub that
    records spans from every trial (one trace process per trial).
    """
    scale = scale or figure2_scale()
    result = Figure2Result()
    for model in models:
        for batch in batch_sizes:
            for setup in setups:
                trials: List[TrialResult] = []
                for run in range(scale.runs):
                    trial = run_tf_trial(
                        setup, model, batch, scale, hardware=hardware,
                        seed=base_seed + run, telemetry=telemetry,
                    )
                    trials.append(trial)
                    if progress is not None:
                        progress(trial)
                result.cells.append(
                    Figure2Cell(
                        model=model.name,
                        batch_size=batch,
                        setup=setup,
                        stats=run_stats([t.paper_equivalent_seconds for t in trials]),
                        trials=trials,
                    )
                )
    return result


def paper_reference(model: str, batch_size: int, setup: str) -> Optional[float]:
    """The paper's value for a cell, when it quotes one."""
    if model == "lenet":
        key = (batch_size, setup.replace("tf-", ""))
        return FIG2_LENET_SECONDS.get(key)
    return None
