"""Ablation studies on PRISMA's design choices (beyond the paper's figures).

The paper's §VII sketches these as open directions; DESIGN.md commits to
them as ablation benches:

* **Auto-tune vs static (t, N) grid** — quantifies what the feedback loop
  buys over the manual-configuration strawman, and shows the auto-tuner
  lands within a few percent of the best static point without the sweep.
* **Storage-device sensitivity** — re-runs the headline comparison on
  different device profiles (HDD → NVMe gen4); the decoupled optimization
  adapts via its control loop with zero code changes.
* **Control-period sensitivity** — how stale control decisions degrade the
  tuner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import PrismaConfig, StaticPolicy, build_prisma
from ..core.integrations import PrismaTensorFlowPipeline
from ..dataset.shuffle import EpochShuffler
from ..dataset.synthetic import imagenet_like
from ..frameworks.models import LENET, GpuEnsemble, ModelProfile
from ..frameworks.tensorflow.pipeline import tf_baseline
from ..frameworks.training import Trainer, TrainingConfig
from ..simcore.kernel import Simulator
from ..simcore.random import RandomStreams
from ..storage.device import (
    BlockDevice,
    DeviceProfile,
    intel_p4600,
    nvme_gen4,
    sata_hdd,
)
from ..storage.filesystem import Filesystem
from ..storage.posix import PosixLayer
from .config import ExperimentScale, figure2_scale


@dataclass
class AblationPoint:
    """One configuration of an ablation sweep."""

    label: str
    paper_equivalent_seconds: float
    detail: Dict[str, object] = field(default_factory=dict)


def _run_prisma_tf(
    model: ModelProfile,
    batch_size: int,
    scale: ExperimentScale,
    device: DeviceProfile,
    policy=None,
    control_period: Optional[float] = None,
    seed: int = 0,
) -> Tuple[float, object]:
    """One PRISMA-over-TF run with a chosen policy/device; returns time+pf."""
    streams = RandomStreams(seed)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, device))
    split = imagenet_like(streams, scale=scale.scale)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    stage, prefetcher, controller = build_prisma(
        sim,
        posix,
        PrismaConfig(
            control_period=control_period or scale.control_period,
            policy=policy,
        ),
    )
    train_src = PrismaTensorFlowPipeline(
        sim, split.train, EpochShuffler(len(split.train), streams.spawn("t")),
        batch_size, stage, model,
    )
    val_src = tf_baseline(
        sim, split.validation,
        EpochShuffler(len(split.validation), streams.spawn("v")),
        batch_size, posix, model, name="val",
    )
    trainer = Trainer(
        sim, model, GpuEnsemble(sim), train_src,
        TrainingConfig(epochs=scale.epochs, global_batch=batch_size),
        val_src, setup="ablation",
    )
    result = trainer.run_to_completion()
    controller.stop()
    sim.close()
    return scale.paper_equivalent(result.total_time), prefetcher


def static_grid(
    producers: Sequence[int] = (1, 2, 4, 8),
    buffers: Sequence[int] = (64, 256, 1024),
    model: ModelProfile = LENET,
    batch_size: int = 256,
    scale: Optional[ExperimentScale] = None,
) -> List[AblationPoint]:
    """Sweep fixed (t, N) configurations (the manual-tuning strawman)."""
    scale = scale or figure2_scale()
    points: List[AblationPoint] = []
    for t in producers:
        for n in buffers:
            seconds, _ = _run_prisma_tf(
                model, batch_size, scale, intel_p4600(),
                policy=StaticPolicy(producers=t, buffer_capacity=n),
            )
            points.append(
                AblationPoint(
                    label=f"static t={t} N={n}",
                    paper_equivalent_seconds=seconds,
                    detail={"producers": t, "buffer": n},
                )
            )
    return points


def autotune_point(
    model: ModelProfile = LENET,
    batch_size: int = 256,
    scale: Optional[ExperimentScale] = None,
) -> AblationPoint:
    """The feedback-loop configuration, for comparison against the grid."""
    scale = scale or figure2_scale()
    seconds, prefetcher = _run_prisma_tf(model, batch_size, scale, intel_p4600())
    return AblationPoint(
        label="autotune",
        paper_equivalent_seconds=seconds,
        detail={
            "final_producers": prefetcher.target_producers,
            "final_buffer": prefetcher.buffer.capacity,
        },
    )


DEVICE_SWEEP: Dict[str, DeviceProfile] = {
    "sata-hdd": sata_hdd(),
    "intel-p4600": intel_p4600(),
    "nvme-gen4": nvme_gen4(),
}


def device_sensitivity(
    model: ModelProfile = LENET,
    batch_size: int = 256,
    scale: Optional[ExperimentScale] = None,
    devices: Optional[Dict[str, DeviceProfile]] = None,
) -> List[AblationPoint]:
    """PRISMA across device classes: the tuner re-converges per device."""
    scale = scale or figure2_scale()
    points: List[AblationPoint] = []
    for name, device in (devices or DEVICE_SWEEP).items():
        seconds, prefetcher = _run_prisma_tf(model, batch_size, scale, device)
        points.append(
            AblationPoint(
                label=f"device {name}",
                paper_equivalent_seconds=seconds,
                detail={
                    "device": name,
                    "final_producers": prefetcher.target_producers,
                },
            )
        )
    return points


def control_period_sensitivity(
    periods_unscaled: Sequence[float] = (0.25, 1.0, 4.0, 16.0),
    model: ModelProfile = LENET,
    batch_size: int = 256,
    scale: Optional[ExperimentScale] = None,
) -> List[AblationPoint]:
    """How control-loop staleness affects convergence and training time."""
    scale = scale or figure2_scale()
    points: List[AblationPoint] = []
    for period in periods_unscaled:
        seconds, prefetcher = _run_prisma_tf(
            model, batch_size, scale, intel_p4600(),
            control_period=period / scale.scale,
        )
        points.append(
            AblationPoint(
                label=f"period {period:g}s",
                paper_equivalent_seconds=seconds,
                detail={
                    "period_unscaled": period,
                    "final_producers": prefetcher.target_producers,
                },
            )
        )
    return points


def best_static(points: List[AblationPoint]) -> AblationPoint:
    return min(points, key=lambda p: p.paper_equivalent_seconds)
