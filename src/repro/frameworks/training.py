"""Framework-agnostic training-loop driver.

The :class:`Trainer` reproduces the paper's methodology (§V): a fixed number
of epochs, each consisting of a training phase over the full training set
followed by a validation phase, on a synchronous multi-GPU engine.  Batches
come from a :class:`DataSource` — the abstraction both framework simulators
(and their PRISMA-backed variants) implement — so every experimental setup
runs under the *identical* outer loop and differences are attributable to
the data path alone.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..simcore.event import Event
from .models import GpuEnsemble, ModelProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class DataSource(abc.ABC):
    """A stream of batches for one phase of training.

    Contract: ``begin_epoch`` arms the source for a new pass;
    ``next_batch()`` yields an event whose value is the number of samples in
    the batch, or ``None`` when the epoch is exhausted; ``end_epoch`` lets
    the source tear down per-epoch machinery.
    """

    @abc.abstractmethod
    def begin_epoch(self, epoch: int) -> None:
        """Prepare to serve one full pass of the dataset."""

    @abc.abstractmethod
    def next_batch(self) -> Event:
        """Event valued with the batch's sample count, or None at end."""

    def end_epoch(self) -> None:  # noqa: B027 - optional hook
        """Per-epoch cleanup (optional)."""


@dataclass(frozen=True)
class TrainingConfig:
    """Methodology parameters (paper §V defaults)."""

    epochs: int = 10
    global_batch: int = 256
    validate: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.global_batch < 1:
            raise ValueError("global_batch must be >= 1")


@dataclass
class EpochStats:
    """Timing breakdown of one epoch."""

    epoch: int
    train_time: float
    validation_time: float
    train_batches: int
    validation_batches: int

    @property
    def total(self) -> float:
        return self.train_time + self.validation_time


@dataclass
class TrainingResult:
    """Outcome of a full training run."""

    model: str
    setup: str
    config: TrainingConfig
    epoch_stats: List[EpochStats] = field(default_factory=list)
    total_time: float = 0.0
    gpu_utilization: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    def mean_epoch_time(self) -> float:
        if not self.epoch_stats:
            return 0.0
        return self.total_time / len(self.epoch_stats)

    def summary(self) -> str:
        return (
            f"{self.model}/{self.setup}: total={self.total_time:.1f}s "
            f"({self.mean_epoch_time():.1f}s/epoch, "
            f"gpu_util={self.gpu_utilization:.0%})"
        )


class Trainer:
    """Runs the paper's training methodology over any :class:`DataSource`."""

    def __init__(
        self,
        sim: "Simulator",
        model: ModelProfile,
        gpus: GpuEnsemble,
        train_source: DataSource,
        config: TrainingConfig,
        validation_source: Optional[DataSource] = None,
        setup: str = "unnamed",
        checkpointer=None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.gpus = gpus
        self.train_source = train_source
        self.validation_source = validation_source
        self.config = config
        self.setup = setup
        #: optional :class:`~.checkpoint.CheckpointWriter` hooked per step
        self.checkpointer = checkpointer
        if config.validate and validation_source is None:
            raise ValueError("validate=True requires a validation_source")

    # -- phases ---------------------------------------------------------------
    def _run_phase(self, source: DataSource, epoch: int, training: bool):
        """Generator: one full pass; returns (duration, batch_count)."""
        start = self.sim.now
        source.begin_epoch(epoch)
        batches = 0
        while True:
            batch = yield source.next_batch()
            if batch is None:
                break
            batches += 1
            if training:
                yield self.gpus.train_step(self.model, batch)
                if self.checkpointer is not None:
                    blocking = self.checkpointer.on_step()
                    if blocking is not None:
                        # Synchronous checkpoint: the optimizer state must
                        # be quiescent, so finish queued compute first.
                        yield self.gpus.drain()
                        yield blocking
            else:
                yield self.gpus.validation_step(self.model, batch)
        yield self.gpus.drain()
        if training and self.checkpointer is not None:
            yield self.checkpointer.drain()
        source.end_epoch()
        return self.sim.now - start, batches

    def _run(self, result: TrainingResult):
        start = self.sim.now
        for epoch in range(self.config.epochs):
            train_time, train_batches = yield self.sim.process(
                self._run_phase(self.train_source, epoch, training=True),
                name=f"train.e{epoch}",
            )
            val_time, val_batches = 0.0, 0
            if self.config.validate:
                assert self.validation_source is not None
                val_time, val_batches = yield self.sim.process(
                    self._run_phase(self.validation_source, epoch, training=False),
                    name=f"val.e{epoch}",
                )
            result.epoch_stats.append(
                EpochStats(epoch, train_time, val_time, train_batches, val_batches)
            )
        result.total_time = self.sim.now - start
        result.gpu_utilization = self.gpus.utilization()
        return result

    # -- entry point ------------------------------------------------------------
    def start(self) -> Event:
        """Launch the training process; the event's value is the result."""
        result = TrainingResult(self.model.name, self.setup, self.config)
        return self.sim.process(self._run(result), name=f"trainer.{self.setup}")

    def run_to_completion(self) -> TrainingResult:
        """Convenience: start and drive the simulator until training ends."""
        done = self.start()
        self.sim.run(until=done)
        return done.value
