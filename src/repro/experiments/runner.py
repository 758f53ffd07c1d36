"""Trial runner: one simulated training run per call.

Builds the full stack — device, filesystem, dataset, (optionally) PRISMA,
framework pipeline, GPU ensemble, trainer — runs it to completion, and
returns a :class:`TrialResult` with paper-equivalent timings and the
telemetry the figures need (thread-activity histograms, controller
history).

Setups (paper §V):

* TensorFlow: ``tf-baseline`` | ``tf-optimized`` | ``tf-prisma``
* PyTorch:    ``torch-native`` (choose ``num_workers``) | ``torch-prisma``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..core import Controller, ParallelPrefetcher, PrismaConfig, build_prisma
from ..core.integrations import (
    PrismaTensorFlowPipeline,
    PrismaTorchDataLoader,
    PrismaUDSServer,
    make_torch_posix_factory,
)
from ..dataset.catalog import TrainValSplit
from ..dataset.shuffle import EpochShuffler
from ..dataset.synthetic import imagenet_like
from ..frameworks.models import GpuEnsemble, ModelProfile
from ..frameworks.pytorch.dataloader import TorchDataLoader
from ..frameworks.tensorflow.pipeline import TFDataPipeline, tf_baseline, tf_optimized
from ..frameworks.training import Trainer, TrainingConfig, TrainingResult
from ..simcore.kernel import Simulator
from ..simcore.random import RandomStreams
from ..storage.backend import BackendConfig, build_backend
from ..storage.posix import PosixLayer
from .config import ExperimentScale, HardwareProfile, abci_node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry import Telemetry

TF_SETUPS = ("tf-baseline", "tf-optimized", "tf-prisma")
TORCH_SETUPS = ("torch-native", "torch-prisma")


@dataclass
class TrialResult:
    """Everything one trial produces."""

    setup: str
    model: str
    batch_size: int
    num_workers: Optional[int]
    sim_seconds: float
    paper_equivalent_seconds: float
    training: TrainingResult
    #: {thread count: seconds} for the I/O-thread activity CDF (Fig. 3)
    reader_activity: Dict[float, float] = field(default_factory=dict)
    #: PRISMA-only telemetry
    producer_activity: Dict[float, float] = field(default_factory=dict)
    buffer_hit_rate: float = 0.0
    final_producers: int = 0
    peak_producers: int = 0
    final_buffer_capacity: int = 0
    control_cycles: int = 0
    control_enforcements: int = 0
    control_rpc_failures: int = 0


@dataclass
class _Env:
    sim: Simulator
    posix: PosixLayer
    split: TrainValSplit
    train_shuffler: EpochShuffler
    val_shuffler: EpochShuffler
    streams: RandomStreams


def _build_env(hardware: HardwareProfile, scale: ExperimentScale, seed: int) -> _Env:
    streams = RandomStreams(seed)
    sim = Simulator()
    fs = build_backend(
        sim, BackendConfig(device_profile=hardware.device), streams=streams
    )
    split = imagenet_like(streams, scale=scale.scale)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    return _Env(
        sim=sim,
        posix=posix,
        split=split,
        train_shuffler=EpochShuffler(len(split.train), streams.spawn("shuffle.train")),
        val_shuffler=EpochShuffler(len(split.validation), streams.spawn("shuffle.val")),
        streams=streams,
    )


def _finish(
    env: _Env,
    trainer: Trainer,
    scale: ExperimentScale,
    setup: str,
    model: ModelProfile,
    batch_size: int,
    num_workers: Optional[int],
    train_src,
    prefetcher: Optional[ParallelPrefetcher],
    controller: Optional[Controller],
    telemetry: Optional["Telemetry"],
) -> TrialResult:
    """Run the trial and build its result; then detach ``telemetry`` and
    close the simulator, so the trial's stack is freed on return."""
    try:
        result = trainer.run_to_completion()
        trial = TrialResult(
            setup=setup,
            model=model.name,
            batch_size=batch_size,
            num_workers=num_workers,
            sim_seconds=result.total_time,
            paper_equivalent_seconds=scale.paper_equivalent(result.total_time),
            training=result,
            reader_activity=train_src.active_readers.histogram(),
        )
        if prefetcher is not None:
            trial.producer_activity = prefetcher.active_producers.histogram()
            trial.buffer_hit_rate = prefetcher.buffer.hit_rate()
            trial.final_producers = prefetcher.target_producers
            trial.peak_producers = int(prefetcher.allocated_producers.max_seen())
            trial.final_buffer_capacity = prefetcher.buffer.capacity
        if controller is not None:
            trial.control_cycles = controller.cycles
            trial.control_enforcements = controller.enforcements
            trial.control_rpc_failures = controller.rpc_failures
            controller.stop()
        return trial
    finally:
        if telemetry is not None:
            telemetry.detach()
        env.sim.close()


# -- TensorFlow trials --------------------------------------------------------------
def run_tf_trial(
    setup: str,
    model: ModelProfile,
    batch_size: int,
    scale: ExperimentScale,
    hardware: Optional[HardwareProfile] = None,
    seed: int = 0,
    prefetch_validation: bool = False,
    telemetry: Optional["Telemetry"] = None,
) -> TrialResult:
    """One TensorFlow training run under the given setup.

    ``prefetch_validation`` enables the paper's §V-A "feasible adjustment":
    the prototype leaves validation reads unoptimized (explaining the gap
    to TF-optimized); with this flag PRISMA prefetches them too.  Only
    meaningful for the ``tf-prisma`` setup.
    """
    if setup not in TF_SETUPS:
        raise ValueError(f"unknown TF setup {setup!r}; expected one of {TF_SETUPS}")
    scale.check_granularity(batch_size)
    hardware = hardware or abci_node()
    env = _build_env(hardware, scale, seed)
    sim = env.sim
    if telemetry is not None:
        telemetry.attach(sim, process=f"{setup}/{model.name}/bs{batch_size}/seed{seed}")

    prefetcher: Optional[ParallelPrefetcher] = None
    controller: Optional[Controller] = None
    if setup == "tf-prisma":
        stage, prefetcher, controller = build_prisma(
            sim, env.posix, PrismaConfig(control_period=scale.control_period)
        )
        train_src: TFDataPipeline = PrismaTensorFlowPipeline(
            sim, env.split.train, env.train_shuffler, batch_size, stage, model
        )
        if prefetch_validation:
            # §V-A extension: route validation reads through the data plane.
            val_src = PrismaTensorFlowPipeline(
                sim, env.split.validation, env.val_shuffler, batch_size, stage,
                model, name="val",
            )
        else:
            # The prototype does not prefetch validation files (paper §V-A).
            val_src = tf_baseline(
                sim, env.split.validation, env.val_shuffler, batch_size, env.posix,
                model, name="val",
            )
    else:
        factory = tf_baseline if setup == "tf-baseline" else tf_optimized
        train_src = factory(
            sim, env.split.train, env.train_shuffler, batch_size, env.posix, model
        )
        val_src = factory(
            sim, env.split.validation, env.val_shuffler, batch_size, env.posix,
            model, name="val",
        )

    gpus = GpuEnsemble(sim, n_gpus=hardware.n_gpus)
    trainer = Trainer(
        sim, model, gpus, train_src,
        TrainingConfig(epochs=scale.epochs, global_batch=batch_size),
        val_src, setup=setup,
    )
    return _finish(
        env, trainer, scale, setup, model, batch_size, None,
        train_src, prefetcher, controller, telemetry,
    )


# -- PyTorch trials --------------------------------------------------------------
def run_torch_trial(
    setup: str,
    model: ModelProfile,
    batch_size: int,
    num_workers: int,
    scale: ExperimentScale,
    hardware: Optional[HardwareProfile] = None,
    seed: int = 0,
    telemetry: Optional["Telemetry"] = None,
) -> TrialResult:
    """One PyTorch training run: native DataLoader or PRISMA-backed."""
    if setup not in TORCH_SETUPS:
        raise ValueError(f"unknown torch setup {setup!r}; expected one of {TORCH_SETUPS}")
    if num_workers < 0:
        raise ValueError("num_workers must be >= 0")
    scale.check_granularity(batch_size, min_batches=max(25, 6 * max(num_workers, 1)))
    hardware = hardware or abci_node()
    env = _build_env(hardware, scale, seed)
    sim = env.sim
    if telemetry is not None:
        telemetry.attach(
            sim,
            process=f"{setup}/{model.name}/bs{batch_size}/w{num_workers}/seed{seed}",
        )
    split = env.split

    prefetcher: Optional[ParallelPrefetcher] = None
    controller: Optional[Controller] = None
    if setup == "torch-prisma":
        stage, prefetcher, controller = build_prisma(
            sim, env.posix, PrismaConfig(control_period=scale.control_period)
        )
        server = PrismaUDSServer(sim, stage)
        train_src = PrismaTorchDataLoader(
            sim, split.train, env.train_shuffler, batch_size, stage, server, model,
            num_workers=num_workers,
        )
        # Validation reads go through the clients too, but are not in the
        # prefetch list, so the stage falls back to the backend (§V-A).
        factory = make_torch_posix_factory(sim, server, stage.size)
        val_src = TorchDataLoader(
            sim, split.validation, env.val_shuffler, batch_size, factory, model,
            num_workers=num_workers, name="val",
        )
    else:
        factory = lambda worker_id: env.posix  # noqa: E731 - shared backend
        train_src = TorchDataLoader(
            sim, split.train, env.train_shuffler, batch_size, factory, model,
            num_workers=num_workers,
        )
        val_src = TorchDataLoader(
            sim, split.validation, env.val_shuffler, batch_size, factory, model,
            num_workers=num_workers, name="val",
        )

    gpus = GpuEnsemble(sim, n_gpus=hardware.n_gpus)
    trainer = Trainer(
        sim, model, gpus, train_src,
        TrainingConfig(epochs=scale.epochs, global_batch=batch_size),
        val_src, setup=f"{setup}-w{num_workers}",
    )
    return _finish(
        env, trainer, scale, setup, model, batch_size, num_workers,
        train_src, prefetcher, controller, telemetry,
    )
