"""The seeded offline sweep: measure the (t, N) → throughput surface.

Each trial is one short PRISMA-over-TF training run pinned at a static
(t, N) with :class:`~repro.core.StaticPolicy` — no tuner moving the knobs
mid-measurement — over a backend built purely from
:class:`~repro.storage.backend.BackendConfig`, so the same grid runs
against a POSIX block device and an S3-like object store by changing one
config field.  A fresh :class:`~repro.simcore.kernel.Simulator` and
seeded RNG per trial make the whole sweep byte-deterministic: same seed,
same grid → the same JSONL, bit for bit.

This is the *offline* half of the training-data pipeline; the online half
(:func:`~repro.perfmodel.dataset.samples_from_history`) harvests the same
rows from a running control plane's telemetry.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core import PrismaConfig, StaticPolicy, build_prisma
from ..core.integrations import PrismaTensorFlowPipeline
from ..dataset.catalog import DatasetCatalog
from ..dataset.shuffle import EpochShuffler
from ..dataset.synthetic import uniform_sizes
from ..frameworks.models import LENET, GpuEnsemble, ModelProfile
from ..frameworks.training import Trainer, TrainingConfig
from ..simcore.kernel import Simulator
from ..simcore.random import RandomStreams
from ..storage.backend import BackendConfig, build_backend
from ..storage.posix import PosixLayer
from .features import PerfSample

KiB = 1024

#: The default sweep grid.  Threads span the autotune policy's feasible
#: range; depths are octave-spaced because the buffer's effect on
#: starvation is logarithmic (doubling a big buffer matters far less than
#: doubling a small one).
DEFAULT_THREADS = (1, 2, 3, 4, 6, 8)
DEFAULT_DEPTHS = (64, 256, 1024)


def run_sweep_trial(
    backend_config: BackendConfig,
    threads: int,
    prefetch_depth: int,
    *,
    seed: int = 0,
    n_files: int = 192,
    file_size: int = 64 * KiB,
    batch_size: int = 32,
    epochs: int = 2,
    lookahead_epochs: int = 0,
    model: ModelProfile = LENET,
) -> PerfSample:
    """One static-(t, N) training run; returns its measured sample.

    Throughput is delivered backend read bytes over total simulated run
    time — the same quantity the telemetry harvest computes from
    ``Δbytes_fetched / Δt``, integrated over the whole run.
    """
    streams = RandomStreams(seed)
    sim = Simulator()
    backend = build_backend(sim, backend_config, streams=streams)
    catalog = DatasetCatalog("/data/sweep", uniform_sizes(n_files, n_files * file_size))
    catalog.materialize(backend)
    posix = PosixLayer(sim, backend)
    stage, _prefetcher, controller = build_prisma(
        sim,
        posix,
        PrismaConfig(
            policy=StaticPolicy(producers=threads, buffer_capacity=prefetch_depth),
            producers=threads,
            buffer_capacity=prefetch_depth,
            max_producers=max(threads, 8),
            lookahead_epochs=lookahead_epochs,
        ),
    )
    train_src = PrismaTensorFlowPipeline(
        sim, catalog, EpochShuffler(n_files, streams.spawn("shuffle")),
        batch_size, stage, model,
    )
    trainer = Trainer(
        sim, model, GpuEnsemble(sim), train_src,
        TrainingConfig(epochs=epochs, global_batch=batch_size, validate=False),
        setup=f"sweep/{backend_config.kind}/t{threads}/N{prefetch_depth}",
    )
    result = trainer.run_to_completion()
    controller.stop()
    sim.close()
    if result.total_time <= 0:
        raise RuntimeError("sweep trial finished with zero simulated time")
    return PerfSample(
        threads=threads,
        prefetch_depth=prefetch_depth,
        batch_size=batch_size,
        backend_kind=backend_config.kind,
        lookahead_epochs=lookahead_epochs,
        throughput=float(backend.bytes_read()) / result.total_time,
        source="sweep",
        seed=seed,
    )


def run_offline_sweep(
    backend_configs: Sequence[BackendConfig],
    *,
    threads_grid: Sequence[int] = DEFAULT_THREADS,
    depths_grid: Sequence[int] = DEFAULT_DEPTHS,
    seed: int = 0,
    n_files: int = 192,
    file_size: int = 64 * KiB,
    batch_size: int = 32,
    epochs: int = 2,
    lookahead_epochs: int = 0,
    model: ModelProfile = LENET,
) -> List[PerfSample]:
    """The full grid over every backend config, in deterministic order."""
    samples: List[PerfSample] = []
    for backend_config in backend_configs:
        for t in sorted(threads_grid):
            for n in sorted(depths_grid):
                samples.append(
                    run_sweep_trial(
                        backend_config, t, n,
                        seed=seed, n_files=n_files, file_size=file_size,
                        batch_size=batch_size, epochs=epochs,
                        lookahead_epochs=lookahead_epochs, model=model,
                    )
                )
    return samples


def default_backend_configs() -> List[BackendConfig]:
    """The two deployments the acceptance gate compares: POSIX + object."""
    return [BackendConfig(kind="posix"), BackendConfig(kind="object")]


__all__ = [
    "DEFAULT_DEPTHS",
    "DEFAULT_THREADS",
    "default_backend_configs",
    "run_offline_sweep",
    "run_sweep_trial",
]
