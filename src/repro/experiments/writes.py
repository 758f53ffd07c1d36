"""Write-path workloads: checkpoint traffic contending with the data path.

The read-only experiments (figures 2-4) leave out half the storage story:
real training jobs *write* — model checkpoints stream out of the trainer
while prefetch reads stream in, over the same device or object-store link.
This module runs the matrix the paper's decoupling argument predicts wins
on:

* **configs** (the storage deployment): ``posix-read`` (read-only control),
  ``posix-mixed`` (block device with read/write interference,
  checkpointing on), ``object-mixed`` (S3-like object store, checkpointing
  on);
* **setups** (the data+write path): ``baseline-sync`` (plain ``tf.data``
  pipeline, synchronous checkpoints), ``prisma-sync`` (PRISMA data plane,
  synchronous checkpoints), ``prisma-async`` (PRISMA data plane,
  overlapped checkpoints).

Every trial measures read throughput *inside* checkpoint-burst windows
(from :attr:`~repro.frameworks.checkpoint.CheckpointWriter.write_windows`)
separately from steady-state throughput, which is how the interference —
and asynchronous checkpointing's recovery of it — becomes a number a CI
gate can hold (the ``writes`` row of ``benchmarks/gates.py``).

Backends are constructed purely from :class:`~repro.storage.backend.
BackendConfig`, so the object-store rows exercise the config-selected
backend path end to end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import PrismaConfig, build_prisma
from ..core.integrations import PrismaTensorFlowPipeline
from ..dataset.catalog import DatasetCatalog
from ..dataset.shuffle import EpochShuffler
from ..dataset.synthetic import uniform_sizes
from ..frameworks.checkpoint import CheckpointConfig, CheckpointWriter
from ..frameworks.models import LENET, GpuEnsemble
from ..frameworks.tensorflow.pipeline import tf_baseline
from ..frameworks.training import Trainer, TrainingConfig
from ..simcore.kernel import Simulator
from ..simcore.random import RandomStreams
from ..storage.backend import BackendConfig, build_backend
from ..storage.posix import PosixLayer

KiB = 1024

#: storage deployments under test
WRITE_CONFIGS = ("posix-read", "posix-mixed", "object-mixed")
#: data-path / checkpoint-discipline combinations
WRITE_SETUPS = ("baseline-sync", "prisma-sync", "prisma-async")


def backend_config_for(config: str, write_penalty: float = 0.45) -> BackendConfig:
    """The :class:`BackendConfig` one named write-workload config uses."""
    if config == "posix-read":
        return BackendConfig(kind="posix")
    if config == "posix-mixed":
        return BackendConfig(kind="posix", write_penalty=write_penalty)
    if config == "object-mixed":
        return BackendConfig(kind="object")
    raise ValueError(f"unknown config {config!r}; expected one of {WRITE_CONFIGS}")


def _merged_windows(
    windows: List[Tuple[float, float]], lo: float, hi: float
) -> List[Tuple[float, float]]:
    """Clip write bursts to ``[lo, hi)`` and merge overlaps (async bursts)."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class _ReadMeter:
    """A backend's cumulative read bytes, sampled on a fixed sim-time grid.

    The meter stands between the POSIX layer and the backend, forwarding
    ``stat`` and ``read`` (all a :class:`~repro.storage.posix.PosixLayer`
    uses).  It records what a sampler waking every ``dt`` from the
    meter's start would see, without waking: the count changes only as a
    read completes, so each completion first fills in the grid points up
    to now with the count from before it.  :meth:`finalize` fills in the
    rest and adds the final count; :meth:`bytes_at` then interpolates, so
    burst windows (known only after the run) integrate exactly against
    the samples.
    """

    def __init__(self, sim: Simulator, backend, dt: float) -> None:
        self.sim = sim
        self.backend = backend
        self.times: List[float] = [0.0]
        self.values: List[float] = [0.0]
        self._dt = dt
        self._next = sim.now + dt
        self._bytes = float(backend.bytes_read())

    def stat(self, path: str):
        return self.backend.stat(path)

    def read(self, path: str, offset: int = 0, length: Optional[int] = None):
        read = self.backend.read(path, offset, length)
        read.add_callback(self._read_done)
        return read

    def _read_done(self, _ev) -> None:
        self._fill(self.sim.now)
        self._bytes = float(self.backend.bytes_read())

    def _fill(self, until: float) -> None:
        """Sample the grid points up to ``until`` at the current count.

        A point at a read's own instant takes the count from before it.
        """
        t = self._next
        while t <= until:
            self.times.append(t)
            self.values.append(self._bytes)
            t += self._dt
        self._next = t

    def finalize(self) -> None:
        self._fill(self.sim.now)
        self.times.append(self.sim.now)
        self.values.append(float(self.backend.bytes_read()))

    def bytes_at(self, t: float) -> float:
        """Cumulative read bytes at time ``t`` (linear interpolation)."""
        idx = bisect_right(self.times, t)
        if idx <= 0:
            return self.values[0]
        if idx >= len(self.times):
            return self.values[-1]
        t0, t1 = self.times[idx - 1], self.times[idx]
        v0, v1 = self.values[idx - 1], self.values[idx]
        if t1 <= t0:
            return v1
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


@dataclass
class WriteTrialResult:
    """One (config, setup) cell of the write-workload matrix."""

    config: str
    setup: str
    sim_seconds: float
    samples_per_second: float
    read_bytes: float
    write_bytes: float
    checkpoints: int
    ckpt_stall_time: float
    #: wall-clock coverage of checkpoint bursts within the run
    burst_time: float
    #: read throughput (bytes/s) inside / outside checkpoint bursts
    burst_read_throughput: float
    steady_read_throughput: float
    gpu_utilization: float

    def metrics_dict(self) -> Dict[str, object]:
        return {
            "config": self.config,
            "setup": self.setup,
            "sim_seconds": self.sim_seconds,
            "samples_per_second": self.samples_per_second,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "checkpoints": self.checkpoints,
            "ckpt_stall_time": self.ckpt_stall_time,
            "burst_time": self.burst_time,
            "burst_read_throughput": self.burst_read_throughput,
            "steady_read_throughput": self.steady_read_throughput,
            "gpu_utilization": self.gpu_utilization,
        }


@dataclass
class WriteWorkloadReport:
    """The full configs x setups matrix one invocation produces."""

    seed: int
    n_files: int
    file_size: int
    epochs: int
    ckpt_every: int
    ckpt_bytes: int
    write_penalty: float
    trials: List[WriteTrialResult] = field(default_factory=list)

    def trial(self, config: str, setup: str) -> WriteTrialResult:
        for t in self.trials:
            if t.config == config and t.setup == setup:
                return t
        raise KeyError(f"no trial for ({config!r}, {setup!r})")

    def configs(self) -> List[str]:
        seen: List[str] = []
        for t in self.trials:
            if t.config not in seen:
                seen.append(t.config)
        return seen

    def metrics_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (the determinism-gate surface)."""
        return {
            "seed": self.seed,
            "n_files": self.n_files,
            "file_size": self.file_size,
            "epochs": self.epochs,
            "ckpt_every": self.ckpt_every,
            "ckpt_bytes": self.ckpt_bytes,
            "write_penalty": self.write_penalty,
            "trials": [t.metrics_dict() for t in self.trials],
        }


def run_write_trial(
    config: str,
    setup: str,
    seed: int = 0,
    n_files: int = 640,
    file_size: int = 112 * KiB,
    batch_size: int = 32,
    epochs: int = 2,
    ckpt_every: int = 8,
    ckpt_bytes: int = 96_000_000,
    write_penalty: float = 0.45,
    control_period: float = 10e-3,
    sample_dt: float = 1e-3,
    telemetry=None,
) -> WriteTrialResult:
    """One training run with checkpoint traffic over one backend config.

    A fresh simulator and seeded RNG per call: identical arguments produce
    byte-identical results, which the bench gate's double run relies on.
    """
    if setup not in WRITE_SETUPS:
        raise ValueError(f"unknown setup {setup!r}; expected one of {WRITE_SETUPS}")
    streams = RandomStreams(seed)
    sim = Simulator()
    if telemetry is not None:
        telemetry.attach(sim, process=f"writes/{config}/{setup}/seed{seed}")
    backend = build_backend(sim, backend_config_for(config, write_penalty), streams=streams)
    catalog = DatasetCatalog("/data/train", uniform_sizes(n_files, n_files * file_size))
    catalog.materialize(backend)
    meter = _ReadMeter(sim, backend, sample_dt)
    posix = PosixLayer(sim, meter)
    shuffler = EpochShuffler(n_files, streams.spawn("shuffle.train"))
    model = LENET

    controller = None
    if setup == "baseline-sync":
        train_src = tf_baseline(sim, catalog, shuffler, batch_size, posix, model)
    else:
        stage, _prefetcher, controller = build_prisma(
            sim, posix, PrismaConfig(control_period=control_period)
        )
        train_src = PrismaTensorFlowPipeline(
            sim, catalog, shuffler, batch_size, stage, model
        )

    ckpt_enabled = config != "posix-read"
    writer = CheckpointWriter(
        sim,
        backend,
        CheckpointConfig(
            every_steps=ckpt_every if ckpt_enabled else 0,
            nbytes=ckpt_bytes,
            synchronous=not setup.endswith("-async"),
        ),
    )
    gpus = GpuEnsemble(sim, n_gpus=4)
    trainer = Trainer(
        sim, model, gpus, train_src,
        TrainingConfig(epochs=epochs, global_batch=batch_size, validate=False),
        setup=f"{config}/{setup}", checkpointer=writer,
    )
    result = trainer.run_to_completion()
    if controller is not None:
        controller.stop()
    meter.finalize()

    end = sim.now
    total_read = float(backend.bytes_read())
    windows = _merged_windows(writer.write_windows, 0.0, end)
    burst_time = writer.time_in_windows(0.0, end)
    burst_read = sum(meter.bytes_at(hi) - meter.bytes_at(lo) for lo, hi in windows)
    steady_time = max(result.total_time - burst_time, 0.0)
    trial = WriteTrialResult(
        config=config,
        setup=setup,
        sim_seconds=result.total_time,
        samples_per_second=(
            n_files * epochs / result.total_time if result.total_time > 0 else 0.0
        ),
        read_bytes=total_read,
        write_bytes=float(backend.bytes_written()),
        checkpoints=writer.checkpoints_written,
        ckpt_stall_time=writer.sync_stall_time,
        burst_time=burst_time,
        burst_read_throughput=burst_read / burst_time if burst_time > 0 else 0.0,
        steady_read_throughput=(
            (total_read - burst_read) / steady_time if steady_time > 0 else 0.0
        ),
        gpu_utilization=result.gpu_utilization,
    )
    if telemetry is not None:
        telemetry.detach()
    # The result is built and no hub is attached: free the cell's stack.
    sim.close()
    return trial


def run_write_workloads(
    seed: int = 0,
    n_files: int = 640,
    file_size: int = 112 * KiB,
    batch_size: int = 32,
    epochs: int = 2,
    ckpt_every: int = 8,
    ckpt_bytes: int = 96_000_000,
    write_penalty: float = 0.45,
    configs: Tuple[str, ...] = WRITE_CONFIGS,
    setups: Tuple[str, ...] = WRITE_SETUPS,
    control_period: float = 10e-3,
    telemetry=None,
) -> WriteWorkloadReport:
    """The full write-workload matrix: every config under every setup."""
    report = WriteWorkloadReport(
        seed=seed,
        n_files=n_files,
        file_size=file_size,
        epochs=epochs,
        ckpt_every=ckpt_every,
        ckpt_bytes=ckpt_bytes,
        write_penalty=write_penalty,
    )
    for config in configs:
        for setup in setups:
            report.trials.append(
                run_write_trial(
                    config,
                    setup,
                    seed=seed,
                    n_files=n_files,
                    file_size=file_size,
                    batch_size=batch_size,
                    epochs=epochs,
                    ckpt_every=ckpt_every,
                    ckpt_bytes=ckpt_bytes,
                    write_penalty=write_penalty,
                    control_period=control_period,
                    telemetry=telemetry,
                )
            )
    return report


def format_writes(report: WriteWorkloadReport) -> str:
    """ASCII rendering for the ``repro writes`` CLI command."""
    MiB = 1024.0 * 1024.0
    lines = [
        "write-path workloads (seed=%d, %d files x %d B, %d epoch(s), "
        "ckpt %d B every %d steps)"
        % (
            report.seed, report.n_files, report.file_size, report.epochs,
            report.ckpt_bytes, report.ckpt_every,
        ),
    ]
    header = "  %-14s %-14s %9s %9s %6s %9s %10s %10s" % (
        "config", "setup", "time(s)", "samp/s", "ckpts", "stall(s)",
        "burst MB/s", "steady MB/s",
    )
    lines.append(header)
    for trial in report.trials:
        lines.append(
            "  %-14s %-14s %9.3f %9.0f %6d %9.3f %10.1f %10.1f"
            % (
                trial.config, trial.setup, trial.sim_seconds,
                trial.samples_per_second, trial.checkpoints,
                trial.ckpt_stall_time, trial.burst_read_throughput / MiB,
                trial.steady_read_throughput / MiB,
            )
        )
    for config in report.configs():
        try:
            base = report.trial(config, "baseline-sync")
            sync = report.trial(config, "prisma-sync")
            async_ = report.trial(config, "prisma-async")
        except KeyError:
            continue
        speedup = (
            base.sim_seconds / async_.sim_seconds if async_.sim_seconds > 0 else 0.0
        )
        lines.append(
            "  %-14s prisma-async is %.2fx baseline-sync" % (config, speedup)
        )
        if sync.burst_time > 0 and sync.burst_read_throughput > 0:
            lines.append(
                "  %-14s burst-window reads: async %.1f MB/s vs sync %.1f MB/s "
                "(%.2fx)"
                % (
                    config,
                    async_.burst_read_throughput / MiB,
                    sync.burst_read_throughput / MiB,
                    async_.burst_read_throughput / sync.burst_read_throughput,
                )
            )
    return "\n".join(lines)
