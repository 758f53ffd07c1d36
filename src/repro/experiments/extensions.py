"""Runners for the §VII extension experiments (CLI + benchmarks share them).

* :func:`run_distributed_sweep` — multi-node synchronous training over a
  shared PFS, baseline vs per-node PRISMA stages.
* :func:`run_multitenant_comparison` — N tenants on one device under
  vanilla / independent / globally coordinated control.
* :func:`run_latency_comparison` — per-request read-latency distributions,
  baseline vs PRISMA (the monitoring-plane view of the same story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core import PrismaConfig, build_prisma
from ..dataset.synthetic import imagenet_like, tiny_dataset
from ..distributed import DistributedResult, DistributedTrainingJob
from ..frameworks.models import LENET, ModelProfile
from ..frameworks.training import TrainingConfig
from ..metrics.summary import jain_fairness
from ..telemetry import LatencyRecorder, LatencySummary
from ..multitenant import FairShareGlobalPolicy, SharedStorageCluster
from ..simcore.kernel import Simulator
from ..simcore.random import RandomStreams
from ..storage.device import BlockDevice, intel_p4600
from ..storage.distributed import DistributedFilesystem
from ..storage.filesystem import Filesystem
from ..storage.posix import PosixLayer
from ..traces.recorder import TracingPosix


# -- distributed training ------------------------------------------------------------
@dataclass
class DistributedSweepRow:
    n_nodes: int
    baseline: DistributedResult
    prisma: DistributedResult

    @property
    def speedup(self) -> float:
        return self.baseline.total_time / self.prisma.total_time


def run_distributed_sweep(
    node_counts: Sequence[int] = (1, 2, 4),
    model: ModelProfile = LENET,
    scale: int = 400,
    global_batch: int = 32,
    rpc_latency: float = 300e-6,
) -> List[DistributedSweepRow]:
    def one(n_nodes: int, use_prisma: bool) -> DistributedResult:
        streams = RandomStreams(0)
        sim = Simulator()
        pfs = DistributedFilesystem(
            sim, n_targets=4, target_profile=intel_p4600(), rpc_latency=rpc_latency
        )
        split = imagenet_like(streams, scale=scale)
        split.train.materialize(pfs)
        posix = PosixLayer(sim, pfs)
        job = DistributedTrainingJob(
            sim, posix, split.train, model, n_nodes=n_nodes,
            global_batch=global_batch, epochs=1, streams=streams.spawn("job"),
            use_prisma=use_prisma, control_period=1.0 / scale,
        )
        result = job.run()
        sim.close()
        return result

    return [
        DistributedSweepRow(n, one(n, False), one(n, True)) for n in node_counts
    ]


def format_distributed_sweep(rows: List[DistributedSweepRow]) -> str:
    lines = [
        "Distributed training over a shared PFS (simulated seconds, 1 epoch)",
        f"{'nodes':>6}  {'baseline':>10}  {'prisma':>10}  {'speedup':>8}  "
        f"{'barrier wait base->prisma'}",
    ]
    for row in rows:
        lines.append(
            f"{row.n_nodes:>6}  {row.baseline.total_time:>9.3f}s  "
            f"{row.prisma.total_time:>9.3f}s  {row.speedup:>7.2f}x  "
            f"{row.baseline.mean_barrier_wait * 1e3:>6.2f} ms -> "
            f"{row.prisma.mean_barrier_wait * 1e3:.2f} ms"
        )
    return "\n".join(lines)


# -- multitenancy ------------------------------------------------------------------
@dataclass
class MultitenantRow:
    mode: str
    makespan: float
    mean_job_time: float
    fairness: float
    #: each job's training time, in job order
    job_times: List[float]
    #: the most producers any one job's prefetcher held at once (0: no PRISMA)
    peak_producers: int


def run_multitenant_comparison(
    n_jobs: int = 3,
    files_per_job: int = 128,
    mean_size: int = 256 * 1024,
    model: ModelProfile = LENET,
) -> List[MultitenantRow]:
    rows: List[MultitenantRow] = []
    for mode in ("none", "independent", "global"):
        streams = RandomStreams(0)
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
        posix = PosixLayer(sim, fs)
        policy = None
        if mode == "global":
            policy = FairShareGlobalPolicy(total_producer_budget=3 * n_jobs, per_job_cap=4)
        cluster = SharedStorageCluster(
            sim, posix, control_period=1e-3, coordination=mode, global_policy=policy
        )
        for j in range(n_jobs):
            split = tiny_dataset(
                streams.spawn(f"d{j}"), n_train=files_per_job, n_val=16,
                mean_size=mean_size,
            )
            split.train.prefix = f"/job{j}/train"
            split.validation.prefix = f"/job{j}/val"
            split.materialize(fs)
            cluster.add_job(
                split.train, split.validation, model,
                TrainingConfig(epochs=1, global_batch=16), streams.spawn(f"s{j}"),
            )
        result = cluster.run()
        times = result.job_times()
        rows.append(
            MultitenantRow(
                mode=mode,
                makespan=result.makespan,
                mean_job_time=result.mean_job_time(),
                fairness=jain_fairness([1.0 / t for t in times]),
                job_times=times,
                peak_producers=max(
                    (
                        int(job.prefetcher.allocated_producers.max_seen())
                        for job in result.jobs
                        if job.prefetcher is not None
                    ),
                    default=0,
                ),
            )
        )
        sim.close()
    return rows


def format_multitenant(rows: List[MultitenantRow]) -> str:
    lines = [
        "Shared-storage multi-tenancy (simulated seconds)",
        f"{'mode':>12}  {'makespan':>9}  {'mean job':>9}  {'fairness':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.mode:>12}  {row.makespan:>9.3f}  {row.mean_job_time:>9.3f}  "
            f"{row.fairness:>8.3f}"
        )
    return "\n".join(lines)


# -- latency distributions -----------------------------------------------------------
def run_latency_comparison(
    scale: int = 400,
    model: ModelProfile = LENET,
    sample_count: int = 2000,
) -> Dict[str, LatencySummary]:
    """Per-read service-time distributions, direct reads vs PRISMA stage."""
    summaries: Dict[str, LatencySummary] = {}
    for setup in ("baseline", "prisma"):
        streams = RandomStreams(0)
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
        split = imagenet_like(streams, scale=scale)
        split.train.materialize(fs)
        posix = PosixLayer(sim, fs)
        paths = split.train.filenames()[:sample_count]
        if setup == "prisma":
            stage, prefetcher, controller = build_prisma(
                sim, posix, PrismaConfig(control_period=1.0 / scale)
            )
            stage.load_epoch(paths)
            reader = TracingPosix(sim, stage)
        else:
            controller = None
            reader = TracingPosix(sim, posix)

        def consumer():
            for path in paths:
                yield reader.read_whole(path)

        p = sim.process(consumer())
        sim.run(until=p)
        if controller is not None:
            controller.stop()
        recorder = LatencyRecorder(setup)
        for record in reader.trace:
            recorder.record(record.completion_time, record.latency)
        summaries[setup] = recorder.summary()
        sim.close()
    return summaries


def format_latency(summaries: Dict[str, LatencySummary]) -> str:
    lines = ["Per-read service time (ImageNet-sized files, one consumer)"]
    for name, summary in summaries.items():
        lines.append(f"  {name:>9}: {summary.row()}")
    return "\n".join(lines)
