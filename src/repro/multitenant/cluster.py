"""Multi-tenant training cluster over shared storage.

The paper's §II argues framework-intrinsic optimizations have *partial
visibility*: concurrent jobs each tune themselves as if alone, thrashing the
shared backend.  §VII proposes coordinated access as future work.  This
package builds that scenario: ``n`` training jobs — each a full stack of
dataset + pipeline + PRISMA stage — over one shared filesystem/device, with
either *independent* per-job controllers (the status quo) or one *global*
controller enforcing a cluster-wide policy (the SDS vision).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..cluster import ClusterStore
from ..core import (
    Controller,
    ParallelPrefetcher,
    PrismaConfig,
    PrismaStage,
    build_prisma,
    build_stage,
)
from ..core.control import ControlChannel, GlobalPolicy
from ..dataset.catalog import DatasetCatalog
from ..dataset.shuffle import EpochShuffler
from ..frameworks.models import GpuEnsemble, ModelProfile
from ..frameworks.training import Trainer, TrainingConfig, TrainingResult
from ..core.integrations.tf_binding import PrismaTensorFlowPipeline
from ..frameworks.tensorflow.pipeline import tf_baseline
from ..simcore.random import RandomStreams
from ..storage.posix import PosixLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


@dataclass
class TenantJob:
    """One training job in the shared cluster."""

    index: int
    model: ModelProfile
    trainer: Trainer
    stage: Optional[PrismaStage]
    prefetcher: Optional[ParallelPrefetcher]
    result: Optional[TrainingResult] = None
    #: simulated delay before this job launches (job churn scenarios)
    start_delay: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None


@dataclass
class ClusterResult:
    """Outcome of a multi-tenant run."""

    jobs: List[TenantJob] = field(default_factory=list)
    makespan: float = 0.0

    def job_times(self) -> List[float]:
        return [j.result.total_time for j in self.jobs if j.result is not None]

    def mean_job_time(self) -> float:
        times = self.job_times()
        return sum(times) / len(times) if times else 0.0


class SharedStorageCluster:
    """Builds and runs N tenants over one shared filesystem.

    ``coordination`` selects the control architecture:

    * ``"independent"`` — each PRISMA stage has its own controller running
      the standard auto-tune policy blind to the other tenants;
    * ``"global"`` — one controller with every stage registered and a
      :class:`GlobalPolicy` deciding over all of them at once;
    * ``"none"`` — no PRISMA at all (vanilla framework pipelines).
    """

    def __init__(
        self,
        sim: "Simulator",
        shared_posix: PosixLike,
        control_period: float,
        coordination: str = "independent",
        global_policy: Optional[GlobalPolicy] = None,
        cluster_store: Optional[ClusterStore] = None,
    ) -> None:
        if coordination not in ("independent", "global", "none"):
            raise ValueError(f"unknown coordination mode {coordination!r}")
        if coordination == "global" and global_policy is None:
            raise ValueError("global coordination requires a global_policy")
        self.sim = sim
        self.shared_posix = shared_posix
        self.control_period = control_period
        self.coordination = coordination
        #: optional cooperative cache shared by the tenants: each job's
        #: *training* pipeline mounts one cluster node, so concurrent jobs
        #: scanning the same dataset stop multiplying backing-store reads
        #: (the §VII "access coordination to shared datasets" scenario).
        #: Validation traffic stays on the shared backend — those catalogs
        #: are outside the sharded sample catalog anyway.
        self.cluster_store = cluster_store
        self.jobs: List[TenantJob] = []
        self._controllers: List[Controller] = []
        self._global_controller: Optional[Controller] = None
        if coordination == "global":
            self._global_controller = Controller(
                sim, period=control_period, global_policy=global_policy, name="global.ctl"
            )

    def add_job(
        self,
        catalog: DatasetCatalog,
        val_catalog: DatasetCatalog,
        model: ModelProfile,
        config: TrainingConfig,
        streams: RandomStreams,
        start_delay: float = 0.0,
    ) -> TenantJob:
        """Register one tenant; must be called before :meth:`run`.

        ``start_delay`` defers the job's launch by simulated seconds —
        staggered arrivals are where a global controller visibly
        reallocates I/O resources as the tenant mix changes.
        """
        if start_delay < 0:
            raise ValueError("start_delay must be non-negative")
        index = len(self.jobs)
        tr_sh = EpochShuffler(len(catalog), streams.spawn(f"job{index}.train"))
        va_sh = EpochShuffler(len(val_catalog), streams.spawn(f"job{index}.val"))
        gpus = GpuEnsemble(self.sim, name=f"job{index}.gpu")

        train_posix = (
            self.cluster_store.mount(index % len(self.cluster_store))
            if self.cluster_store is not None
            else self.shared_posix
        )
        stage: Optional[PrismaStage] = None
        prefetcher: Optional[ParallelPrefetcher] = None
        if self.coordination == "none":
            train_src = tf_baseline(
                self.sim, catalog, tr_sh, config.global_batch, train_posix,
                model, name=f"job{index}.train",
            )
        else:
            prisma = PrismaConfig(control_period=self.control_period, name=f"job{index}")
            if self._global_controller is None:
                stage, prefetcher, ctl = build_prisma(self.sim, train_posix, prisma)
                self._controllers.append(ctl)
            else:
                stage, prefetcher = build_stage(self.sim, train_posix, prisma)
                # A per-job named channel lets fault injection single out a tenant.
                self._global_controller.register(
                    stage, channel=ControlChannel(self.sim, name=f"job{index}.ctl.ch")
                )
            train_src = PrismaTensorFlowPipeline(
                self.sim, catalog, tr_sh, config.global_batch, stage, model,
                name=f"job{index}.train",
            )
        val_src = tf_baseline(
            self.sim, val_catalog, va_sh, config.global_batch, self.shared_posix,
            model, name=f"job{index}.val",
        )
        trainer = Trainer(
            self.sim, model, gpus, train_src, config, val_src, setup=f"tenant{index}"
        )
        job = TenantJob(index, model, trainer, stage, prefetcher, start_delay=start_delay)
        self.jobs.append(job)
        return job

    def _launch(self, job: TenantJob):
        """Start one tenant after its arrival delay; returns its result."""
        if job.start_delay > 0:
            yield self.sim.timeout(job.start_delay)
        job.started_at = self.sim.now
        result = yield job.trainer.start()
        job.finished_at = self.sim.now
        return result

    def run(self) -> ClusterResult:
        """Start the global controller and the tenants; drive to completion."""
        if self.cluster_store is not None:
            self.cluster_store.begin_epoch()
        if self._global_controller is not None:
            self._global_controller.start()
        events = [
            self.sim.process(self._launch(job), name=f"tenant{job.index}.launch")
            for job in self.jobs
        ]
        done = self.sim.all_of(events)
        start = self.sim.now
        self.sim.run(until=done)
        for job, ev in zip(self.jobs, events):
            job.result = ev.value
        for ctl in self._controllers:
            ctl.stop()
        if self._global_controller is not None:
            self._global_controller.stop()
        return ClusterResult(jobs=list(self.jobs), makespan=self.sim.now - start)
