"""Multi-node synchronous data-parallel training (paper §VII).

*"While we demonstrate the impact of SDS-enabled optimizations in a local
setting, it would be interesting to explore their impact on large-scale DL
deployments, that require tight coordination and holistic tunning of data
plane stages."*

This module builds that deployment: ``n`` compute nodes, each with its own
GPU ensemble, its own input pipeline over a *shard* of the dataset
(``DistributedSampler`` semantics: node *k* takes every *n*-th index of the
epoch permutation), and optionally its own PRISMA stage — all reading one
shared parallel filesystem and synchronizing gradients at every step
through a :class:`~repro.distributed.barrier.StepBarrier`.

Because steps are synchronous, per-node storage jitter multiplies: the job
advances at the pace of the *slowest* node's data path each step, which is
precisely where coordinated, globally visible I/O control earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cluster import ClusterStore
from ..core import Controller, PrismaAutotunePolicy, PrismaConfig, build_stage
from ..core.control import ControlChannel
from ..core.integrations.tf_binding import PrismaTensorFlowPipeline
from ..dataset.catalog import DatasetCatalog
from ..dataset.shuffle import EpochShuffler
from ..frameworks.models import GpuEnsemble, ModelProfile
from ..frameworks.tensorflow.pipeline import tf_baseline
from ..simcore.event import Event
from ..simcore.random import RandomStreams
from .barrier import StepBarrier

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..simcore.kernel import Simulator
    from ..storage.posix import PosixLike

#: Gradient payload exchanged per step, bytes (FP32 parameter counts).
GRADIENT_BYTES: Dict[str, float] = {
    "lenet": 0.25e6,  # ~62k params
    "alexnet": 244e6,  # ~61M params
    "resnet50": 102e6,  # ~25.5M params
}

#: Effective all-reduce bus bandwidth between nodes (NCCL-over-IB class).
ALLREDUCE_BUS_BANDWIDTH = 10e9
#: Fixed per-collective latency (rendezvous + launch).
ALLREDUCE_LATENCY = 150e-6


def allreduce_cost(model: ModelProfile, n_nodes: int) -> float:
    """Ring all-reduce time: 2(n-1)/n · bytes / bus bandwidth + latency."""
    if n_nodes <= 1:
        return 0.0
    payload = GRADIENT_BYTES.get(model.name, 50e6)
    return ALLREDUCE_LATENCY + 2 * (n_nodes - 1) / n_nodes * payload / ALLREDUCE_BUS_BANDWIDTH


class _ShardShuffler:
    """Node-local view of the global epoch permutation (every n-th index)."""

    def __init__(self, global_shuffler: EpochShuffler, node: int, n_nodes: int) -> None:
        self.global_shuffler = global_shuffler
        self.node = node
        self.n_nodes = n_nodes

    def order(self, epoch: int) -> np.ndarray:
        return self.global_shuffler.order(epoch)[self.node :: self.n_nodes]


@dataclass
class NodeResult:
    node: int
    train_time: float
    barrier_wait: float = 0.0


@dataclass
class DistributedResult:
    n_nodes: int
    total_time: float
    steps: int
    nodes: List[NodeResult] = field(default_factory=list)
    mean_barrier_wait: float = 0.0

    def scaling_efficiency(self, single_node_time: float) -> float:
        """Ideal-linear efficiency vs a 1-node run of the same job."""
        if self.total_time <= 0:
            return 0.0
        return single_node_time / (self.n_nodes * self.total_time)


class DistributedTrainingJob:
    """Synchronous data-parallel training over shared storage.

    ``use_prisma`` gives every node its own data-plane stage over the
    shared backend; one logically centralized controller tunes all of them
    (the coordinated deployment of §VII).
    """

    def __init__(
        self,
        sim: "Simulator",
        shared_posix: "PosixLike",
        catalog: DatasetCatalog,
        model: ModelProfile,
        n_nodes: int,
        global_batch: int,
        epochs: int,
        streams: RandomStreams,
        use_prisma: bool = False,
        control_period: float = 1e-3,
        cluster_store: Optional[ClusterStore] = None,
        name: str = "distjob",
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if global_batch < n_nodes:
            raise ValueError("global_batch must be >= n_nodes")
        if global_batch % n_nodes != 0:
            raise ValueError("global_batch must divide evenly across nodes")
        self.sim = sim
        self.catalog = catalog
        self.model = model
        self.n_nodes = n_nodes
        self.global_batch = global_batch
        self.local_batch = global_batch // n_nodes
        self.epochs = epochs
        self.name = name
        self.use_prisma = use_prisma
        #: optional peer-to-peer cooperative cache: when set, every node's
        #: input pipeline mounts its cluster-store node instead of reading
        #: the shared backend directly, so the epoch's redundant reads are
        #: absorbed by the cluster's aggregate fast storage.
        self.cluster_store = cluster_store

        #: steps per epoch: every node must run the same count, so the
        #: shard remainder is dropped (torch's DistributedSampler pads;
        #: dropping keeps byte accounting exact and changes nothing else).
        self.steps_per_epoch = (len(catalog) // n_nodes) // self.local_batch
        if self.steps_per_epoch < 1:
            raise ValueError("dataset too small for this node/batch configuration")

        self.barrier = StepBarrier(
            sim, n_nodes, round_cost=allreduce_cost(model, n_nodes),
            name=f"{name}.allreduce",
        )
        global_shuffler = EpochShuffler(len(catalog), streams.spawn("order"))

        self.controller: Optional[Controller] = None
        if use_prisma:
            self.controller = Controller(
                sim, period=control_period, name=f"{name}.ctl"
            )

        self._sources = []
        self._gpus: List[GpuEnsemble] = []
        for node in range(n_nodes):
            shard = _ShardShuffler(global_shuffler, node, n_nodes)
            gpus = GpuEnsemble(sim, name=f"{name}.n{node}.gpu")
            self._gpus.append(gpus)
            # Each node reads through its own mount of the cooperative
            # cache when one is configured; otherwise straight to the
            # shared backend (the uncoordinated baseline).
            node_posix = (
                cluster_store.mount(node % len(cluster_store))
                if cluster_store is not None
                else shared_posix
            )
            if self.controller is not None:
                stage, _ = build_stage(
                    sim, node_posix, PrismaConfig(name=f"{name}.n{node}")
                )
                # One logically centralized controller, one named channel
                # per node — remote-latency tuning and per-node fault
                # injection both key off the channel name.
                self.controller.register(
                    stage,
                    PrismaAutotunePolicy(),
                    channel=ControlChannel(sim, name=f"{name}.n{node}.ctl.ch"),
                )
                source = PrismaTensorFlowPipeline(
                    sim, catalog, shard, self.local_batch, stage, model,
                    name=f"{name}.n{node}.src",
                )
            else:
                source = tf_baseline(
                    sim, catalog, shard, self.local_batch, node_posix, model,
                    name=f"{name}.n{node}.src",
                )
            self._sources.append(source)

    # -- execution --------------------------------------------------------------
    def _node_process(self, node: int, result: NodeResult):
        source = self._sources[node]
        gpus = self._gpus[node]
        start = self.sim.now
        step_index = 0
        for epoch in range(self.epochs):
            source.begin_epoch(epoch)
            for _ in range(self.steps_per_epoch):
                batch = yield source.next_batch()
                assert batch is not None
                yield gpus.train_step(self.model, batch)
                yield self.barrier.arrive(step_index)
                step_index += 1
            # Drain the shard's remainder up to the epoch's end marker (None).
            while True:
                batch = yield source.next_batch()
                if batch is None:
                    break
            yield gpus.drain()
            source.end_epoch()
        result.train_time = self.sim.now - start
        return result

    def run(self) -> DistributedResult:
        if self.cluster_store is not None:
            # Fresh ledger for the job; per-epoch resets are the concern of
            # the experiment harness (nodes cross epoch boundaries skewed).
            self.cluster_store.begin_epoch()
        if self.controller is not None:
            self.controller.start()
        node_results = [NodeResult(node=i, train_time=0.0) for i in range(self.n_nodes)]
        events: List[Event] = [
            self.sim.process(self._node_process(i, node_results[i]), name=f"{self.name}.n{i}")
            for i in range(self.n_nodes)
        ]
        done = self.sim.all_of(events)
        start = self.sim.now
        self.sim.run(until=done)
        if self.controller is not None:
            self.controller.stop()
        total_steps = self.epochs * self.steps_per_epoch
        return DistributedResult(
            n_nodes=self.n_nodes,
            total_time=self.sim.now - start,
            steps=total_steps,
            nodes=node_results,
            mean_barrier_wait=self.barrier.mean_wait_per_round(),
        )
