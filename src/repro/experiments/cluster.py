"""Sharded peer-to-peer sample serving at cluster scale.

ROADMAP item 2 made measurable: N simulated storage nodes, each traversing
the *full* catalog every epoch in its own seeded order (synchronous
data-parallel semantics without sharded sampling — the worst case for the
backing store, which would see an N× redundant read storm without
cooperation).  The cluster store shards the catalog across the nodes'
fast tiers and serves non-owner reads peer-to-peer, so the measured
backing-store traffic collapses from ``N × catalog`` to ``~1 × catalog``
per epoch — the cooperative-cache invariant
(:meth:`~repro.cluster.ClusterStore.max_epoch_reads_per_path` == 1).

Reports are deterministic: same seed → byte-identical ``metrics_dict()``;
the ``cluster`` row of ``benchmarks/gates.py`` gates CI on exactly that plus the
invariant itself (backing reads ≤ 1.05× unique samples per epoch at
N=128).  An optional :class:`~repro.faults.FaultPlan` drives RPC drops and
delays into the peer channels, degrading the invariant gracefully
(fallback reads) instead of hanging the epoch — the chaos suite's surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import ClusterConfig, ClusterStore
from ..dataset.shuffle import EpochShuffler
from ..faults import FaultInjector, FaultPlan
from ..simcore import AllOf, AnyOf, Simulator
from ..simcore.random import RandomStreams
from ..storage.distributed import DistributedFilesystem

KiB = 1024


@dataclass
class ClusterEpochStats:
    """Aggregate accounting for one simulated epoch."""

    epoch: int
    sim_seconds: float
    reads: int
    backing_reads: int
    unique_backing_reads: int
    max_reads_per_path: int
    #: backing reads divided by catalog size — the invariant metric;
    #: 1.0 on a cold epoch, 0.0 once every shard is resident.
    backing_per_unique: float
    peer_hits: int
    fallback_reads: int

    def metrics_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "sim_seconds": self.sim_seconds,
            "reads": self.reads,
            "backing_reads": self.backing_reads,
            "unique_backing_reads": self.unique_backing_reads,
            "max_reads_per_path": self.max_reads_per_path,
            "backing_per_unique": self.backing_per_unique,
            "peer_hits": self.peer_hits,
            "fallback_reads": self.fallback_reads,
        }


@dataclass
class ClusterReport:
    """One cluster-serving run (the ``repro cluster`` row)."""

    seed: int
    n_nodes: int
    n_files: int
    file_size: int
    epochs: int
    tier_capacity_bytes: int
    completed: bool
    sim_seconds: float
    requests: int
    backing_reads: int
    cluster_hit_rate: float
    peer_hit_rate: float
    #: worst per-epoch ``backing_per_unique`` — the CI-gated number
    worst_backing_per_unique: float
    #: worst per-path redundancy seen in any epoch (1 = invariant holds)
    worst_reads_per_path: int
    shard_imbalance: float
    faults_injected: int
    fallback_reads: int
    totals: Dict[str, int] = field(default_factory=dict)
    per_epoch: List[ClusterEpochStats] = field(default_factory=list)

    def metrics_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (the determinism-gate surface)."""
        return {
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "n_files": self.n_files,
            "file_size": self.file_size,
            "epochs": self.epochs,
            "tier_capacity_bytes": self.tier_capacity_bytes,
            "completed": self.completed,
            "sim_seconds": self.sim_seconds,
            "requests": self.requests,
            "backing_reads": self.backing_reads,
            "cluster_hit_rate": self.cluster_hit_rate,
            "peer_hit_rate": self.peer_hit_rate,
            "worst_backing_per_unique": self.worst_backing_per_unique,
            "worst_reads_per_path": self.worst_reads_per_path,
            "shard_imbalance": self.shard_imbalance,
            "faults_injected": self.faults_injected,
            "fallback_reads": self.fallback_reads,
            "totals": dict(self.totals),
            "per_epoch": [e.metrics_dict() for e in self.per_epoch],
        }


def run_cluster_serving(
    seed: int = 0,
    n_nodes: int = 64,
    n_files: int = 512,
    file_size: int = 64 * KiB,
    epochs: int = 2,
    tier_slack: float = 1.5,
    n_targets: int = 8,
    rpc_timeout: Optional[float] = 50e-3,
    cache_remote_reads: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    time_limit: float = 600.0,
    telemetry=None,
) -> ClusterReport:
    """Every node reads the full catalog each epoch through the cluster store.

    ``tier_slack`` sizes each node's fast tier relative to its own shard
    (>= 1 keeps whole shards resident, which is the deployment the
    cooperative invariant assumes; < 1 forces evictions and shows the
    graceful degradation instead).  ``fault_plan`` events are installed on
    every peer channel *and* the backing filesystem before the first epoch.
    """
    if n_nodes < 1 or n_files < 1 or epochs < 1:
        raise ValueError("n_nodes, n_files, and epochs must all be >= 1")
    if tier_slack <= 0:
        raise ValueError("tier_slack must be positive")
    streams = RandomStreams(seed)
    sim = Simulator()
    if telemetry is not None:
        telemetry.attach(sim, process=f"cluster/n{n_nodes}/seed{seed}")
    backing = DistributedFilesystem(sim, n_targets=n_targets, name="pfs")
    paths = [f"/data/train/{i:06d}" for i in range(n_files)]
    backing.create_many((p, file_size) for p in paths)

    # Size the tier to the *largest* shard so hash imbalance cannot silently
    # break residency for the unlucky node.
    config = ClusterConfig(
        n_nodes=n_nodes,
        tier_capacity_bytes=max(
            int(_largest_shard(paths, n_nodes) * file_size * tier_slack), file_size
        ),
        rpc_timeout=rpc_timeout,
        cache_remote_reads=cache_remote_reads,
    )
    store = ClusterStore(sim, backing, paths, config, name="cluster")

    injector: Optional[FaultInjector] = None
    if fault_plan is not None:
        injector = FaultInjector(sim, streams=streams)
        for channel in store.channels():
            injector.attach_channel(channel)
        injector.attach_filesystem(backing)
        injector.install(fault_plan)

    shufflers = [
        EpochShuffler(n_files, streams.spawn(f"n{i}.order")) for i in range(n_nodes)
    ]
    per_epoch: List[ClusterEpochStats] = []

    def trainer(node, order):
        for idx in order:
            yield node.read(paths[int(idx)])

    def driver():
        for epoch in range(epochs):
            start = sim.now
            store.begin_epoch()
            before = store.totals()
            procs = [
                sim.process(
                    trainer(store.node(i), shufflers[i].order(epoch)),
                    name=f"cluster.trainer{i}.e{epoch}",
                )
                for i in range(n_nodes)
            ]
            yield AllOf(sim, procs)
            after = store.totals()
            per_epoch.append(
                ClusterEpochStats(
                    epoch=epoch,
                    sim_seconds=sim.now - start,
                    reads=int(after["reads"] - before["reads"]),
                    backing_reads=store.epoch_backing_reads,
                    unique_backing_reads=store.epoch_unique_backing_reads,
                    max_reads_per_path=store.max_epoch_reads_per_path(),
                    backing_per_unique=store.epoch_backing_reads / n_files,
                    peer_hits=int(after["peer_hits"] - before["peer_hits"]),
                    fallback_reads=int(
                        after["fallback_reads"] - before["fallback_reads"]
                    ),
                )
            )

    run = sim.process(driver(), name="cluster.driver")
    sim.run(until=AnyOf(sim, [run, sim.timeout(time_limit)]))
    completed = run.triggered and run.ok
    totals = {k: int(v) for k, v in store.totals().items()}
    report = ClusterReport(
        seed=seed,
        n_nodes=n_nodes,
        n_files=n_files,
        file_size=file_size,
        epochs=epochs,
        tier_capacity_bytes=config.tier_capacity_bytes,
        completed=completed,
        sim_seconds=sim.now,
        requests=totals["reads"],
        backing_reads=totals["backing_reads"],
        cluster_hit_rate=store.cluster_hit_rate(),
        peer_hit_rate=store.peer_hit_rate(),
        worst_backing_per_unique=max(
            (e.backing_per_unique for e in per_epoch), default=0.0
        ),
        worst_reads_per_path=max(
            (e.max_reads_per_path for e in per_epoch), default=0
        ),
        shard_imbalance=store.shard_map.imbalance(),
        faults_injected=int(injector.faults_injected) if injector is not None else 0,
        fallback_reads=totals["fallback_reads"],
        totals=totals,
        per_epoch=per_epoch,
    )
    # The report is built: unhook the injector and free the run's stack.
    backing.fault_hook = None
    if telemetry is not None:
        telemetry.detach()
    sim.close()
    return report


def _largest_shard(paths: Sequence[str], n_nodes: int) -> int:
    from ..cluster import ShardMap

    return max(ShardMap(paths, n_nodes).shard_sizes())


def run_cluster_sweep(
    node_counts: Tuple[int, ...] = (128, 256, 512, 1024),
    seed: int = 0,
    n_files: int = 1024,
    file_size: int = 64 * KiB,
    epochs: int = 2,
    telemetry=None,
    progress=None,
) -> List[ClusterReport]:
    """The ``repro cluster`` sweep: node counts vs backing-store traffic.

    At the top of the default range each epoch issues ``1024 × 1024`` ≈ a
    million sample requests; the report shows the backing store absorbing
    only ``n_files`` of them regardless of N.
    """
    reports = []
    for n_nodes in node_counts:
        report = run_cluster_serving(
            seed=seed,
            n_nodes=n_nodes,
            n_files=n_files,
            file_size=file_size,
            epochs=epochs,
            telemetry=telemetry,
        )
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports


def format_cluster_sweep(reports: List[ClusterReport]) -> str:
    """ASCII rendering for the ``repro cluster`` CLI command."""
    if not reports:
        return "cluster sweep: no runs"
    head = reports[0]
    lines = [
        "peer-to-peer cluster serving (seed=%d, %d files × %d KiB, %d epochs)"
        % (head.seed, head.n_files, head.file_size // KiB, head.epochs),
        "  %6s %10s %12s %10s %10s %12s %9s" % (
            "nodes", "requests", "backing", "hit rate", "peer hit",
            "reads/sample", "sim s",
        ),
    ]
    for r in reports:
        flag = "" if r.completed else "  INCOMPLETE"
        lines.append(
            "  %6d %10d %12d %9.1f%% %9.1f%% %12.3f %9.3f%s"
            % (
                r.n_nodes,
                r.requests,
                r.backing_reads,
                r.cluster_hit_rate * 100,
                r.peer_hit_rate * 100,
                r.worst_backing_per_unique,
                r.sim_seconds,
                flag,
            )
        )
    worst = max(r.worst_reads_per_path for r in reports)
    lines.append(
        "  cooperative invariant: max backing reads per sample per epoch = %d%s"
        % (worst, " (holds)" if worst <= 1 else " (VIOLATED)")
    )
    return "\n".join(lines)
