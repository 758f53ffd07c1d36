"""The cluster store: N peer nodes cooperating over one backing store.

This is the deployment the FanStore line of work argues for (PAPERS.md:
Zhang et al.) recast as a PRISMA storage optimization: the catalog is
sharded across the compute nodes (:class:`~repro.cluster.shard.ShardMap`),
each node keeps its shard hot in a node-local fast tier, and non-owners
fetch over the RPC layer instead of hammering the shared parallel
filesystem.  The cooperative-cache invariant — **each sample hits the
backing store at most once per epoch cluster-wide** — falls out of three
mechanisms, none cluster-specific:

* deterministic hash placement (every node agrees on owners locally);
* read-through tiers with in-flight coalescing (a cold sample is fetched
  from the backing store exactly once no matter how many peers race);
* typed RPC failures with backing-store fallback (faults degrade the
  invariant gracefully instead of hanging the epoch).

:class:`ClusterStore` wires those together and keeps the aggregate
accounting (cluster-wide hit rate, per-epoch backing-read ledger) the
experiments and the CI regression gate read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..core.control.retry import RetryPolicy
from ..core.control.rpc import REMOTE_LATENCY, ControlChannel
from ..simcore.event import Event
from ..storage.device import PROFILES, BlockDevice
from ..storage.filesystem import Filesystem
from ..telemetry import CounterSet
from .node import ClusterMount, ClusterNode
from .shard import ShardMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.backend import StorageBackend


@dataclass(frozen=True)
class ClusterConfig:
    """Validated knobs for one :class:`ClusterStore`.

    ``tier_capacity_bytes`` is **per node**; size it to hold one shard
    (``total_bytes / n_nodes`` plus slack) or the cooperative invariant
    degrades to whatever the eviction policy salvages.  ``rpc_timeout``
    bounds one peer exchange *including* the far-side tier read; the
    retry policy then governs how long a node nurses a struggling peer
    before falling back to the backing store.
    """

    n_nodes: int
    tier_capacity_bytes: int
    fast_profile: str = "ramdisk"
    rpc_latency: float = REMOTE_LATENCY
    rpc_timeout: Optional[float] = 50e-3
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cache_remote_reads: bool = False
    salt: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.tier_capacity_bytes <= 0:
            raise ValueError("tier_capacity_bytes must be positive")
        if self.fast_profile not in PROFILES:
            raise ValueError(
                f"unknown fast_profile {self.fast_profile!r}; "
                f"choose one of {sorted(PROFILES)}"
            )
        if self.rpc_latency < 0:
            raise ValueError("rpc_latency must be non-negative")
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive (or None)")
        if self.salt < 0:
            raise ValueError("salt must be non-negative")


class _BackingReader:
    """The one road to the backing store: every read is ledgered.

    It is the tiers' ``read_whole`` backend and the nodes' fallback, so
    every byte that leaves the backing store for the cluster flows through
    it, and the store's ledger cannot be bypassed by a policy that reads
    the backend directly.  It holds the ledger, not the store, so the
    nodes and tiers that hold it form no cycle with the store.
    """

    def __init__(
        self, backing: "StorageBackend", counters: CounterSet, ledger: Dict[str, int]
    ) -> None:
        self.backing = backing
        self.counters = counters
        self.ledger = ledger

    def read_whole(self, path: str) -> Event:
        self.counters.add("backing_reads")
        ledger = self.ledger
        ledger[path] = ledger.get(path, 0) + 1
        return self.backing.read_whole(path)


class ClusterStore:
    """N sharded peer nodes over one shared backing filesystem.

    The store owns its nodes, and the nodes reach their peers through a
    weak reference to it: keep the store (not only a node or a mount of
    one) while the cluster serves reads from peers.
    """

    def __init__(
        self,
        sim: "Simulator",
        backing: "StorageBackend",
        paths: Iterable[str],
        config: ClusterConfig,
        name: str = "cluster",
    ) -> None:
        self.sim = sim
        self.backing: "StorageBackend" = backing
        self.config = config
        self.name = name
        self.shard_map = ShardMap(paths, config.n_nodes, salt=config.salt)
        self.counters = CounterSet(sim.metrics, "cluster", name)
        #: per-epoch ledger of backing-store reads issued through the
        #: cluster (path -> count); the invariant check reads off this.
        self._epoch_backing: Dict[str, int] = {}
        self.backing_reader = _BackingReader(backing, self.counters, self._epoch_backing)
        profile_fn = PROFILES[config.fast_profile]
        self.nodes: List[ClusterNode] = []
        for i in range(config.n_nodes):
            fast_dev = BlockDevice(sim, profile_fn(), name=f"{name}.n{i}.fastdev")
            fast_fs = Filesystem(sim, fast_dev, name=f"{name}.n{i}.fast")
            channel = ControlChannel(
                sim, latency=config.rpc_latency, name=f"{name}.n{i}.ch"
            )
            self.nodes.append(
                ClusterNode(
                    sim,
                    index=i,
                    store=self,
                    fast_fs=fast_fs,
                    tier_capacity_bytes=config.tier_capacity_bytes,
                    channel=channel,
                    retry_policy=config.retry,
                    rpc_timeout=config.rpc_timeout,
                    cache_remote_reads=config.cache_remote_reads,
                    name=f"{name}.n{i}",
                )
            )

    # -- topology ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> ClusterNode:
        return self.nodes[index]

    def mount(self, index: int) -> ClusterMount:
        """A :class:`~repro.storage.posix.PosixLike` view from node ``index``."""
        return ClusterMount(self.nodes[index])

    def channels(self) -> List[ControlChannel]:
        """Every node's service channel (the fault injector's attach points)."""
        return [node.channel for node in self.nodes]

    # -- epoch accounting -------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Reset the per-epoch ledgers (call at each epoch boundary)."""
        self._epoch_backing.clear()
        if hasattr(self.backing, "begin_epoch"):
            self.backing.begin_epoch()

    @property
    def epoch_backing_reads(self) -> int:
        """Backing-store reads issued through the cluster this epoch."""
        return sum(self._epoch_backing.values())

    @property
    def epoch_unique_backing_reads(self) -> int:
        return len(self._epoch_backing)

    def max_epoch_reads_per_path(self) -> int:
        """Worst per-sample redundancy this epoch (1 = perfectly cooperative)."""
        return max(self._epoch_backing.values(), default=0)

    # -- aggregate accounting ----------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Cluster-wide counter sums (node counters + the backing funnel)."""
        keys = (
            "reads",
            "local_requests",
            "remote_requests",
            "peer_hits",
            "peer_misses",
            "fallback_reads",
            "peer_serves",
        )
        out = {key: sum(n.counters.get(key) for n in self.nodes) for key in keys}
        out["backing_reads"] = self.counters.get("backing_reads")
        out["tier_fast_hits"] = sum(
            n.tier.counters.get("fast_hits") for n in self.nodes
        )
        out["tier_coalesced"] = sum(
            n.tier.counters.get("coalesced_fetches") for n in self.nodes
        )
        return out

    def cluster_hit_rate(self) -> float:
        """Fraction of sample requests absorbed by the cluster's tiers.

        A request misses the cluster cache only when it reaches the backing
        store, so the rate is ``1 - backing_reads / reads`` — the aggregate
        the paper's §VII "access coordination" argument is about.
        """
        totals = self.totals()
        reads = totals["reads"]
        if reads <= 0:
            return 0.0
        return max(0.0, 1.0 - totals["backing_reads"] / reads)

    def peer_hit_rate(self) -> float:
        """Of remote requests, the fraction the owning peer actually served."""
        totals = self.totals()
        remote = totals["remote_requests"]
        return totals["peer_hits"] / remote if remote > 0 else 0.0

    def resident_files(self) -> int:
        return sum(n.resident_files for n in self.nodes)

    def resident_bytes(self) -> int:
        return sum(n.resident_bytes for n in self.nodes)

    def __repr__(self) -> str:
        return (
            f"<ClusterStore {self.name!r} nodes={len(self.nodes)} "
            f"catalog={len(self.shard_map)}>"
        )
