"""One storage node of the peer-to-peer serving cluster.

A :class:`ClusterNode` is the unit the cooperative cache is built from: it
owns one shard of the catalog (per the cluster's
:class:`~repro.cluster.shard.ShardMap`), keeps that shard hot in a local
fast tier (a :class:`~repro.core.tiering.TieringObject` over a node-local
filesystem), and answers two kinds of traffic:

* **local reads** — its own trainer asking for any sample.  Owned samples
  read through the tier (first touch fetches from the backing store once,
  coalesced); non-owned samples are requested from the owning peer over the
  RPC channel layer, falling back to the backing store only when the peer
  is unreachable past the retry budget.
* **peer serves** — other nodes asking for samples *this* node owns,
  served from the same tier through the same coalesced read-through path,
  so a sample is fetched from the backing store at most once no matter how
  many peers race for it.

:class:`ClusterMount` wraps a node in the
:class:`~repro.storage.posix.PosixLike` interface so unmodified pipelines
(prefetchers, PRISMA stages, framework simulators) mount the cluster the
same way they mount a local filesystem — the paper's portability claim
extended across nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.control.retry import RetryPolicy, RpcError
from ..core.control.rpc import ControlChannel
from ..core.tiering import TieringObject
from ..simcore.errors import process_error
from ..simcore.event import Event, chain_result
from ..storage.filesystem import Filesystem
from ..storage.posix import PosixLike
from ..telemetry import CounterSet
from .shard import ShardMap, UnknownSample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from .store import ClusterStore


class ClusterNode:
    """One node: a tier over its shard, a service channel, and a client path."""

    def __init__(
        self,
        sim: "Simulator",
        index: int,
        store: "ClusterStore",
        fast_fs: Filesystem,
        tier_capacity_bytes: int,
        channel: ControlChannel,
        retry_policy: RetryPolicy,
        rpc_timeout: Optional[float],
        cache_remote_reads: bool = False,
        name: str = "cluster.n0",
    ) -> None:
        self.sim = sim
        self.index = index
        self.store = store
        self.channel = channel
        self.retry_policy = retry_policy
        self.rpc_timeout = rpc_timeout
        self.cache_remote_reads = cache_remote_reads
        self.name = name
        self._track = f"cluster.{name}"
        self._peer_name = f"{name}.peer"
        self._peer_fetch_name = f"{name}.peer_fetch"
        self.counters = CounterSet(sim.metrics, "cluster", name)
        self._owner_of = store.shard_map.owner_of
        # The tier's fill path is routed through this node (owned samples
        # come from the backing store, remote ones from the owning peer) —
        # the "peer tier as a promotion source" seam in core/tiering.
        self.tier = TieringObject(
            sim,
            backend=store.backing_reader,
            fast_fs=fast_fs,
            fast_capacity_bytes=tier_capacity_bytes,
            promote_after=1,
            name=f"{name}.tier",
            promotion_source=self._tier_source,
        )

    # -- client path ------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        return self.store.shard_map

    def read(self, path: str) -> Event:
        """Serve one sample request from the cooperative cache.

        Owned samples read through the local tier; non-owned samples are
        admitted to it only when ``cache_remote_reads`` is on (a requester
        must not displace its own shard by default — evicting owned samples
        would force peers back to the backing store).
        """
        counters = self.counters
        counters.reads.value += 1
        if self._owner_of(path) == self.index:
            counters.local_requests.value += 1
            admit = True
        else:
            counters.remote_requests.value += 1
            admit = self.cache_remote_reads
        return self.tier.fetch_through(path, admit=admit)

    def _tier_source(self, path: str) -> Event:
        """Where the tier's read-through fetches get their bytes."""
        owner = self._owner_of(path)
        if owner == self.index:
            return self.store.backing_read(path)
        return self._peer_fetch(path, owner)

    def _peer_fetch(self, path: str, owner: int) -> Event:
        """Request ``path`` from its owner; fall back to the backing store.

        The peer exchange rides :meth:`ControlChannel.request_with_retry`
        (transport losses and timeouts retried under the node's
        :class:`RetryPolicy`); once retries are exhausted — or the peer
        fails fatally — the sample is read from the backing store instead,
        trading the cooperative invariant for availability.
        """
        peer = self.store.nodes[owner]
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "cluster.remote_read", self._track, "cluster",
                lane=True, path=path, owner=owner,
            )
        done = Event(self.sim, name=self._peer_name)

        def fail(exc: BaseException) -> None:
            if span is not None:
                tel.end(span, outcome="error", error=type(exc).__name__)
            done.fail(process_error(self._peer_fetch_name, exc))

        def replied(ev: Event) -> None:
            if ev.ok:
                self.counters.peer_hits.value += 1
                if tel is not None:
                    tel.end(span, outcome="peer")
                done.succeed(ev.value)
                return
            if not isinstance(ev.exception, RpcError):
                fail(ev.exception)
                return
            self.counters.add("peer_misses")
            self.counters.add("fallback_reads")
            self.store.backing_read(path).add_callback(fell_back)

        def fell_back(ev: Event) -> None:
            if not ev.ok:
                fail(ev.exception)
                return
            if span is not None:
                tel.end(span, outcome="fallback")
            done.succeed(ev.value)

        peer.channel.request_with_retry(
            peer.serve, path, policy=self.retry_policy, timeout=self.rpc_timeout,
        ).add_callback(replied)
        return done

    # -- service path -----------------------------------------------------------
    def serve(self, path: str) -> Event:
        """Far-side RPC handler: serve an owned sample from the tier.

        Called (over this node's channel) by peers; the read-through tier
        coalesces concurrent serves of the same cold sample onto one
        backing fetch, which is what keeps retried at-most-once requests
        from double-reading the backing store.
        """
        if self._owner_of(path) != self.index:
            raise UnknownSample(f"{self.name} does not own {path!r}")
        self.counters.peer_serves.value += 1
        return self.tier.fetch_through(path)

    # -- observability -----------------------------------------------------------
    @property
    def resident_files(self) -> int:
        return self.tier.resident_files

    @property
    def resident_bytes(self) -> int:
        return self.tier.resident_bytes

    def __repr__(self) -> str:
        return (
            f"<ClusterNode {self.name!r} shard={len(self.shard_map.shard(self.index))} "
            f"resident={self.resident_files}>"
        )


class ClusterMount(PosixLike):
    """POSIX facade over one node's view of the cluster store.

    Whole-file reads of cataloged samples (the DL sample-load pattern) go
    through the cooperative cache; partial reads and paths outside the
    catalog (validation sets, checkpoints) fall through to the backing
    store untouched — the same covered/uncovered split a PRISMA stage
    applies to its optimization objects.
    """

    def __init__(self, node: ClusterNode) -> None:
        super().__init__(node.sim)
        self.node = node

    def size(self, path: str) -> int:
        return self.node.store.backing.stat(path).size  # raises FileNotFound

    def read_range(self, path: str, offset: int, length: int) -> Event:
        if offset == 0 and self.node.shard_map.covers(path):
            done = Event(self.sim, name=f"{self.node.name}.pread")
            return chain_result(
                self.node.read(path), done, lambda nbytes: min(nbytes, length)
            )
        return self.node.store.backing.read(path, offset, length)

    def read_whole(self, path: str) -> Event:
        """Whole-sample read through the cooperative cache (prefetcher API)."""
        if self.node.shard_map.covers(path):
            return self.node.read(path)
        return self.node.store.backing.read_whole(path)
