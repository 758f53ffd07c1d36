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
  is unreachable past the retry budget or fails outright.
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

import weakref
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
    from ..telemetry import Span, Telemetry
    from .store import ClusterStore


class _PeerRead:
    """One read of a sample from its owning peer, in flight.

    The RPC exchange settles it as it would an event: :meth:`succeed` with
    the peer's byte count, :meth:`fail` with the exchange's failure.  A
    transport or far-side failure (any :class:`RpcError`) falls back to the
    backing store.  Either way the outcome settles ``done``: the tier's own
    read-through event, handed down, or one the source made.  ``outer`` is
    the name of a handed-down event, whose failure the tier's chain wraps
    in one more ``ProcessError`` of that name (None for the source's own
    event).  The ``cluster.remote_read`` span ends where ``done`` settles,
    with outcome ``peer``, ``fallback`` or ``error``.
    """

    __slots__ = ("source", "path", "done", "outer", "tel", "span")

    def __init__(
        self,
        source: "_TierSource",
        path: str,
        done: Event,
        outer: Optional[str],
        tel: Optional["Telemetry"],
        span: Optional["Span"],
    ) -> None:
        self.source = source
        self.path = path
        self.done = done
        self.outer = outer
        self.tel = tel
        self.span = span

    def succeed(self, nbytes: int) -> None:
        self.source.counters.peer_hits.value += 1
        if self.span is not None:
            self.tel.end(self.span, outcome="peer")
        self.done.succeed(nbytes)

    def fail(self, exc: BaseException) -> None:
        if not isinstance(exc, RpcError):
            self.error(exc)
            return
        source = self.source
        source.counters.add("peer_misses")
        source.counters.add("fallback_reads")
        source.backing_read(self.path).add_callback(self.fell_back)

    def fell_back(self, ev: Event) -> None:
        if not ev.ok:
            self.error(ev.exception)
            return
        if self.span is not None:
            self.tel.end(self.span, outcome="fallback")
        self.done.succeed(ev.value)

    def error(self, exc: BaseException) -> None:
        if self.span is not None:
            self.tel.end(self.span, outcome="error", error=type(exc).__name__)
        err = process_error(self.source.peer_fetch_name, exc)
        if self.outer is not None:
            err = process_error(self.outer, err)
        self.done.fail(err)


class _TierSource:
    """Where one node's tier fills get their bytes.

    Owned samples come from the backing store, the rest from the owning
    peer over its channel.  The tier holds this source; the source holds
    neither the tier nor its node, and reaches the peers through a weak
    reference to the store, so a cluster holds no reference cycle and is
    freed with its store.
    """

    __slots__ = (
        "sim", "index", "owner_of", "store", "backing_read", "counters",
        "retry_policy", "rpc_timeout", "track", "peer_name", "peer_fetch_name",
    )

    def __init__(
        self,
        node: "ClusterNode",
        store: "ClusterStore",
        retry_policy: RetryPolicy,
        rpc_timeout: Optional[float],
    ) -> None:
        name = node.name
        self.sim = node.sim
        self.index = node.index
        self.owner_of = store.shard_map.owner_of
        self.store = weakref.ref(store)
        self.backing_read = store.backing_reader.read_whole
        self.counters = node.counters
        self.retry_policy = retry_policy
        self.rpc_timeout = rpc_timeout
        self.track = f"cluster.{name}"
        self.peer_name = f"{name}.peer"
        self.peer_fetch_name = f"{name}.peer_fetch"

    def read(self, path: str, done: Optional[Event] = None) -> Event:
        """The tier's promotion source: ``path``'s bytes, from its owner.

        The tier hands ``done`` down on a fetch that does not admit (a
        non-owner's read); otherwise the source makes its own event.  A
        peer's sample rides :meth:`ControlChannel.request_with_retry`
        (transport losses and timeouts retried under the node's
        :class:`RetryPolicy`), and the exchange settles a
        :class:`_PeerRead`; once retries are exhausted — or the peer fails
        fatally — the sample is read from the backing store instead,
        trading the cooperative invariant for availability.
        """
        owner = self.owner_of(path)
        if owner == self.index:
            read = self.backing_read(path)
            if done is None:
                return read

            def landed(ev: Event) -> None:
                if ev.ok:
                    done.succeed(ev.value)
                else:
                    done.fail(process_error(done.name, ev.exception))

            read.add_callback(landed)
            return done
        peer = self.store().nodes[owner]
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "cluster.remote_read", self.track, "cluster",
                lane=True, path=path, owner=owner,
            )
        if done is None:
            done, outer = Event(self.sim, name=self.peer_name), None
        else:
            outer = done.name
        peer.channel.request_with_retry(
            peer.serve, path, policy=self.retry_policy, timeout=self.rpc_timeout,
            done=_PeerRead(self, path, done, outer, tel, span),
        )
        return done


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
        self.shard_map: ShardMap = store.shard_map
        #: the backing store itself, for reads outside the cooperative cache
        self.backing = store.backing
        self.channel = channel
        self.cache_remote_reads = cache_remote_reads
        self.name = name
        self.counters = CounterSet(sim.metrics, "cluster", name)
        self._owner_of = store.shard_map.owner_of
        # The tier's fills come from this node's source (owned samples
        # from the backing store, remote ones from the owning peer) — the
        # "peer tier as a promotion source" seam in core/tiering.
        self.tier = TieringObject(
            sim,
            backend=store.backing_reader,
            fast_fs=fast_fs,
            fast_capacity_bytes=tier_capacity_bytes,
            promote_after=1,
            name=f"{name}.tier",
            promotion_source=_TierSource(self, store, retry_policy, rpc_timeout).read,
        )

    # -- client path ------------------------------------------------------------
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
        return self.node.backing.stat(path).size  # raises FileNotFound

    def read_range(self, path: str, offset: int, length: int) -> Event:
        if offset == 0 and self.node.shard_map.covers(path):
            done = Event(self.sim, name=f"{self.node.name}.pread")
            return chain_result(
                self.node.read(path), done, lambda nbytes: min(nbytes, length)
            )
        return self.node.backing.read(path, offset, length)

    def read_whole(self, path: str) -> Event:
        """Whole-sample read through the cooperative cache (prefetcher API)."""
        if self.node.shard_map.covers(path):
            return self.node.read(path)
        return self.node.backing.read_whole(path)
