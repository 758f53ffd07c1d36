"""Distributed parallel-filesystem model (Lustre/GPFS/BeeGFS class).

Used by the multi-tenant experiments (paper §II "partial visibility" and
§VII "access coordination to shared datasets"): several DL jobs, each with
its own PRISMA stage or framework-intrinsic optimizer, compete for one
shared backend.

Topology modelled:

* ``n_targets`` object storage targets (OSTs), each a :class:`BlockDevice`;
  files are placed on OSTs by a stable hash of the path (whole-file
  placement — ImageNet sample files are far smaller than a Lustre stripe).
* one shared client network link (a fluid channel) plus a fixed RPC
  round-trip latency per request.

A :class:`~repro.storage.filesystem.StorageBackend` like the local
:class:`~repro.storage.filesystem.Filesystem`, so every higher layer (POSIX,
PRISMA, framework simulators) runs unmodified over local or distributed
storage — which is precisely the portability property the paper's data plane
claims.  Beyond the shared namespace it keeps only what is its own: file
placement on the OSTs, the RPC data path and the per-epoch read ledger.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional

from ..simcore.errors import process_error
from ..simcore.event import Event
from .device import BlockDevice, DeviceProfile, GiB, intel_p4600
from .filesystem import InvalidRead, SimFile, StorageBackend
from .fluid import FairShareChannel, saturating_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class StorageTarget:
    """One OST: a device plus the set of files it owns."""

    def __init__(self, sim: "Simulator", index: int, profile: DeviceProfile) -> None:
        self.index = index
        self.device = BlockDevice(sim, profile, name=f"ost{index}")
        self.file_count = 0

    def __repr__(self) -> str:
        return f"<StorageTarget {self.index} files={self.file_count}>"


class DistributedFilesystem(StorageBackend):
    """A shared PFS: hash-placed files over OSTs behind one network link.

    Distributed deployments are exactly the regime where the training set
    exceeds client memory, so there is no client page cache.
    """

    def __init__(
        self,
        sim: "Simulator",
        n_targets: int = 4,
        target_profile: Optional[DeviceProfile] = None,
        network_bandwidth: float = 10.0 * GiB,
        network_kappa: float = 0.5,
        rpc_latency: float = 250e-6,
        name: str = "pfs",
    ) -> None:
        if n_targets < 1:
            raise ValueError("n_targets must be >= 1")
        if rpc_latency < 0:
            raise ValueError("rpc_latency must be non-negative")
        super().__init__(sim, name)
        self._read_name = f"pfsread:{name}"
        self._write_name = f"pfswrite:{name}"
        self.rpc_latency = rpc_latency
        profile = target_profile or intel_p4600()
        self.targets: List[StorageTarget] = [
            StorageTarget(sim, i, profile) for i in range(n_targets)
        ]
        self.network = FairShareChannel(
            sim,
            saturating_capacity(network_bandwidth, network_kappa),
            name=f"{name}.net",
        )
        self._placement: Dict[str, int] = {}
        #: per-epoch read ledger: path -> completed reads since the last
        #: :meth:`begin_epoch`.  The cooperative-cache acceptance check
        #: ("each sample hits the backing store at most once per epoch
        #: cluster-wide") reads straight off this dict.
        self._epoch_reads: Dict[str, int] = {}

    # -- namespace: placement on the OSTs ----------------------------------------
    def _place(self, path: str) -> int:
        digest = hashlib.blake2s(path.encode(), digest_size=4).digest()
        return int.from_bytes(digest, "little") % len(self.targets)

    def create(self, path: str, size: int) -> SimFile:
        f = super().create(path, size)
        ost = self._place(path)
        self._placement[path] = ost
        self.targets[ost].file_count += 1
        return f

    def target_of(self, path: str) -> StorageTarget:
        self.stat(path)
        return self.targets[self._placement[path]]

    def unlink(self, path: str) -> None:
        super().unlink(path)
        self.targets[self._placement.pop(path)].file_count -= 1

    # -- data path --------------------------------------------------------------
    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> Event:
        """RPC to the owning OST: latency + device read + network transfer."""
        _, nbytes = self._extent(path, offset, length)
        target = self.targets[self._placement[path]]
        sim = self.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "pfs.read", self._track, "storage", lane=True, path=path, bytes=nbytes
            )
        done = Event(sim, name=self._read_name)

        def fail(exc: BaseException) -> None:
            if span is not None:
                tel.end(span, outcome="error", error=type(exc).__name__)
            done.fail(process_error(f"pfsread:{path}", exc))

        def at_target(_arg: None) -> None:
            if nbytes == 0:
                if span is not None:
                    tel.end(span, outcome="empty")
                done.succeed(0)
                return
            fault = self.fault_hook(path, nbytes) if self.fault_hook is not None else None
            if fault is None:
                serve()
            else:
                fault.apply(sim, serve, fail)

        def serve() -> None:
            target.device.read(nbytes).add_callback(read_done)

        def read_done(ev: Event) -> None:
            if not ev.ok:
                fail(ev.exception)
            else:
                self.network.transfer(nbytes).add_callback(delivered)

        def delivered(ev: Event) -> None:
            if not ev.ok:
                fail(ev.exception)
                return
            self.counters.add("reads")
            self.counters.add("read_bytes", nbytes)
            self._epoch_reads[path] = self._epoch_reads.get(path, 0) + 1
            if span is not None:
                tel.end(span, outcome="ost")
            done.succeed(nbytes)

        sim.call_later(self.rpc_latency, at_target)
        return done

    def write(self, path: str, nbytes: int, offset: int = 0) -> Event:
        """Write (extend) a file on its owning OST; event value = bytes.

        The write-path mirror of :meth:`read`: RPC latency, then the bytes
        cross the shared network link and stream onto the target device —
        so checkpoint uploads contend with concurrent reads for both.
        """
        meta = self.stat(path)
        if offset < 0 or nbytes < 0:
            raise InvalidRead(f"invalid write range for {path!r}")
        target = self.targets[self._placement[path]]
        sim = self.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "pfs.write", self._track, "storage", lane=True, path=path, bytes=nbytes
            )
        done = Event(sim, name=self._write_name)

        def at_target(_arg: None) -> None:
            if nbytes > 0:
                self.network.transfer(nbytes).add_callback(sent)
            else:
                landed()

        def sent(ev: Event) -> None:
            if ev.ok:
                target.device.write(nbytes).add_callback(written)
            else:
                fail(ev.exception)

        def written(ev: Event) -> None:
            if not ev.ok:
                fail(ev.exception)
                return
            meta.size = max(meta.size, offset + nbytes)
            landed()

        def fail(exc: BaseException) -> None:
            if span is not None:
                tel.end(span, outcome="error", error=type(exc).__name__)
            done.fail(process_error(f"pfswrite:{path}", exc))

        def landed() -> None:
            self.counters.add("writes")
            self.counters.add("write_bytes", nbytes)
            if span is not None:
                tel.end(span, outcome="ost")
            done.succeed(nbytes)

        sim.call_later(self.rpc_latency, at_target)
        return done

    # -- aggregate cache accounting ----------------------------------------------
    def begin_epoch(self) -> None:
        """Reset the per-epoch read ledger (call at each epoch boundary)."""
        self._epoch_reads.clear()

    def epoch_read_count(self, path: str) -> int:
        """Completed reads of ``path`` since the last :meth:`begin_epoch`."""
        return self._epoch_reads.get(path, 0)

    @property
    def epoch_reads(self) -> int:
        """Total completed reads this epoch."""
        return sum(self._epoch_reads.values())

    @property
    def epoch_unique_reads(self) -> int:
        """Distinct paths read this epoch."""
        return len(self._epoch_reads)

    def max_epoch_reads_per_path(self) -> int:
        """Worst per-path redundancy this epoch (1 = perfectly cooperative)."""
        return max(self._epoch_reads.values(), default=0)

    # -- observability -----------------------------------------------------------
    def bytes_read(self) -> float:
        return sum(t.device.bytes_read() for t in self.targets)

    def bytes_written(self) -> float:
        return sum(t.device.bytes_written() for t in self.targets)

    def load_imbalance(self) -> float:
        """max/mean ratio of per-OST file counts (1.0 = perfectly even)."""
        counts = [t.file_count for t in self.targets]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 1.0

    def __repr__(self) -> str:
        return (
            f"<DistributedFilesystem {self.name!r} targets={len(self.targets)} "
            f"files={len(self._files)}>"
        )
