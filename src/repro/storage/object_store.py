"""S3-like object store: high latency, high parallelism, whole-object PUT.

The third :class:`~repro.storage.filesystem.StorageBackend`, modelling cloud
object storage as DL training sees it.  Its objects are the shared
namespace's files; what is its own is the data path:

* every request pays a large fixed first-byte latency (an HTTPS round trip
  to a regional endpoint — milliseconds, vs microseconds for NVMe);
* per-stream bandwidth is modest but the service scales almost linearly
  with concurrent requests (a very high concurrency knee): one reader
  crawls, hundreds approach the aggregate rate — exactly the regime where
  PRISMA's auto-tuner pays off, since the optimal producer count is far
  from the POSIX optimum and no framework default finds it;
* **no page cache** — every GET goes to the service;
* writes are whole-object PUTs: no partial or extending writes, an upload
  replaces the object.  GETs may be ranged (the REST API allows it), which
  keeps the POSIX facade's ``pread`` working unmodified.

GETs and PUTs share one client link, so checkpoint uploads and prefetch
reads interfere naturally — the mixed-workload contention the write-path
experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..simcore.errors import process_error
from ..simcore.event import Event
from .device import GiB
from .filesystem import InvalidRead, StorageBackend
from .fluid import FairShareChannel, saturating_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


@dataclass(frozen=True)
class ObjectStoreProfile:
    """Static performance parameters of an object-storage service.

    ``kappa`` is the concurrency knee of the saturating capacity curve
    (one stream gets ``aggregate_bandwidth / (1 + kappa)``); object stores
    sit at the opposite end of the spectrum from local flash — a single
    stream sees ~1% of the service rate and only massive request
    parallelism approaches the ceiling.
    """

    name: str
    #: fixed first-byte latency of a GET (request + TTFB)
    get_latency: float = 12e-3
    #: fixed latency of a PUT before bytes flow
    put_latency: float = 25e-3
    #: service-side ceiling at high request concurrency (bytes/s)
    aggregate_bandwidth: float = 8 * GiB
    #: concurrency knee: one stream gets ``aggregate / (1 + kappa)``
    kappa: float = 100.0
    #: request-parallelism ceiling (client connection pool)
    max_concurrency: int = 256

    def __post_init__(self) -> None:
        if self.get_latency < 0 or self.put_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.aggregate_bandwidth <= 0:
            raise ValueError("aggregate_bandwidth must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")


def s3_like() -> ObjectStoreProfile:
    """A standard-tier regional object store.

    Calibration: one stream sustains ≈81 MiB/s (8 GiB/s ÷ 101) — the
    classic single-connection S3 rate — while 100+ concurrent requests
    reach multi-GiB/s aggregate, and every request pays a ~12 ms round
    trip.  On ~110 KiB samples a lone reader is latency-bound at ≈8 MiB/s,
    so throughput is almost linear in the producer count.
    """
    return ObjectStoreProfile(name="s3-like")


def premium_object() -> ObjectStoreProfile:
    """A low-latency "express" tier: same parallelism story, 10× lower RTT."""
    return ObjectStoreProfile(
        name="object-premium",
        get_latency=1.5e-3,
        put_latency=3e-3,
        aggregate_bandwidth=10 * GiB,
        kappa=60.0,
        max_concurrency=512,
    )


OBJECT_PROFILES = {
    "s3": s3_like,
    "premium": premium_object,
}


class ObjectStore(StorageBackend):
    """A flat namespace of objects behind one high-latency client link.

    Differences from :class:`~repro.storage.filesystem.Filesystem` callers
    may observe: there is no page cache (repeat GETs cost full price), and
    :meth:`write` is a whole-object PUT — ``offset`` must be 0 and the
    upload *replaces* the object's size rather than extending it.
    """

    def __init__(
        self,
        sim: "Simulator",
        profile: Optional[ObjectStoreProfile] = None,
        name: str = "objstore",
    ) -> None:
        super().__init__(sim, name)
        self.profile = profile or s3_like()
        self._get_name = f"get:{name}"
        self._put_name = f"put:{name}"
        self.link = FairShareChannel(
            sim,
            saturating_capacity(self.profile.aggregate_bandwidth, self.profile.kappa),
            name=f"{name}.link",
            max_concurrency=self.profile.max_concurrency,
        )

    # -- data path --------------------------------------------------------------
    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> Event:
        """A (possibly ranged) GET; event value = bytes actually read.

        Range semantics match POSIX reads: clamped at the object's end,
        reads at or past the end return 0 bytes after the request latency.
        """
        _, nbytes = self._extent(path, offset, length)
        sim = self.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "objstore.get", self._track, "storage", lane=True, path=path, bytes=nbytes
            )
        done = Event(sim, name=self._get_name)

        def fail(exc: BaseException) -> None:
            if span is not None:
                tel.end(span, outcome="error", error=type(exc).__name__)
            done.fail(process_error(f"get:{path}", exc))

        def first_byte(_arg: None) -> None:
            if nbytes == 0:
                if span is not None:
                    tel.end(span, outcome="empty")
                done.succeed(0)
                return
            fault = self.fault_hook(path, nbytes) if self.fault_hook is not None else None
            if fault is None:
                stream()
            else:
                fault.apply(sim, stream, fail)

        def stream() -> None:
            self.link.transfer(nbytes).add_callback(delivered)

        def delivered(ev: Event) -> None:
            if not ev.ok:
                fail(ev.exception)
                return
            self.counters.add("gets")
            self.counters.add("read_bytes", nbytes)
            if span is not None:
                tel.end(span, outcome="service")
            done.succeed(nbytes)

        sim.call_later(self.profile.get_latency, first_byte)
        return done

    def write(self, path: str, nbytes: int, offset: int = 0) -> Event:
        """A whole-object PUT; event value = bytes written.

        Object stores have no partial writes: ``offset`` must be 0 and the
        upload replaces the object (size becomes exactly ``nbytes``).
        """
        meta = self.stat(path)
        if offset != 0:
            raise InvalidRead(
                f"object PUT is whole-object; offset must be 0, got {offset} for {path!r}"
            )
        if nbytes < 0:
            raise InvalidRead(f"negative PUT size for {path!r}")
        sim = self.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "objstore.put", self._track, "storage", lane=True, path=path, bytes=nbytes
            )
        done = Event(sim, name=self._put_name)

        def uploaded(ev: Event) -> None:
            if not ev.ok:
                if span is not None:
                    tel.end(span, outcome="error", error=type(ev.exception).__name__)
                done.fail(process_error(f"put:{path}", ev.exception))
                return
            landed()

        def landed() -> None:
            meta.size = int(nbytes)
            self.counters.add("puts")
            self.counters.add("write_bytes", nbytes)
            if span is not None:
                tel.end(span, outcome="service")
            done.succeed(nbytes)

        def first_byte(_arg: None) -> None:
            if nbytes > 0:
                self.link.transfer(nbytes).add_callback(uploaded)
            else:
                landed()

        sim.call_later(self.profile.put_latency, first_byte)
        return done

    # -- observability ------------------------------------------------------------
    def bytes_read(self) -> float:
        return self.counters.get("read_bytes")

    def bytes_written(self) -> float:
        return self.counters.get("write_bytes")
