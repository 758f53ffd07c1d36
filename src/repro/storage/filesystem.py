"""The storage-backend base class, and the local filesystem on it.

:class:`StorageBackend` is the namespace every backend shares — a flat
table of :class:`SimFile` metadata, in-memory and free — plus the read
extent and ``read_whole``; each backend adds its data path.
:class:`Filesystem` is the local one: reads are byte-accurate against
stored sizes, and the page cache sits in front of the device.  Writes exist
so datasets can be "materialized" through the same machinery the
benchmarks use.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..simcore.errors import SimulationError, process_error
from ..simcore.event import Event
from ..telemetry import CounterSet
from .cache import PageCache
from .device import BlockDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class StorageError(SimulationError):
    """Base class for filesystem-level failures."""


class FileNotFound(StorageError):
    """The path does not exist."""


class FileExists(StorageError):
    """Attempt to create a path that already exists."""


class InvalidRead(StorageError):
    """Read outside the file's byte range with strict bounds checking."""


class TransientReadError(StorageError):
    """A read failed for a reason that may clear on retry.

    The *retryable* half of the storage error taxonomy: injected fault
    bursts, dropped backend RPCs, and media timeouts raise this; namespace
    errors (:class:`FileNotFound`, :class:`InvalidRead`) stay fatal.  The
    graceful-degradation machinery (producer respawn, serve-side retry)
    keys its retry decisions on this type.
    """


@dataclass(frozen=True)
class ReadFault:
    """What a fault hook may impose on one read: delay, failure, or both.

    ``extra_latency`` is served before the outcome is decided (a fault that
    fails *after* a timeout models a hung-then-errored backend request);
    ``error`` — typically a :class:`TransientReadError` — then fails the
    read, or ``None`` lets it proceed against the device.
    """

    error: Optional[Exception] = None
    extra_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_latency < 0:
            raise ValueError("extra_latency must be non-negative")

    def apply(
        self,
        sim: "Simulator",
        proceed: Callable[[], None],
        fail: Callable[[Exception], None],
    ) -> None:
        """Impose the fault on one read: after ``extra_latency``, call
        ``fail(error)``, or ``proceed()`` when there is no error."""

        def decide(_arg: None = None) -> None:
            if self.error is not None:
                fail(self.error)
            else:
                proceed()

        if self.extra_latency > 0:
            sim.call_later(self.extra_latency, decide)
        else:
            decide()


#: Hook signature: ``(path, nbytes) -> Optional[ReadFault]``.  Installed by
#: :class:`~repro.faults.FaultInjector`; ``None`` means "no fault".
FaultHook = Callable[[str, int], Optional[ReadFault]]


@dataclass
class SimFile:
    """Metadata for one simulated file."""

    path: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative file size for {self.path!r}")


class StorageBackend(abc.ABC):
    """What every storage backend is: a flat namespace plus a data path.

    The base owns the namespace — a flat table of :class:`SimFile`
    metadata (paths are opaque strings: the DL workload never traverses
    directories on the hot path, and ``list_prefix`` is the one listing a
    dataset catalog needs) — together with ``read_whole``, the read extent
    every ranged ``read`` computes, the ``storage`` counters, the span
    track and the ``fault_hook`` seam.  Namespace operations do no I/O and
    take no simulated time.

    A backend supplies its data path: ``read`` (ranged), ``write``,
    ``bytes_read`` and ``bytes_written``, each data operation returning a
    kernel :class:`~repro.simcore.event.Event` valued with the byte count.
    It extends the namespace only with what is its own (a page cache to
    invalidate, placement on storage targets).
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self._track = f"storage.{name}"
        self._files: Dict[str, SimFile] = {}
        self.counters = CounterSet(sim.metrics, "storage", name)
        #: fault-injection seam: consulted per data read when installed
        self.fault_hook: Optional[FaultHook] = None

    # -- namespace ---------------------------------------------------------------
    def create(self, path: str, size: int) -> SimFile:
        """Register a file (metadata only — no I/O is simulated)."""
        if path in self._files:
            raise FileExists(path)
        f = SimFile(path, int(size))
        self._files[path] = f
        return f

    def create_many(self, entries: Iterable[tuple[str, int]]) -> None:
        for path, size in entries:
            self.create(path, size)

    def exists(self, path: str) -> bool:
        return path in self._files

    def stat(self, path: str) -> SimFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def unlink(self, path: str) -> None:
        if path not in self._files:
            raise FileNotFound(path)
        del self._files[path]

    def list_prefix(self, prefix: str) -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def file_count(self) -> int:
        return len(self._files)

    def total_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    # -- data path ---------------------------------------------------------------
    def _extent(self, path: str, offset: int, length: Optional[int]) -> Tuple[SimFile, int]:
        """The file a read of ``length`` bytes from ``offset`` covers, and
        how many bytes it reads.

        ``length=None`` reads to EOF.  Reads are clamped at EOF (POSIX
        semantics), so a read at or past EOF covers 0 bytes.  A missing
        path raises :class:`FileNotFound`, a negative offset
        :class:`InvalidRead`.
        """
        try:  # stat, inline: one frame fewer per read
            meta = self._files[path]
        except KeyError:
            raise FileNotFound(path) from None
        if offset < 0:
            raise InvalidRead(f"negative offset {offset} for {path!r}")
        end = meta.size if length is None else min(offset + max(length, 0), meta.size)
        return meta, max(end - offset, 0)

    @abc.abstractmethod
    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> Event:
        """Read bytes from ``path``; event value = bytes actually read.

        A failed read fails the event with a
        :class:`~repro.simcore.errors.ProcessError` whose ``__cause__`` is
        the storage error.
        """

    def read_whole(self, path: str) -> Event:
        """Whole-file read (the DL sample-loading operation); the
        canonical whole-file spelling every consumer uses."""
        return self.read(path, 0, None)

    @abc.abstractmethod
    def write(self, path: str, nbytes: int, offset: int = 0) -> Event:
        """Write ``nbytes`` at ``offset``; event value = bytes written."""

    # -- observability -----------------------------------------------------------
    @abc.abstractmethod
    def bytes_read(self) -> float:
        """Cumulative bytes the backend served for reads."""

    @abc.abstractmethod
    def bytes_written(self) -> float:
        """Cumulative bytes the backend stored for writes."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} files={len(self._files)}>"


class Filesystem(StorageBackend):
    """A flat namespace of :class:`SimFile` objects on one device, behind
    a page cache."""

    def __init__(
        self,
        sim: "Simulator",
        device: BlockDevice,
        cache: Optional[PageCache] = None,
        name: str = "fs",
    ) -> None:
        super().__init__(sim, name)
        self.device = device
        self.cache = cache if cache is not None else PageCache(sim, 0.0)
        self._read_name = f"fsread:{name}"
        self._write_name = f"fswrite:{name}"

    def unlink(self, path: str) -> None:
        super().unlink(path)
        self.cache.invalidate(path)

    # -- data path --------------------------------------------------------------
    def read(self, path: str, offset: int = 0, length: Optional[int] = None) -> Event:
        """Page cache, else the device; a read at or past EOF returns 0
        bytes after a metadata round-trip."""
        meta, nbytes = self._extent(path, offset, length)
        sim = self.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "fs.read", self._track, "storage", lane=True, path=path, bytes=nbytes
            )
        if nbytes == 0:
            # Metadata-only: model a syscall round trip.
            empty = sim.timeout(1e-6, 0)
            if span is not None:
                empty.add_callback(lambda _ev: tel.end(span, outcome="empty"))
            return empty
        fault = self.fault_hook(path, nbytes) if self.fault_hook is not None else None
        if fault is None:
            return self._read_data(path, meta, nbytes, span)
        done = Event(sim, name=self._read_name)

        def fail(exc: Exception) -> None:
            if span is not None:
                tel.end(span, outcome="error", error=type(exc).__name__)
            done.fail(process_error(f"fsread:{path}", exc))

        fault.apply(sim, lambda: self._read_data(path, meta, nbytes, span, done), fail)
        return done

    def _read_data(
        self, path: str, meta: SimFile, nbytes: int, span, done: Optional[Event] = None
    ) -> Event:
        """The read past the fault hook: page cache, else the device.

        Settles ``done`` (made here when None) and returns it; a cache hit
        with no ``done`` yet returns the service timeout itself.  A device
        read hands ``done`` and the byte count to the device, which settles
        it when the transfer lands (device reads do not fail; faults are
        imposed above, by the fault hook).
        """
        sim = self.sim
        tel = sim.telemetry
        cache = self.cache
        if cache.capacity_bytes > 0 and cache.lookup(path):
            hit = sim.timeout(cache.hit_service_time(nbytes), nbytes)
            if span is not None:
                hit.add_callback(lambda _ev: tel.end(span, outcome="cache-hit"))
            if done is None:
                return hit
            hit.add_callback(lambda _ev: done.succeed(nbytes))
            return done
        if done is None:
            done = Event(sim, name=self._read_name)
        if cache.capacity_bytes > 0 or span is not None:

            def landed(_ev: Event) -> None:
                if cache.capacity_bytes > 0:
                    cache.insert(path, meta.size)
                if span is not None:
                    tel.end(span, outcome="device")

            # Ahead of any waiter: the fault path hands in an event its
            # caller is already waiting on.
            done.callbacks.insert(0, landed)
        return self.device.read(nbytes, event=done, value=nbytes)

    def write(self, path: str, nbytes: int, offset: int = 0) -> Event:
        """Write (extend) a file; event value = bytes written."""
        meta = self.stat(path)
        if offset < 0 or nbytes < 0:
            raise InvalidRead(f"invalid write range for {path!r}")
        sim = self.sim
        tel = sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "fs.write", self._track, "storage", lane=True, path=path, bytes=nbytes
            )
        done = Event(sim, name=self._write_name)

        def landed(ev: Event) -> None:
            if not ev.ok:
                if span is not None:
                    tel.end(span, outcome="error", error=type(ev.exception).__name__)
                done.fail(process_error(f"fswrite:{path}", ev.exception))
                return
            if nbytes > 0:
                meta.size = max(meta.size, offset + nbytes)
                self.cache.invalidate(path)
            self.counters.add("write_bytes", nbytes)
            if span is not None:
                tel.end(span, outcome="device")
            done.succeed(nbytes)

        written = self.device.write(nbytes) if nbytes > 0 else sim.timeout(1e-6)
        written.add_callback(landed)
        return done

    # -- observability ------------------------------------------------------------
    def bytes_read(self) -> float:
        """Cumulative bytes the device served for reads (cache hits excluded)."""
        return self.device.bytes_read()

    def bytes_written(self) -> float:
        return self.device.bytes_written()
