"""POSIX-style file API over a simulated filesystem.

This layer is the *interception seam* the paper builds on: DL frameworks
issue ``open``/``pread``/``read``/``close`` against a :class:`PosixLayer`,
and PRISMA's data-plane stage substitutes its own implementation of the same
interface (paper §IV: "replaced the pread invocation with Prisma.read —
10 LoC").  Anything that speaks :class:`PosixLike` can be transparently
rerouted through an SDS stage.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..simcore.event import Event, chain_result
from .filesystem import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from .backend import StorageBackend


class BadFileDescriptor(StorageError):
    """Operation on a closed or never-opened descriptor."""


@dataclass
class _OpenFile:
    path: str
    offset: int = 0


class PosixLike(abc.ABC):
    """The minimal POSIX surface the DL data path uses.

    A facade supplies three path-level operations: ``read_whole``,
    ``read_range`` and ``size``.  The descriptor table on top of them
    (``open``, ``pread``, ``read``, ``fstat_size``, ``close``) is written
    once, here, so every facade gives a descriptor the same semantics.

    All data operations return kernel events (they take simulated time);
    ``open``/``close`` are treated as free metadata operations, which is a
    deliberate simplification — at 1.28 M files per epoch an ``open`` costs
    microseconds against a ~300 µs read and does not change any result shape.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._next_fd = 3  # 0/1/2 reserved, as in the real table
        self._open: Dict[int, _OpenFile] = {}

    # -- what a facade supplies ----------------------------------------------------
    @abc.abstractmethod
    def read_whole(self, path: str) -> Event:
        """The whole file as one read; event value = bytes read."""

    @abc.abstractmethod
    def read_range(self, path: str, offset: int, length: int) -> Event:
        """Up to ``length`` bytes from ``offset``, clamped at EOF; event
        value = bytes read.  A facade that cannot serve ``offset`` raises
        :class:`~repro.storage.filesystem.InvalidRead`."""

    @abc.abstractmethod
    def size(self, path: str) -> int:
        """Size in bytes; raises for a missing path."""

    # -- the descriptor table ------------------------------------------------------
    def open(self, path: str) -> int:
        """Open for reading; returns a file descriptor."""
        self.size(path)  # a missing path raises here, before a descriptor exists
        fd = self._next_fd
        self._next_fd += 1
        self._open[fd] = _OpenFile(path)
        return fd

    def _entry(self, fd: int) -> _OpenFile:
        try:
            return self._open[fd]
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def close(self, fd: int) -> None:
        """Release the descriptor."""
        self._entry(fd)
        del self._open[fd]

    def fstat_size(self, fd: int) -> int:
        """Size in bytes of the open file."""
        return self.size(self._entry(fd).path)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def pread(self, fd: int, length: int, offset: int) -> Event:
        """Positional read; event value = bytes read.  The offset stays."""
        return self.read_range(self._entry(fd).path, offset, length)

    def read(self, fd: int, length: int) -> Event:
        """Sequential read advancing the descriptor offset.

        At or past EOF it returns 0 without asking the facade, as a kernel
        answers from the file's size.
        """
        entry = self._entry(fd)
        if entry.offset >= self.size(entry.path):
            return self.sim.timeout(0, 0)
        done = Event(self.sim, name="posix.read")
        inner = self.read_range(entry.path, entry.offset, length)

        def advance(nbytes: int) -> int:
            entry.offset += nbytes
            return nbytes

        return chain_result(inner, done, advance)


class PosixLayer(PosixLike):
    """Direct (un-intercepted) POSIX access to any storage backend.

    Only the backend's ``stat`` and ``read`` operations are used, so the
    same facade serves a local :class:`~repro.storage.filesystem.Filesystem`,
    a :class:`~repro.storage.distributed.DistributedFilesystem`, or an
    :class:`~repro.storage.object_store.ObjectStore` (ranged GETs back
    ``pread``) — frameworks keep their POSIX habits over all of them.
    """

    def __init__(self, sim: "Simulator", fs: "StorageBackend") -> None:
        super().__init__(sim)
        self.fs = fs

    def size(self, path: str) -> int:
        return self.fs.stat(path).size  # raises FileNotFound for missing paths

    def read_range(self, path: str, offset: int, length: int) -> Event:
        return self.fs.read(path, offset, length)

    def read_whole(self, path: str) -> Event:
        """The whole file as one read: the backend's ``read(path, 0, None)``.

        What ``open`` + ``pread`` of the whole size + ``close`` would do,
        without the descriptor: the backend looks the file up once (a
        missing path raises :class:`~repro.storage.filesystem.FileNotFound`
        here, as ``open`` would) and reads to EOF; the event's value is the
        file's size in bytes.
        """
        return self.fs.read(path, 0, None)
