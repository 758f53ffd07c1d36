"""Dataset catalogs: the file-level view of a training dataset.

A :class:`DatasetCatalog` is an ordered collection of sample files with
sizes (backed by NumPy arrays — ImageNet has 1.28 M entries and per-object
Python records would dominate memory).  Catalogs know how to materialize
themselves into a simulated filesystem and expose the *filenames list*
abstraction PRISMA shares with the DL framework (paper §IV: "a filenames
list, populated by the DL framework at the beginning of the training phase,
is shared with PRISMA so it knows in advance which files will be
requested").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class SampleInfo:
    """One sample file (materialized view of a catalog row)."""

    index: int
    path: str
    size: int


class DatasetCatalog:
    """An ordered, immutable list of sample files.

    Sizes live in a single int64 array.  A path is the prefix and the
    zero-padded index; :attr:`paths` holds every one of them, built once
    on first use (usually :meth:`materialize`) and then shared: the
    filesystem's keys, each epoch's filenames list and the prefetch
    buffer's keys are the same string per file, not a fresh copy per
    call.  Hot paths index ``catalog.paths`` directly; :meth:`path` adds a
    bounds check and a call.
    """

    def __init__(self, prefix: str, sizes: Sequence[int] | np.ndarray, name: str = "dataset") -> None:
        import numpy as np

        self.prefix = prefix
        self.name = name
        self._sizes = np.asarray(sizes, dtype=np.int64)
        if self._sizes.ndim != 1:
            raise ValueError("sizes must be one-dimensional")
        if len(self._sizes) == 0:
            raise ValueError("catalog must contain at least one sample")
        if (self._sizes < 0).any():
            raise ValueError("sizes must be non-negative")

    # -- core accessors -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sizes)

    @cached_property
    def paths(self) -> Tuple[str, ...]:
        """Every sample's path, in catalog order (built on first use)."""
        prefix = self.prefix
        return tuple(f"{prefix}/{i:08d}" for i in range(len(self._sizes)))

    def path(self, index: int) -> str:
        if not 0 <= index < len(self._sizes):
            raise IndexError(index)
        return self.paths[index]

    def size(self, index: int) -> int:
        return int(self._sizes[index])

    def __getitem__(self, index: int) -> SampleInfo:
        return SampleInfo(index, self.path(index), self.size(index))

    def __iter__(self) -> Iterator[SampleInfo]:
        for i in range(len(self)):
            yield self[i]

    @property
    def sizes(self) -> np.ndarray:
        """All sizes (read-only view)."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    def total_bytes(self) -> int:
        return int(self._sizes.sum())

    def mean_size(self) -> float:
        return float(self._sizes.mean())

    def filenames(self) -> List[str]:
        """The full filenames list (PRISMA's shared prefetch order input)."""
        return list(self.paths)

    # -- materialization -----------------------------------------------------------
    def materialize(self, fs) -> None:
        """Register every file of this catalog in a (simulated) filesystem.

        ``fs`` is duck-typed: anything exposing ``create(path, size)`` works
        (local :class:`~repro.storage.Filesystem` or the distributed PFS).
        """
        for path, size in zip(self.paths, self._sizes.tolist()):
            fs.create(path, size)

    # -- derivation -------------------------------------------------------------
    def subset(self, count: int, name: Optional[str] = None) -> "DatasetCatalog":
        """The first ``count`` samples as a new catalog (same prefix)."""
        if not 1 <= count <= len(self):
            raise ValueError(f"count must be in [1, {len(self)}], got {count}")
        return DatasetCatalog(self.prefix, self._sizes[:count].copy(), name or f"{self.name}[:{count}]")

    def __repr__(self) -> str:
        return (
            f"<DatasetCatalog {self.name!r} n={len(self)} "
            f"total={self.total_bytes() / 2**30:.2f} GiB>"
        )


@dataclass(frozen=True)
class TrainValSplit:
    """A dataset with distinct training and validation catalogs."""

    train: DatasetCatalog
    validation: DatasetCatalog

    def materialize(self, fs) -> None:
        self.train.materialize(fs)
        self.validation.materialize(fs)

    def total_bytes(self) -> int:
        return self.train.total_bytes() + self.validation.total_bytes()
