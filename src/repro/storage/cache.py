"""OS page-cache model (file-granularity LRU).

DL training reads whole sample files, so the cache tracks whole files under a
byte budget with LRU eviction.  A hit is served at memory bandwidth with a
small fixed overhead; a miss falls through to the caller (which then reads
the device and inserts).

The experiments reproduce the paper with the cache *disabled by default*: on
ABCI the 138 GiB ImageNet training set was re-read from the SSD every epoch
at device speed (the baseline's flat ≈330 MiB/s per-epoch time shows no
page-cache amplification — consistent with job-isolated memory limits on the
supercomputer).  The cache exists so ablation benchmarks can explore the
"dataset fits in RAM" regime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..simcore.resources import KeyedIndex
from ..telemetry import CounterSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class PageCache:
    """Byte-budgeted LRU cache keyed by file path.

    ``capacity_bytes = 0`` produces a pass-through cache where every lookup
    misses (the default experiment configuration).

    Entries live in a :class:`~repro.simcore.resources.KeyedIndex`:
    dict-speed lookup plus the LRU ordering hooks (``touch`` on hit,
    ``pop_oldest`` to evict).
    """

    #: Copy rate for cache hits (bytes/s) — DDR4 single-stream memcpy class.
    MEMORY_BANDWIDTH = 6.0e9
    #: Fixed per-hit overhead (page lookup, syscall return) in seconds.
    HIT_OVERHEAD = 4e-6

    def __init__(self, sim: "Simulator", capacity_bytes: float = 0.0, name: str = "pagecache") -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.sim = sim
        self.name = name
        self.capacity_bytes = float(capacity_bytes)
        self._entries: KeyedIndex = KeyedIndex()  # path -> bytes
        self._used = 0.0
        self.counters = CounterSet(sim.metrics, "storage", name)

    @property
    def used_bytes(self) -> float:
        return self._used

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def lookup(self, path: str) -> bool:
        """Check for ``path``; updates recency and hit/miss counters."""
        tel = self.sim.telemetry
        if path in self._entries:
            self._entries.touch(path)
            self.counters.add("hits")
            if tel is not None:
                tel.instant("cache.hit", f"storage.{self.name}", "storage", path=path)
            return True
        self.counters.add("misses")
        if tel is not None:
            tel.instant("cache.miss", f"storage.{self.name}", "storage", path=path)
        return False

    def hit_service_time(self, nbytes: float) -> float:
        """Time to serve ``nbytes`` from memory."""
        return self.HIT_OVERHEAD + nbytes / self.MEMORY_BANDWIDTH

    def insert(self, path: str, nbytes: float) -> None:
        """Insert a file, evicting LRU entries to fit; oversize files skip."""
        if nbytes > self.capacity_bytes:
            self.counters.add("uncacheable")
            return
        if path in self._entries:
            self._used -= self._entries.pop(path)
        while self._used + nbytes > self.capacity_bytes and self._entries:
            _, evicted = self._entries.pop_oldest()
            self._used -= evicted
            self.counters.add("evictions")
        self._entries.put(path, nbytes)
        self._used += nbytes

    def invalidate(self, path: str) -> None:
        if path in self._entries:
            self._used -= self._entries.pop(path)

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0.0

    def hit_rate(self) -> float:
        hits = self.counters.get("hits")
        total = hits + self.counters.get("misses")
        return hits / total if total > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"<PageCache {self.name!r} {self._used / 1e9:.2f}/"
            f"{self.capacity_bytes / 1e9:.2f} GB, {len(self._entries)} files>"
        )
