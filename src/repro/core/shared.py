"""Shared-dataset prefetching: one data plane, many jobs (paper §VII).

*"Under shared storage infrastructures it is common to have multiple DL
jobs (that are oblivious of each other) operating concurrently over the
same dataset, leading to resource contention and performance variation.
As such, it would be interesting to explore and introduce performance
isolation and resource fairness policies to these deployments."*

:class:`SharedDatasetPrefetcher` implements the coordination the paper
gestures at (and CoorDL [19] demonstrated): when K jobs train on the same
dataset, give them one prefetcher and one *coordinated* per-epoch shuffle.
Each file is then read from the backend **once** per epoch and served to
all K consumers from memory — K× less device traffic — with eviction
deferred until every registered consumer has taken its copy.

The coordinated order changes nothing statistically: each job still sees a
uniformly shuffled epoch; the jobs simply see the *same* shuffle, which is
the documented CoorDL trade-off.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Deque, Dict, List, Tuple

from ..simcore.event import Event
from ..simcore.resources import KeyedStore
from ..telemetry import CounterSet, TimeWeightedGauge
from .prefetcher import ParallelPrefetcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.backend import SampleSource


class _SharedBuffer:
    """Path-keyed buffer whose entries survive until ``fanout`` takes each.

    Each insert is a :class:`KeyedStore` entry keyed ``(path, n)``, so a
    restaged path holds both copies while a lagging consumer owes the old
    one; the oldest serves first.  Entries are ``[path, payload, remaining]``
    cells; takes decrement ``remaining`` *in place* (the last owed copy frees
    the slot), and consumers of absent paths wait on a list served at insert.
    Re-staging taken entries through the put queue would race producers for
    freed slots, the deadlock the live buffer's demanded-path rule prevents.
    """

    def __init__(self, sim: "Simulator", capacity: int, fanout: int, name: str) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.sim = sim
        self.fanout = fanout
        self._store = KeyedStore(sim, capacity=capacity, name=name)
        #: path -> keys of its entries, oldest first (puts admit in order)
        self._keys: Dict[str, Deque[Tuple[str, int]]] = {}
        self._serial = count()
        self._waiters: Dict[str, List[Event]] = {}
        self.counters = CounterSet(sim.metrics, "prefetch", name)
        self.occupancy = TimeWeightedGauge(sim, 0, name=f"{name}.occupancy")

    @property
    def capacity(self) -> int:
        return self._store.capacity  # Store normalizes finite capacities to int

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._store.set_capacity(capacity)

    @property
    def level(self) -> int:
        return self._store.level

    def _find(self, path: str):
        keys = self._keys.get(path)
        return self._store.peek(keys[0]) if keys else None

    def _release_slot(self, entry) -> None:
        """Drop a fully-consumed entry (its path's oldest), freeing its slot."""
        keys = self._keys[entry[0]]
        self._store.discard(keys.popleft())
        if not keys:
            del self._keys[entry[0]]
        self.occupancy.set(self.level)

    def insert(self, path: str, payload) -> Event:
        self.counters.add("inserts")
        done = Event(self.sim, name="shared.insert")
        key = (path, next(self._serial))
        self._keys.setdefault(path, deque()).append(key)
        inner = self._store.put(key, [path, payload, self.fanout])

        def settled(ev: Event) -> None:
            if not ev.ok:
                done.fail(ev.exception)
                return
            self.occupancy.set(self.level)
            self._serve_waiters(path)
            done.succeed()

        inner.add_callback(settled)
        return done

    def _serve_waiters(self, path: str) -> None:
        waiters = self._waiters.get(path)
        if not waiters:
            return
        entry = self._find(path)
        if entry is None:
            return
        while waiters and entry[2] > 0:
            waiter = waiters.pop(0)
            entry[2] -= 1
            waiter.succeed(entry[1])
        if not waiters:
            del self._waiters[path]
        if entry[2] <= 0:
            self._release_slot(entry)

    def contains(self, path: str) -> bool:
        return self._find(path) is not None

    def begin_epoch(self) -> None:
        """Nothing to reset: an entry lives until its last copy is taken."""

    def request(self, path: str) -> Tuple[bool, Event]:
        """One consumer's copy of ``path``: ``(hit, event)``, the event
        valued with the payload (as :meth:`PrefetchBuffer.request`)."""
        done = Event(self.sim, name="shared.take")
        entry = self._find(path)
        if entry is not None:
            self.counters.add("hits")
            entry[2] -= 1
            payload = entry[1]
            if entry[2] <= 0:
                self._release_slot(entry)
            done.succeed(payload)
            return True, done
        self.counters.add("waits")
        self._waiters.setdefault(path, []).append(done)
        return False, done

    def take(self, path: str) -> Event:
        """One consumer's copy of ``path``; value is the payload."""
        return self.request(path)[1]

    def hit_rate(self) -> float:
        hits = self.counters.get("hits")
        total = hits + self.counters.get("waits")
        return hits / total if total > 0 else 0.0


class SharedDatasetPrefetcher(ParallelPrefetcher):
    """Read-once, serve-K prefetching for jobs sharing one dataset.

    Jobs register up front (``consumers``); every covered file is fetched
    once per epoch and each consumer receives a memory-served copy.  It is
    a :class:`~repro.core.prefetcher.ParallelPrefetcher` over a fan-out
    buffer, so knobs, metrics and producer supervision are the same, and
    the same control-plane policies apply unchanged.  Serve-side retry is
    off: a staged read error fails every consumer at once, since a retry
    per consumer would read the file K times.
    """

    def __init__(
        self,
        sim: "Simulator",
        backend: "SampleSource",
        consumers: int,
        producers: int = 2,
        buffer_capacity: int = 256,
        max_producers: int = 8,
        name: str = "prisma.shared",
    ) -> None:
        if consumers < 1:
            raise ValueError("consumers must be >= 1")
        self.consumers = consumers  # the fan-out _new_buffer builds with
        super().__init__(
            sim, backend, producers=producers, buffer_capacity=buffer_capacity,
            max_producers=max_producers, max_read_retries=0, name=name,
        )

    def _new_buffer(self, capacity: int) -> _SharedBuffer:
        return _SharedBuffer(
            self.sim, capacity, fanout=self.consumers, name=f"{self.name}.buffer"
        )
