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

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..simcore.event import Event
from ..simcore.resources import FilterStore
from ..telemetry import CounterSet, TimeWeightedGauge
from .buffer import HIT_OVERHEAD, MEMORY_BANDWIDTH
from .filename_queue import FilenameQueue
from .optimization import MetricsSnapshot, OptimizationObject, TuningSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.backend import SampleSource


class _SharedBuffer:
    """Path-keyed buffer whose entries survive until ``fanout`` takes each.

    Entries are mutable ``[path, payload, remaining]`` cells; takes
    decrement ``remaining`` *in place* (the slot is only freed when the
    last owed copy is delivered), and consumers of absent paths park on an
    explicit waiter list served directly at insert time.  Re-staging taken
    entries through the store's put queue would instead race producers for
    freed slots — the same starvation-deadlock class the live buffer's
    demanded-path rule guards against.
    """

    def __init__(self, sim: "Simulator", capacity: int, fanout: int, name: str) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.sim = sim
        self.fanout = fanout
        self._store: FilterStore = FilterStore(sim, capacity=capacity, name=name)
        self._waiters: Dict[str, List[Event]] = {}
        self.counters = CounterSet()
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
        for item in self._store.items:
            if item[0] == path:
                return item
        return None

    def _release_slot(self, entry) -> None:
        """Pop a fully-consumed entry, freeing its slot for producers."""
        self._store.get(lambda it: it is entry)  # succeeds immediately
        self.occupancy.set(self.level)

    def insert(self, path: str, payload) -> Event:
        self.counters.add("inserts")
        done = Event(self.sim, name="shared.insert")
        inner = self._store.put([path, payload, self.fanout])

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

    def take(self, path: str) -> Event:
        """One consumer's copy of ``path``; value is the payload."""
        done = Event(self.sim, name="shared.take")
        entry = self._find(path)
        if entry is not None:
            self.counters.add("hits")
            entry[2] -= 1
            payload = entry[1]
            if entry[2] <= 0:
                self._release_slot(entry)
            done.succeed(payload)
            return done
        self.counters.add("waits")
        self._waiters.setdefault(path, []).append(done)
        return done

    def hit_rate(self) -> float:
        hits = self.counters.get("hits")
        total = hits + self.counters.get("waits")
        return hits / total if total > 0 else 0.0


class SharedDatasetPrefetcher(OptimizationObject):
    """Read-once, serve-K prefetching for jobs sharing one dataset.

    Jobs register up front (``consumers``); every covered file is fetched
    once per epoch and each consumer receives a memory-served copy.  Knobs
    and metrics match :class:`~repro.core.prefetcher.ParallelPrefetcher`,
    so the same control-plane policies apply unchanged.
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
        super().__init__(sim, backend, name)
        if consumers < 1:
            raise ValueError("consumers must be >= 1")
        if producers < 1:
            raise ValueError("producers must be >= 1")
        if max_producers < producers:
            raise ValueError("max_producers must be >= producers")
        self.consumers = consumers
        self.buffer = _SharedBuffer(
            sim, buffer_capacity, fanout=consumers, name=f"{name}.buffer"
        )
        self.queue = FilenameQueue(name=f"{name}.queue")
        self._serve_name = f"{name}.serve"
        self.max_producers = max_producers
        self._target_producers = producers
        self._live_producers = 0
        self._next_worker_id = 0
        self.active_producers = TimeWeightedGauge(sim, 0, name=f"{name}.active")
        self.allocated_producers = TimeWeightedGauge(sim, 0, name=f"{name}.allocated")
        self.bytes_fetched = 0.0
        self.files_fetched = 0
        self.read_errors = 0

    # -- knobs -----------------------------------------------------------------
    @property
    def target_producers(self) -> int:
        return self._target_producers

    def set_producers(self, t: int) -> None:
        if not 1 <= t <= self.max_producers:
            raise ValueError(f"producers must be in [1, {self.max_producers}]")
        self._target_producers = t
        self._spawn_up_to_target()

    def apply_settings(self, settings: TuningSettings) -> None:
        if settings.producers is not None:
            self.set_producers(settings.producers)
        if settings.buffer_capacity is not None:
            self.buffer.set_capacity(settings.buffer_capacity)

    # -- epoch lifecycle ------------------------------------------------------------
    def on_epoch(self, paths: Iterable[str]) -> None:
        self.queue.load(paths)
        self._spawn_up_to_target()

    def _spawn_up_to_target(self) -> None:
        while self._live_producers < self._target_producers and self.queue.remaining > 0:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            self._live_producers += 1
            self.allocated_producers.set(self._live_producers)
            self.sim.process(self._producer(worker_id), name=f"{self.name}.p{worker_id}")

    def _producer(self, worker_id: int):
        try:
            while True:
                if self._live_producers > self._target_producers:
                    return
                path = self.queue.next()
                if path is None:
                    return
                self.active_producers.increment()
                try:
                    payload = yield self.backend.read_whole(path)
                except Exception as exc:  # noqa: BLE001 - deliver to consumers
                    self.read_errors += 1
                    payload = exc
                finally:
                    self.active_producers.decrement()
                if not isinstance(payload, Exception):
                    self.bytes_fetched += payload
                    self.files_fetched += 1
                yield self.buffer.insert(path, payload)
        finally:
            self._live_producers -= 1
            self.allocated_producers.set(self._live_producers)

    # -- data path --------------------------------------------------------------
    def serve(self, path: str) -> Optional[Event]:
        if not self.queue.covers(path):
            return None
        fetched = self.buffer.take(path)
        done = Event(self.sim, name=self._serve_name)

        def after_fetch(ev: Event) -> None:
            if not ev.ok:
                done.fail(ev.exception)
                return
            payload = ev.value
            if isinstance(payload, Exception):
                done.fail(payload)
                return

            copy_out = self.sim.timeout(HIT_OVERHEAD + payload / MEMORY_BANDWIDTH)
            copy_out.add_callback(lambda _ev: done.succeed(payload))

        fetched.add_callback(after_fetch)
        return done

    # -- control-plane reporting ------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        hits = self.buffer.counters.get("hits")
        waits = self.buffer.counters.get("waits")
        return MetricsSnapshot(
            time=self.sim.now,
            requests=hits + waits,
            hits=hits,
            waits=waits,
            buffer_level=self.buffer.level,
            buffer_capacity=self.buffer.capacity,
            producers_allocated=self._live_producers,
            producers_active=self.active_producers.value,
            bytes_fetched=self.bytes_fetched,
            queue_remaining=self.queue.remaining,
        )
