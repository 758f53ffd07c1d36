"""PRISMA's in-memory prefetch buffer.

The buffer holds at most ``N`` training samples (paper §IV).  The caching
policy is the paper's: *"a training file is stored in the buffer whenever it
is read by a producer and is evicted when a consumer requests it"* —
evict-on-read, exactly-once per epoch, which is optimal for a workload that
reads every file once per epoch in a known order.

Consumers request samples *by path*; requests for samples not yet produced
block until the producer delivers them (out-of-order consumers — PyTorch's
round-robin workers — are each unblocked individually).  Capacity is
dynamic: the control plane retargets ``N`` at run time.

Internals (this is the data plane's hot path — paper §IV argues a buffer
hit must cost no more than a memory copy):

* Storage is a :class:`~repro.simcore.resources.KeyedStore`: items live in
  its dict keyed by path (``items``, whose length is the occupancy) and
  each blocked consumer parks on a *per-path* waiter list, so
  ``insert``/``request``/``contains`` are all O(1).  (The
  previous :class:`~repro.simcore.resources.FilterStore` backing re-scanned
  every queued getter against every buffered item per dispatch —
  O(getters × items), quadratic over an epoch at the paper's scale.)
* **Duplicate requests fail fast.**  Evict-on-read plus read-once-per-epoch
  means a path can be delivered to exactly one consumer per epoch.  A
  second ``request`` for a path that is already being waited on, or that
  was already consumed this epoch, can never be satisfied — instead of
  deadlocking it fails immediately with
  :class:`~repro.simcore.errors.DuplicateRequestError`.  ``begin_epoch``
  resets the consumed-path tracking when a new epoch's filename list is
  installed.
* **Staged-error contract.**  Producers deliver backend read *failures*
  through the buffer too (otherwise the consumer waiting on that path would
  block forever): ``insert`` accepts an :class:`Exception` payload in place
  of the byte count.  Such inserts are counted as ``insert_errors`` (vs
  ``inserts``) and the exception instance becomes the request event's
  value; the prefetcher turns it into a failed ``serve`` event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set, Tuple, Union

from ..simcore.errors import DuplicateRequestError
from ..simcore.event import Event
from ..simcore.resources import KeyedStore
from ..telemetry import CounterSet, TimeWeightedGauge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator

#: Memory-copy rate for buffer hits (bytes/s).
MEMORY_BANDWIDTH = 6.0e9
#: Fixed overhead of serving a sample out of the buffer (seconds).
HIT_OVERHEAD = 5e-6

#: What a producer may stage for a path: the sample's byte count, or the
#: exception its backend read failed with (delivered to the consumer).
SamplePayload = Union[int, Exception]


def _validate_capacity(capacity: int) -> int:
    if isinstance(capacity, bool) or not isinstance(capacity, int):
        raise ValueError(f"capacity must be an int, got {capacity!r}")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    return capacity


class PrefetchBuffer:
    """Bounded, path-keyed sample buffer with evict-on-read semantics."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "prisma.buffer") -> None:
        self.sim = sim
        self.name = name
        self._req_name = f"{name}.req"
        self._store: KeyedStore = KeyedStore(
            sim, capacity=_validate_capacity(capacity), name=name
        )
        #: paths already delivered to a consumer this epoch (evict-on-read:
        #: a repeat request for one of these would block forever)
        self._consumed: Set[str] = set()
        self.counters = CounterSet(sim.metrics, "prefetch", name)
        #: time-weighted occupancy, for analysis: the property tests bound
        #: its maximum by the capacity.  The control policy reads the
        #: instantaneous ``level`` (``buffer_level`` in each snapshot).
        self.occupancy = TimeWeightedGauge(sim, 0, name=f"{name}.occupancy")

    # -- capacity --------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._store.capacity

    def set_capacity(self, capacity: int) -> None:
        """Control-plane knob: retarget N (never evicts on shrink)."""
        self._store.set_capacity(_validate_capacity(capacity))

    @property
    def level(self) -> int:
        return self._store.level

    # -- epoch lifecycle ----------------------------------------------------------
    def begin_epoch(self) -> None:
        """Reset consumed-path tracking for a new epoch's filename list.

        Every path becomes requestable again (the producers will re-stage
        each one exactly once).  Buffered-but-unconsumed leftovers from the
        previous epoch stay valid.
        """
        self._consumed.clear()

    # -- producer side ------------------------------------------------------------
    def insert(self, path: str, payload: SamplePayload) -> Event:
        """Stage a produced sample; blocks (event-wise) while the buffer is full.

        ``payload`` is the sample's byte count, or — per the staged-error
        contract — the exception the producer's backend read failed with.
        """
        if isinstance(payload, Exception):
            self.counters.add("insert_errors")
        else:
            self.counters.inserts.value += 1
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            # The span covers any backpressure wait while the buffer is full.
            span = tel.begin(
                "buffer.insert", f"{self.name}.insert", "buffer", lane=True,
                path=path, staged_error=isinstance(payload, Exception),
            )
        store = self._store
        put = store.put(path, payload)

        def settled(ev: Event) -> None:
            if ev.ok:
                level = len(store.items)
                self.occupancy.set(level)
                if tel is not None:
                    tel.end(span, ok=True)
                    tel.sample(f"{self.name}.occupancy", level)
            elif tel is not None:
                tel.end(span, ok=False)

        # The store's own event, with the bookkeeping as its first callback:
        # no relay event between the store and the producer.  The put was
        # made in this call, so it has not fired yet.
        put.callbacks.append(settled)
        return put

    # -- consumer side ------------------------------------------------------------
    def contains(self, path: str) -> bool:
        return path in self._store.items

    def request(self, path: str) -> Tuple[bool, Event]:
        """Consume (and evict) the sample for ``path``.

        Returns ``(hit, event)``: ``hit`` says whether the sample was already
        buffered at request time (a *miss* means the consumer stalls until a
        producer delivers it — the starvation signal the auto-tuner watches);
        the event's value is the sample's byte count (or the staged
        exception for a failed producer read).

        A duplicate request — for a path another consumer is already
        waiting on, or one already consumed this epoch — fails immediately
        with :class:`DuplicateRequestError` instead of blocking forever.
        """
        tel = self.sim.telemetry
        store = self._store
        hit = path in store.items
        if not hit and path in self._consumed:
            # The path is owned by an earlier request: either a consumer is
            # still parked on it, or it was already delivered this epoch.
            in_flight = store.waiting(path) > 0
            self.counters.add("duplicate_requests")
            if tel is not None:
                tel.instant("buffer.duplicate", self.name, "buffer", path=path)
            done = Event(self.sim, name=self._req_name)
            done.fail(
                DuplicateRequestError(
                    f"request({path!r}) on {self.name!r} can never be served: "
                    + (
                        "another consumer is already waiting for this path"
                        if in_flight
                        else "path was already consumed this epoch (evict-on-read)"
                    )
                    + "; each path is staged exactly once per epoch"
                )
            )
            return False, done
        if hit:
            self.counters.hits.value += 1
        else:
            self.counters.waits.value += 1
        wait_span = None
        if tel is not None:
            tel.instant("buffer.hit" if hit else "buffer.wait", self.name, "buffer", path=path)
            if not hit:
                # Starvation interval: the consumer is parked until a
                # producer stages this path (the auto-tuner's key signal).
                wait_span = tel.begin(
                    "buffer.starve", f"{self.name}.wait", "buffer", lane=True, path=path
                )
        # Claim the path *now* (not in the event callback): the claim is
        # what makes a concurrent duplicate request fail fast instead of
        # parking on a key that will never be re-staged.
        self._consumed.add(path)
        get = store.get(path)

        def settled(ev: Event) -> None:
            if ev.ok:
                level = len(store.items)
                self.occupancy.set(level)
                if tel is not None:
                    if wait_span is not None:
                        tel.end(wait_span, ok=True)
                    tel.sample(f"{self.name}.occupancy", level)
            elif wait_span is not None:
                tel.end(wait_span, ok=False)

        get.callbacks.append(settled)
        return hit, get

    # -- statistics --------------------------------------------------------------
    def hit_rate(self) -> float:
        hits = self.counters.get("hits")
        total = hits + self.counters.get("waits")
        return hits / total if total > 0 else 0.0

    def __repr__(self) -> str:
        return f"<PrefetchBuffer {self.name!r} {self.level}/{self.capacity}>"
