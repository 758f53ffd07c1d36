"""Synchronization and queueing resources built on the event kernel.

Provides the building blocks the storage and framework simulators need:

* :class:`Store` — bounded FIFO of items (producer/consumer buffer).
* :class:`FilterStore` — like ``Store`` but ``get`` takes a predicate; kept
  for generic predicates, but each dispatch re-evaluates every queued getter
  against every buffered item — O(getters × items).
* :class:`KeyedStore` — the fast path for key-addressed buffers: items
  indexed by key in a dict with per-key waiter lists, so ``put``/``get`` by
  key are O(1).  PRISMA's prefetch buffer rides on this.
* :class:`KeyedIndex` — a synchronous ordered key→item map (the page
  cache's), for O(1) keyed lookup with FIFO/LRU ordering without event
  semantics.
* :class:`Resource` — counted semaphore with FIFO queuing and usage stats.
* :class:`Lock` — a 1-capacity resource with wait-time accounting, so
  contention (e.g., PRISMA's shared-buffer lock under many PyTorch workers)
  can be both *modelled* and *measured*.
* :class:`Container` — continuous level (bytes of memory, tokens).
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .errors import DuplicateKeyError, EventAlreadyTriggered, SimulationError
from .event import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator


# -- run-queue states ----------------------------------------------------------
#: Request is parked on a resource's waiter list; nothing has been handed
#: to it yet.
WAITING = "waiting"
#: The resource handed the request its result and scheduled it on the
#: kernel's immediate queue; it has not fired yet.
READY = "ready"
#: The request's callbacks are executing (or have executed) — the waiter
#: resumed.
RUNNING = "running"
#: The request was withdrawn (``cancel_get``/``cancel``) before being served.
CANCELLED = "cancelled"


class RequestEvent(Event):
    """An event on a resource's run queue, with an explicit lifecycle state.

    Every pending store/resource operation moves ``WAITING → READY →
    RUNNING`` (or to ``CANCELLED`` when withdrawn): a resource hands its
    result to exactly one waiter, marking it READY as it schedules it on
    the kernel's immediate queue, and the kernel marks it RUNNING when it
    fires.  The states make waiter scheduling observable — diagnostics and
    tests can distinguish "parked" from "woken but not yet resumed" —
    without any extra queue structure beyond the per-key waiter lists.
    """

    __slots__ = ("state",)

    # Request events are allocated, triggered and fired once per store
    # operation, so the methods below set the fields directly instead of
    # chaining through Event's; scheduling still goes through the kernel's
    # _enqueue_now.
    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = name
        self.state = WAITING

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self.sim._enqueue_now(self)
        self._value = value
        self.state = READY
        return self

    def fail(self, exception: BaseException) -> "Event":
        Event.fail(self, exception)
        self.state = READY
        return self

    def _process(self) -> None:
        self.state = RUNNING
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)


def _normalize_item_capacity(capacity: float) -> float:
    """Validate a discrete-store capacity and normalize it to an int.

    Discrete stores count items, so a finite capacity must be a whole
    number; ``float("inf")`` (unbounded) is kept as-is.  Rejects zero,
    negatives, NaN, and fractional floats like ``2.5``.
    """
    if isinstance(capacity, bool) or not isinstance(capacity, (int, float)):
        raise ValueError(f"capacity must be a number, got {capacity!r}")
    if math.isnan(capacity) or capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if math.isinf(capacity):
        return float("inf")
    if capacity != int(capacity):
        raise ValueError(f"item capacity must be integral, got {capacity}")
    return int(capacity)


class StorePut(RequestEvent):
    """Pending ``put`` request; triggers when the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = store._put_name
        self.state = WAITING
        self.item = item


class StoreGet(RequestEvent):
    """Pending ``get`` request; triggers with the retrieved item."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]] = None) -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = store._get_name
        self.state = WAITING
        self.predicate = predicate


class Store:
    """Bounded FIFO store of discrete items.

    ``put(item)`` returns an event that triggers once capacity allows the
    item in; ``get()`` returns an event that triggers with the oldest item.
    Both queue FIFO, giving fair producer/consumer semantics.

    Stats: ``peak_items`` and the time-weighted ``area`` (item-seconds)
    behind :meth:`mean_occupancy`; only tests read them.  PRISMA's control
    loop reads neither: its policy sees the prefetch buffer's
    instantaneous level, in each metrics snapshot.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf"), name: str = "store") -> None:
        self.sim = sim
        self.capacity = _normalize_item_capacity(capacity)
        self.name = name
        # Interned request-event names: computed once per store instead of
        # one f-string per put/get on the hot path.
        self._put_name = "put:" + name
        self._get_name = "get:" + name
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()
        # occupancy statistics
        self.peak_items = 0
        self._area = 0.0
        self._last_change = sim.now

    # -- statistics -----------------------------------------------------------
    def _account(self) -> None:
        now = self.sim.now
        self._area += len(self.items) * (now - self._last_change)
        self._last_change = now

    def mean_occupancy(self) -> float:
        """Time-averaged number of items since creation."""
        self._account()
        elapsed = self.sim.now  # relative to t=0 by convention
        if elapsed <= 0:
            return float(self.level)
        return self._area / elapsed

    @property
    def level(self) -> int:
        return len(self.items)

    def set_capacity(self, capacity: float) -> None:
        """Retarget the capacity at runtime (auto-tuned buffers).

        Raising the capacity admits queued putters immediately; lowering it
        never evicts — the store simply blocks new puts until consumption
        drains below the new limit.
        """
        self.capacity = _normalize_item_capacity(capacity)
        self._dispatch()

    # -- operations -------------------------------------------------------------
    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def offer(self, item: Any) -> bool:
        """Admit ``item`` now if there is room, without a put event.

        The producer side for a caller that is not a process and keeps
        its own backlog: returns False, admitting nothing, when the store
        is full (as it is while any put queues).  Queued getters are
        served as by :meth:`put`.
        """
        if len(self.items) >= self.capacity:
            return False
        self._account()
        self.items.append(item)
        self.peak_items = max(self.peak_items, len(self.items))
        self._dispatch()
        return True

    def _try_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._account()
            self.items.append(event.item)
            self.peak_items = max(self.peak_items, len(self.items))
            event.succeed()
            return True
        return False

    def _try_get(self, event: StoreGet) -> bool:
        if self.items:
            self._account()
            event.succeed(self.items.popleft())
            return True
        return False

    def _dispatch(self) -> None:
        """Match queued putters/getters until no progress is possible."""
        progress = True
        while progress:
            progress = False
            while self._putters and self._try_put(self._putters[0]):
                self._putters.popleft()
                progress = True
            while self._getters and self._try_get(self._getters[0]):
                self._getters.popleft()
                progress = True

    def __repr__(self) -> str:
        return (
            f"<Store {self.name!r} {len(self.items)}/{self.capacity} "
            f"putq={len(self._putters)} getq={len(self._getters)}>"
        )


class FilterStore(Store):
    """Store whose ``get`` may demand a specific item via a predicate.

    Getters scan the buffer for the first matching item.  Non-matching
    getters stay queued without blocking others (each getter is evaluated
    independently) — this models a keyed prefetch buffer where consumer *i*
    waits for file *i* regardless of arrival order.
    """

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        event = StoreGet(self, predicate)
        self._getters.append(event)
        self._dispatch()
        return event

    def _try_get(self, event: StoreGet) -> bool:
        if event.predicate is None:
            return super()._try_get(event)
        for idx, item in enumerate(self.items):
            if event.predicate(item):
                self._account()
                del self.items[idx]
                event.succeed(item)
                return True
        return False

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and self._try_put(self._putters[0]):
                self._putters.popleft()
                progress = True
            # Unlike the FIFO store, evaluate *every* getter: a later getter
            # may match while an earlier one keeps waiting.
            remaining: Deque[StoreGet] = deque()
            for getter in self._getters:
                if self._try_get(getter):
                    progress = True
                else:
                    remaining.append(getter)
            self._getters = remaining


class KeyedIndex:
    """Synchronous, insertion-ordered ``key -> item`` map with O(1) ops.

    The OS page-cache model's storage: a dict for O(1) lookup plus
    ordering hooks (``touch`` for LRU recency, ``pop_oldest`` for FIFO/LRU
    eviction).  Holds exactly one item per key; re-inserting a present key
    raises :class:`~repro.simcore.errors.DuplicateKeyError`.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def keys(self):
        return self._entries.keys()

    def items(self):
        return self._entries.items()

    def put(self, key: Hashable, item: Any) -> None:
        if key in self._entries:
            raise DuplicateKeyError(f"key {key!r} already present in index")
        self._entries[key] = item

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Peek at the item for ``key`` without removing it."""
        return self._entries.get(key, default)

    def pop(self, key: Hashable) -> Any:
        """Remove and return the item for ``key`` (KeyError if absent)."""
        return self._entries.pop(key)

    def discard(self, key: Hashable) -> Any:
        """Remove the item for ``key`` if present; returns it or ``None``."""
        return self._entries.pop(key, None)

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` most-recently-used (moves it to the eviction tail)."""
        self._entries.move_to_end(key)

    def pop_oldest(self) -> Tuple[Hashable, Any]:
        """Remove and return the (key, item) at the eviction head."""
        return self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return f"<KeyedIndex {len(self._entries)} keys>"


class KeyedStorePut(RequestEvent):
    """Pending keyed ``put``; triggers when the item is admitted.

    Fails with :class:`DuplicateKeyError` if the key is already buffered —
    a keyed store holds exactly one item per key.
    """

    __slots__ = ("key", "item")

    def __init__(self, store: "KeyedStore", key: Hashable, item: Any) -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = store._put_name
        self.state = WAITING
        self.key = key
        self.item = item


class KeyedStoreGet(RequestEvent):
    """Pending keyed ``get``; triggers with the item for its key."""

    __slots__ = ("key",)

    def __init__(self, store: "KeyedStore", key: Optional[Hashable]) -> None:
        self.sim = store.sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = store._get_name
        self.state = WAITING
        self.key = key


class KeyedStore(Store):
    """Bounded store addressed by key: O(1) put, O(1) get-by-key.

    This replaces :class:`FilterStore` on PRISMA's hot path.  Where the
    filter store re-evaluates every queued getter against every buffered
    item on each dispatch (O(getters × items) — quadratic across an epoch),
    the keyed store holds items in a dict, ``items`` (key -> item, oldest
    first), and parks each getter on a *per-key* waiter list, so an insert
    wakes exactly the consumers of that key.

    Semantics:

    * ``put(key, item)`` queues FIFO behind earlier putters and blocks
      (event-wise) while the store is at capacity — producer fairness is
      identical to :class:`Store`.  A put for a key that is already
      buffered fails with :class:`DuplicateKeyError` instead of silently
      shadowing the first item.
    * ``get(key)`` triggers immediately when the key is buffered (evicting
      the item) or parks on the key's waiter list until a producer delivers
      it.  Waiters for the same key are served FIFO.
    * ``get()`` (no key) takes the oldest buffered item, FIFO.

    Keys must be hashable and not ``None`` (``None`` selects the any-key
    FIFO path).
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf"), name: str = "kstore") -> None:
        super().__init__(sim, capacity, name)
        self._put_name = "kput:" + name
        self._get_name = "kget:" + name
        #: key -> buffered item, in insertion order (``level`` counts it)
        self.items: Dict[Hashable, Any] = {}  # type: ignore[assignment]
        self._waiters: Dict[Hashable, Deque[KeyedStoreGet]] = {}
        self._any_waiters: Deque[KeyedStoreGet] = deque()

    # -- introspection ---------------------------------------------------------
    def contains(self, key: Hashable) -> bool:
        return key in self.items

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Item buffered for ``key`` (without consuming it), else default."""
        return self.items.get(key, default)

    def waiting(self, key: Hashable) -> int:
        """Number of getters currently parked on ``key``."""
        return len(self._waiters.get(key, ()))

    def waiting_keys(self) -> List[Hashable]:
        """Keys with at least one parked getter (diagnostics)."""
        return list(self._waiters)

    # -- operations ------------------------------------------------------------
    def offer(self, item: Any) -> bool:
        """Refused: an item enters a keyed store only under its key.

        Raises :class:`TypeError` and admits nothing; use ``put(key, item)``.
        """
        raise TypeError(f"{self.name!r} is keyed: use put(key, item), not offer(item)")

    def put(self, key: Hashable, item: Any = None) -> KeyedStorePut:  # type: ignore[override]
        event = KeyedStorePut(self, key, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, key: Optional[Hashable] = None) -> KeyedStoreGet:  # type: ignore[override]
        event = KeyedStoreGet(self, key)
        items = self.items
        if key is None:
            if items:
                self._account()
                event.succeed(items.pop(next(iter(items))))
                self._dispatch()  # a slot freed: admit a queued putter
            else:
                self._any_waiters.append(event)
        elif key in items:
            self._account()
            event.succeed(items.pop(key))
            self._dispatch()
        else:
            self._waiters.setdefault(key, deque()).append(event)
        return event

    def discard(self, key: Hashable) -> Any:
        """Drop a buffered item without an event (invalidation hook)."""
        if key not in self.items:
            return None
        self._account()
        item = self.items.pop(key)
        self._dispatch()
        return item

    def cancel_get(self, event: KeyedStoreGet) -> None:
        """Withdraw a parked (not yet served) getter."""
        if event.key is None:
            try:
                self._any_waiters.remove(event)
            except ValueError:
                pass
            else:
                event.state = CANCELLED
                return
        else:
            waiters = self._waiters.get(event.key)
            if waiters is not None:
                try:
                    waiters.remove(event)
                except ValueError:
                    pass
                else:
                    if not waiters:
                        del self._waiters[event.key]
                    event.state = CANCELLED
                    return
        raise SimulationError(f"{event!r} is not waiting on {self.name!r}")

    # -- dispatch --------------------------------------------------------------
    def _try_put(self, event: KeyedStorePut) -> bool:  # type: ignore[override]
        key = event.key
        items = self.items
        if key in items:
            # Consumed from the queue but failed: one item per key.
            event.fail(
                DuplicateKeyError(
                    f"put({key!r}) on {self.name!r}: key already buffered"
                )
            )
            return True
        level = len(items)
        if level >= self.capacity:
            return False
        now = self.sim.now
        self._area += level * (now - self._last_change)
        self._last_change = now
        items[key] = event.item
        level += 1
        if level > self.peak_items:
            self.peak_items = level
        event.succeed()
        self._serve_waiters(key)
        return True

    def _serve_waiters(self, key: Hashable) -> None:
        """Hand a just-inserted key to its first parked getter, if any."""
        waiters = self._waiters.get(key)
        if waiters:
            waiter = waiters.popleft()
            if not waiters:
                del self._waiters[key]
            self._account()
            waiter.succeed(self.items.pop(key))
            return
        if self._any_waiters:
            waiter = self._any_waiters.popleft()
            self._account()
            items = self.items
            waiter.succeed(items.pop(next(iter(items))))

    def _dispatch(self) -> None:
        # Waiter hand-off happens inside _try_put (an insert wakes exactly
        # the consumers of that key), so dispatch only admits putters; each
        # hand-off frees a slot, letting the loop admit the next putter.
        while self._putters and self._try_put(self._putters[0]):
            self._putters.popleft()

    def __repr__(self) -> str:
        waiting = sum(len(w) for w in self._waiters.values()) + len(self._any_waiters)
        return (
            f"<KeyedStore {self.name!r} {self.level}/{self.capacity} "
            f"putq={len(self._putters)} waiters={waiting}>"
        )


class ResourceRequest(RequestEvent):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource", "_issued_at")

    def __init__(self, resource: "Resource") -> None:
        self.sim = sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = resource._req_name
        self.state = WAITING
        self.resource = resource
        self._issued_at = sim.now

    # Allow `with (yield res.request()):` style usage in process bodies.
    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """Counted resource (semaphore) with FIFO queueing and usage metering.

    ``request()`` yields an event; once triggered the caller holds one slot
    until ``release(request)``.  Tracks time-weighted utilization and total
    queue wait, which the experiments use for thread-activity CDFs.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = "req:" + name
        self.users: List[ResourceRequest] = []
        self.queue: Deque[ResourceRequest] = deque()
        # metering
        self.total_wait_time = 0.0
        self.total_acquisitions = 0
        self._busy_area = 0.0
        self._last_change = sim.now

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += len(self.users) * (now - self._last_change)
        self._last_change = now

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def utilization(self) -> float:
        """Mean fraction of capacity in use since creation."""
        self._account()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_area / (elapsed * self.capacity)

    def request(self) -> ResourceRequest:
        event = ResourceRequest(self)
        if len(self.users) < self.capacity:
            self._grant(event)
        else:
            self.queue.append(event)
        return event

    def try_request(self) -> Optional[ResourceRequest]:
        """Take a free slot in place: the held request, or None when full.

        The synchronous form of :meth:`request` for a caller that need not
        wait: a free slot has no queue behind it, so it is granted at once,
        with no grant event, and metered as a zero-wait acquisition.
        Release it with :meth:`release` as usual.
        """
        users = self.users
        if len(users) >= self.capacity:
            return None
        request = ResourceRequest(self)
        self._account()
        users.append(request)
        self.total_acquisitions += 1
        request._value = request
        request.callbacks = None
        request.state = RUNNING
        return request

    def _grant(self, event: ResourceRequest) -> None:
        self._account()
        self.users.append(event)
        self.total_acquisitions += 1
        self.total_wait_time += self.sim.now - event._issued_at
        event.succeed(event)

    def release(self, request: ResourceRequest) -> None:
        if request not in self.users:
            raise SimulationError(
                f"release of {request!r} which does not hold {self.name!r}"
            )
        self._account()  # account the interval *before* shrinking users
        self.users.remove(request)
        # A granted request is its own value; a released one lets go of
        # itself, so reference counting frees it rather than the collector.
        request._value = None
        if self.queue:
            self._grant(self.queue.popleft())

    def cancel(self, request: ResourceRequest) -> None:
        """Withdraw a queued (not yet granted) request."""
        try:
            self.queue.remove(request)
        except ValueError:
            raise SimulationError(f"{request!r} is not queued on {self.name!r}") from None
        request.state = CANCELLED

    def __repr__(self) -> str:
        return f"<Resource {self.name!r} {self.count}/{self.capacity} queue={len(self.queue)}>"


class Lock(Resource):
    """Binary lock: a capacity-1 resource with a convenience API.

    Usage inside a process::

        req = lock.acquire()
        yield req
        try:
            ...critical section...
        finally:
            lock.release(req)

    ``mean_wait()`` exposes average acquisition latency — the direct
    measurement of synchronization contention.
    """

    def __init__(self, sim: "Simulator", name: str = "lock") -> None:
        super().__init__(sim, capacity=1, name=name)

    def acquire(self) -> ResourceRequest:
        return self.request()

    def mean_wait(self) -> float:
        if self.total_acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.total_acquisitions

    @property
    def locked(self) -> bool:
        return self.count > 0


class Container:
    """Continuous-level resource (e.g. bytes of buffer memory).

    ``put(amount)``/``get(amount)`` return events that trigger once the level
    change fits within ``[0, capacity]``.  Requests are served FIFO per
    direction with opportunistic matching.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not (0 <= init <= capacity):
            raise ValueError("init must lie within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = "cput:" + name
        self._get_name = "cget:" + name
        self._level = float(init)
        self._putters: Deque[tuple[Event, float]] = deque()
        self._getters: Deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.sim, name=self._put_name)
        self._putters.append((event, amount))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError(f"get({amount}) exceeds capacity {self.capacity}")
        event = Event(self.sim, name=self._get_name)
        self._getters.append((event, amount))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    event.succeed()
                    self._putters.popleft()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._level -= amount
                    event.succeed(amount)
                    self._getters.popleft()
                    progress = True

    def __repr__(self) -> str:
        return f"<Container {self.name!r} level={self._level}/{self.capacity}>"
