"""Thread-safe prefetch buffer for the live (real-threads) PRISMA.

Same semantics as the simulated :class:`~repro.core.buffer.PrefetchBuffer` —
bounded capacity, path-keyed, evict-on-read, blocking on both sides — but
for real producer/consumer threads, with a hand-off built so that a
consumer which has outrun its producers costs one wake-up per batch of
samples, not one per sample:

* a consumer that misses blocks on its own wake-up lock, filed under the
  path it wants; an insert releases only the waiters that are due, and
  only after it has dropped the buffer lock, so a woken consumer never
  wakes straight into a lock its waker still holds;
* a waiter is due once its sample is staged and the batch rule (see
  :data:`WAKE_BATCH`) holds;
* producers blocked on a full buffer wait on one condition, signalled
  only while one is blocked: when a take frees a slot, or when a consumer
  starts waiting (the blocked producer may hold its path);
* the hold must not hide starvation from the control plane, so the
  samples staged during a hold count as starved once a consumer stalls
  again (see :meth:`LiveBuffer.demand`).

Lock order: a caller may hold its own lock (the prefetcher's) when it
calls into the buffer; the buffer never calls out while holding its lock.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

#: Samples that must be staged, since a consumer began waiting, before its
#: own (already staged) sample is handed over — unless the buffer is full,
#: no registered producer is running, or the buffer is closed.  Waking a
#: consumer that has outrun its producers once per batch, not once per
#: sample, spares both threads a lock hand-off per sample.  The batch
#: counts samples, not bytes or time: the read that opens a batch waits
#: for that many file reads, whatever their size.  On 64 KiB files with
#: one producer and one consumer that does no compute, batches of 3 to 32
#: gave throughput within noise of each other, while that opening read
#: waited longer the larger the batch; other traffic shapes are not
#: measured (see DESIGN §14).  It is a constant, not a knob.
WAKE_BATCH = 8


class BufferClosed(RuntimeError):
    """The buffer was shut down while a thread was blocked on it."""


class _Waiter:
    """One blocked consumer: its path, the insert count when it began
    waiting, and the lock it sleeps on (held from birth, released once)."""

    __slots__ = ("path", "since", "lock")

    def __init__(self, path: str, since: int) -> None:
        self.path = path
        self.since = since
        self.lock = threading.Lock()
        self.lock.acquire()


class LiveBuffer:
    """Bounded, path-keyed, thread-safe sample buffer."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._items: Dict[str, bytes] = {}
        self._lock = threading.Lock()
        #: producers blocked on a full buffer wait here
        self._space = threading.Condition(self._lock)
        self._closed = False
        #: consumers blocked on a path that is not staged yet.  Inserts of
        #: these demanded paths bypass the capacity check: otherwise a
        #: producer holding the demanded sample can starve behind a sibling
        #: whose fresh inserts always win the race for freed slots,
        #: deadlocking the whole pipeline.  The buffer may transiently
        #: exceed capacity by at most the number of concurrently demanded
        #: paths (≤ consumer count).
        self._waiting: Dict[str, List[_Waiter]] = {}
        #: consumers whose sample is staged, held back until they are due
        self._ready: List[_Waiter] = []
        #: samples staged undemanded while a consumer sat in ``_ready``,
        #: not yet judged (see :meth:`demand`)
        self._unjudged = 0
        #: registered producer threads (see :meth:`register_producer`)
        self._producers = 0
        #: producers blocked on a full buffer, registered or not
        self._parked = 0
        # statistics (guarded by the same lock)
        self.hits = 0
        self.waits = 0
        self.inserts = 0
        self.peak_level = 0
        #: held samples judged starved (see :meth:`demand`)
        self._held = 0

    # -- capacity --------------------------------------------------------------
    @property
    def capacity(self) -> int:
        with self._lock:
            return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Control-plane knob; growing wakes blocked producers."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        with self._lock:
            self._capacity = capacity
            self._space.notify_all()
            due = self._due_locked()
        _release(due)

    @property
    def level(self) -> int:
        with self._lock:
            return len(self._items)

    # -- producer registry ------------------------------------------------------
    def register_producer(self) -> None:
        """Count a producer thread that will insert into this buffer.

        While a registered producer runs, a staged consumer waits for its
        batch; a buffer with none wakes a waiter on the insert of its path.
        """
        with self._lock:
            self._producers += 1

    def deregister_producer(self) -> None:
        """Uncount a producer; the last one out releases every staged waiter."""
        with self._lock:
            self._producers -= 1
            if not self._producers:
                self._unjudged = 0  # the epoch ended before a stall
            due = self._due_locked()
        _release(due)

    # -- producer side ------------------------------------------------------------
    def insert(self, path: str, data: bytes, timeout: Optional[float] = None) -> None:
        """Stage a sample; blocks while the buffer is at capacity.

        Demanded paths (a consumer is blocked on them) are admitted even at
        capacity — see ``_waiting`` for why this is required for liveness.
        """
        with self._lock:
            items = self._items
            if len(items) >= self._capacity and path not in self._waiting:
                self._park_locked(path, timeout)
            if self._closed:
                raise BufferClosed("insert on closed buffer")
            items[path] = data
            self.inserts += 1
            if len(items) > self.peak_level:
                self.peak_level = len(items)
            waiters = self._waiting.pop(path, None)
            if waiters is not None:
                self._ready.extend(waiters)
            elif self._ready:
                self._unjudged += 1
            if self._unjudged and len(items) >= self._capacity:
                self._unjudged = 0  # the consumers fell behind
            due = self._due_locked() if self._ready else None
        if due:
            _release(due)

    def _park_locked(self, path: str, timeout: Optional[float]) -> None:
        """Block a producer until its insert fits; caller holds the lock.

        A producer parks only on a full buffer, and the insert or capacity
        change that filled it released every staged waiter, so parking
        never strands a consumer.
        """
        self._parked += 1
        try:
            fits = self._space.wait_for(
                lambda: len(self._items) < self._capacity
                or path in self._waiting
                or self._closed,
                timeout,
            )
        finally:
            self._parked -= 1
        if not fits:
            raise TimeoutError(f"insert({path!r}) timed out")

    # -- consumer side ------------------------------------------------------------
    def take(self, path: str, timeout: Optional[float] = None) -> bytes:
        """Consume (and evict) the sample for ``path``; blocks until present.

        A blocked consumer is handed its sample when it is due (see
        :data:`WAKE_BATCH`); a wait that times out still returns the
        sample if it is staged, and raises :class:`TimeoutError` only when
        it is absent.
        """
        with self._lock:
            data = self._items.pop(path, None)
            if data is not None:
                self.hits += 1
                if self._parked:
                    self._space.notify()
                return data
            self.waits += 1
            # Stalling again: the batch before only put off these stalls.
            self._held += self._unjudged
            self._unjudged = 0
            waiter = self._wait_locked(path)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is None:
                woken = waiter.lock.acquire()
            else:
                woken = waiter.lock.acquire(True, max(deadline - time.monotonic(), 0.0))
            with self._lock:
                if not woken:
                    self._forget_locked(waiter)
                data = self._items.pop(path, None)
                if data is not None:
                    if self._parked:
                        self._space.notify()
                    return data
                if self._closed:
                    raise BufferClosed("take on closed buffer")
                if not woken:
                    raise TimeoutError(f"take({path!r}) timed out")
                # Another consumer of the same path won the race: wait again.
                waiter = self._wait_locked(path)

    def _wait_locked(self, path: str) -> _Waiter:
        """File a waiter for ``path`` (a new demand); caller holds the lock."""
        if self._closed:
            raise BufferClosed("take on closed buffer")
        waiter = _Waiter(path, self.inserts)
        self._waiting.setdefault(path, []).append(waiter)
        if self._parked:
            # A parked producer may hold `path`: the demand lets it in over
            # capacity.  A condition cannot single that producer out.
            self._space.notify_all()
        return waiter

    def _forget_locked(self, waiter: _Waiter) -> None:
        """Drop a timed-out waiter, unless a waker already took it."""
        waiters = self._waiting.get(waiter.path)
        if waiters is not None and waiter in waiters:
            waiters.remove(waiter)
            if not waiters:
                del self._waiting[waiter.path]
        elif waiter in self._ready:
            self._ready.remove(waiter)

    def _due_locked(self) -> Optional[List[_Waiter]]:
        """Unfile and return the staged waiters that are due; caller holds the lock."""
        ready = self._ready
        if not ready:
            return None
        if (
            len(self._items) >= self._capacity
            or self._producers <= self._parked
            or self._closed
        ):
            self._ready = []
            return ready
        batch = min(WAKE_BATCH, self._capacity)
        inserts = self.inserts
        due = [w for w in ready if inserts - w.since >= batch]
        if due:
            self._ready = [w for w in ready if inserts - w.since < batch]
        return due

    def contains(self, path: str) -> bool:
        with self._lock:
            return path in self._items

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Release every blocked thread with :class:`BufferClosed`."""
        with self._lock:
            self._closed = True
            self._space.notify_all()
            due = self._ready
            for waiters in self._waiting.values():
                due.extend(waiters)
            self._ready = []
            self._waiting.clear()
        _release(due)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def demand(self) -> Tuple[int, int]:
        """``(requests, starved)``: the control plane's starvation counts.

        Besides the waits, a sample staged undemanded while a consumer sat
        held for its batch counts as one starved request, once a consumer
        stalls again before the buffer fills or the last producer stops:
        that consumer drained the batch, so the hold only turned its
        stalls into hits.  A consumer whose producers set its pace, with
        or without compute of its own, so reads as starving as it did when
        each insert woke it.  One that falls behind after a hold (the first
        batch of an epoch, say) counts only its stall, and one with a lead,
        whose reads hit without a hold, counts nothing.
        """
        with self._lock:
            # With several consumers a stall may judge held samples that
            # another consumer has yet to read; never count more than hits.
            return self.hits + self.waits, self.waits + min(self._held, self.hits)

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.waits
            return self.hits / total if total > 0 else 0.0


def _release(waiters: Optional[List[_Waiter]]) -> None:
    """Wake each waiter; called after the buffer lock is dropped."""
    for waiter in waiters or ():
        waiter.lock.release()
