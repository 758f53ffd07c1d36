"""The FIFO filename queue feeding PRISMA's producers, and the prefetch
state machine built on it.

Paper §IV: *"The order in which files are read is given by an internal FIFO
queue that stores the filenames of dataset samples.  A filenames list,
populated by the DL framework at the beginning of the training phase, is
shared with PRISMA so it knows in advance which files will be requested."*

The queue is a plain synchronous deque (producers poll it between reads; it
is never a blocking rendezvous point), plus the bookkeeping the stage needs:
which paths are covered by prefetching in the current epoch, and how much
work remains.

:class:`PrefetchCore` is the rest of the data plane's state machine — the
queue feeding up to *t* producers, which fill a bounded, evict-on-read
buffer — written once for the simulated
(:class:`~repro.core.prefetcher.ParallelPrefetcher`), shared-dataset and
live (:class:`~repro.core.live.LivePrefetcher`) prefetchers.  This module
imports no simulator, so the live plane can use it on its own.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .optimization import TuningSettings
    from .schedule import LookaheadSchedule


class FilenameQueue:
    """FIFO of paths to prefetch, reloaded once per epoch."""

    def __init__(self, name: str = "prisma.queue") -> None:
        self.name = name
        self._queue: Deque[str] = deque()
        self._covered: Set[str] = set()
        self.epochs_loaded = 0
        self.total_enqueued = 0

    def check(self, paths: List[str], prestaged: Set[str]) -> Set[str]:
        """Reject a load :meth:`load` would refuse; returns the path set."""
        if self._queue:
            raise ValueError(
                f"{self.name}: loading a new epoch with {len(self._queue)} "
                "paths still pending (previous epoch not fully consumed)"
            )
        seen = set(paths)
        if len(seen) != len(paths):
            raise ValueError(f"{self.name}: duplicate paths in epoch list")
        if not prestaged <= seen:
            raise ValueError(
                f"{self.name}: prestaged paths not in the epoch list: "
                f"{sorted(prestaged - seen)[:3]}"
            )
        return seen

    def load(self, paths: Iterable[str], prestaged: Iterable[str] = ()) -> None:
        """Install a new epoch's shuffled filenames list.

        Loading replaces the *coverage set* (which paths the stage may serve
        from the buffer) while appending to the pending work — leftover
        entries from a previous epoch would indicate a protocol violation,
        so they are rejected loudly rather than silently merged.

        ``prestaged`` names paths a clairvoyant prefetcher already staged
        across the epoch boundary: they stay *covered* (the buffer serves
        them) but are not enqueued again — re-fetching them would violate
        the buffer's staged-exactly-once-per-epoch contract.
        """
        paths = list(paths)
        prestaged = set(prestaged)
        self._covered = self.check(paths, prestaged)
        pending = [p for p in paths if p not in prestaged]
        self._queue.extend(pending)
        self.epochs_loaded += 1
        self.total_enqueued += len(pending)

    def next(self) -> Optional[str]:
        """Pop the next path to prefetch, or None if the epoch is drained."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def requeue(self, path: str) -> None:
        """Return a claimed-but-unserved path to the *front* of the queue.

        Crash recovery: when a producer dies between dequeuing a path and
        staging its sample, the path would otherwise be lost for the epoch
        and the consumer waiting on it would hang.  Front placement keeps
        the consumer's wait bounded (it was next in line before the crash).
        """
        if path not in self._covered:
            raise ValueError(f"{self.name}: requeue of uncovered path {path!r}")
        if path in self._queue:
            raise ValueError(f"{self.name}: {path!r} is already pending")
        self._queue.appendleft(path)

    def covers(self, path: str) -> bool:
        """Whether ``path`` belongs to the current epoch's prefetch list."""
        return path in self._covered

    @property
    def remaining(self) -> int:
        return len(self._queue)

    def pending_paths(self) -> List[str]:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"<FilenameQueue {self.name!r} remaining={len(self._queue)}>"


def _validate_lookahead(value: object) -> int:
    """Normalize the ``lookahead_epochs`` knob (int >= 0, bool rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"lookahead_epochs must be an int, got {value!r}")
    if value < 0:
        raise ValueError("lookahead_epochs must be >= 0")
    return value


class PrefetchCore:
    """Sans-I/O prefetch bookkeeping, driven by a simulated or live host.

    The core owns the epoch queue, clairvoyant lookahead against a
    :class:`~repro.core.schedule.LookaheadSchedule`, each producer's
    in-flight claim, the target and live producer counts, the spawn
    decision, the knobs and the counters the control plane reads.  It does
    no reads, spawns nothing and takes no lock.  A driver supplies
    ``buffer`` (``level``, ``capacity``, ``contains``, ``set_capacity``)
    and ``_spawn_up_to_target``, which starts a producer for each id
    :meth:`_grow_producers` returns, and calls the core serially.

    A producer loops: :meth:`_claim` a path (``None``: retire), read it,
    insert it into the buffer, then :meth:`_settle` the claim once the
    insert is the buffer's.  A producer that dies between the two
    :meth:`_release`\\ s its claim instead.

    Clairvoyant lookahead: once the live epoch's FIFO drains, producers
    claim the next epoch's prefix from the schedule while the buffer has
    slack, and :meth:`_load_epoch` marks those paths *prestaged* (covered
    but not enqueued again).  ``lookahead_epochs`` bounds how far ahead
    producers may run; 0 disables lookahead.
    """

    buffer: Any  # supplied by the driver

    def __init__(
        self, producers: int, max_producers: int, lookahead_epochs: int, name: str
    ) -> None:
        if producers < 1:
            raise ValueError("producers must be >= 1")
        if max_producers < producers:
            raise ValueError("max_producers must be >= producers")
        self.name = name
        self.queue = FilenameQueue(name=f"{name}.queue")
        self.max_producers = max_producers
        self._target_producers = producers
        self._live_producers = 0
        self._next_worker_id = 0
        #: path each producer has claimed but not yet settled
        self._in_flight: Dict[int, str] = {}
        self.bytes_fetched = 0.0
        self.files_fetched = 0
        self.read_errors = 0
        self.lookahead_epochs = _validate_lookahead(lookahead_epochs)
        #: the clairvoyant oracle (None = reactive per-epoch FIFO only)
        self.schedule: Optional["LookaheadSchedule"] = None
        #: next-epoch paths fetched early, pending their epoch's load
        self._staged_ahead: Set[str] = set()
        self.lookahead_fetches = 0

    # -- knobs -----------------------------------------------------------------
    def install_schedule(self, schedule: "LookaheadSchedule") -> None:
        """Install the clairvoyant oracle (shared by both data planes)."""
        self.schedule = schedule

    @property
    def target_producers(self) -> int:
        return self._target_producers

    @property
    def queue_remaining(self) -> int:
        return self.queue.remaining

    def set_producers(self, t: int) -> None:
        """Retarget *t*; excess producers retire after their current file."""
        if not 1 <= t <= self.max_producers:
            raise ValueError(f"producers must be in [1, {self.max_producers}]")
        self._target_producers = t
        self._spawn_up_to_target()

    def apply_settings(self, settings: "TuningSettings") -> None:
        if settings.producers is not None:
            self.set_producers(settings.producers)
        if settings.buffer_capacity is not None:
            self.buffer.set_capacity(settings.buffer_capacity)
        lookahead = settings.extra.get("lookahead_epochs")
        if lookahead is not None:
            self.lookahead_epochs = _validate_lookahead(lookahead)
            self._spawn_up_to_target()

    # -- epoch lifecycle ---------------------------------------------------------
    def _load_epoch(self, paths: Iterable[str]) -> None:
        """Install an epoch's filenames list; a rejected load changes nothing.

        The queue checks the list before the schedule advances, so a load
        refused for pending work or duplicates leaves the fetch clock where
        it was; one whose order diverges from the schedule leaves the queue
        unloaded.
        """
        paths = list(paths)
        # Paths fetched across the epoch boundary are already staged: keep
        # them covered but out of the FIFO, or they would be fetched twice.
        prestaged = self._staged_ahead.intersection(paths)
        self.queue.check(paths, prestaged)
        if self.schedule is not None:
            if self.schedule.epochs_started >= self.schedule.n_epochs:
                # Horizon exhausted: degrade gracefully to reactive mode
                # rather than failing the run.
                self.schedule = None
            else:
                self.schedule.start_epoch(paths)
        self.queue.load(paths, prestaged)
        self._staged_ahead -= prestaged

    # -- producers ---------------------------------------------------------------
    def _wants_producer(self) -> bool:
        """Whether a producer is missing and has work to claim."""
        return self._live_producers < self._target_producers and (
            self.queue.remaining > 0 or self._peek_lookahead() is not None
        )

    def _grow_producers(self) -> range:
        """Count producers live up to target; returns their new worker ids."""
        first = self._next_worker_id
        while self._wants_producer():
            self._live_producers += 1
            self._next_worker_id += 1
        return range(first, self._next_worker_id)

    def _claim(self, worker_id: int) -> Optional[str]:
        """The next path for a producer, or ``None`` when it should retire:
        *t* shrank below the live count, or no work is left."""
        if self._live_producers > self._target_producers:
            return None
        path = self.queue.next()
        if path is None:
            path = self._peek_lookahead()
            if path is None:
                return None
            self._staged_ahead.add(path)
            self.lookahead_fetches += 1
        if self.schedule is not None:
            # Dequeues happen in schedule order, so this is the normal clock
            # advance (a lookahead claim is the clock position itself);
            # crash-requeued refetches match nothing and leave it alone.
            self.schedule.mark_fetched(path)
        self._in_flight[worker_id] = path
        return path

    def _settle(self, worker_id: int, nbytes: Optional[float]) -> None:
        """Drop a claim whose insert the buffer now owns; ``nbytes`` is
        ``None`` for a staged read failure (counted when it happened)."""
        del self._in_flight[worker_id]
        if nbytes is not None:
            self.bytes_fetched += nbytes
            self.files_fetched += 1

    def _release(self, worker_id: int) -> None:
        """Give back the claim of a producer that died before settling it."""
        path = self._in_flight.pop(worker_id, None)
        if path is None:
            return
        if path in self._staged_ahead:
            # A crashed *lookahead* fetch is not requeued into the live
            # epoch (the next load may arrive while it would still be
            # pending); releasing the claim re-enqueues it normally in its
            # own epoch — its clock position stays claimed, and the late
            # refetch's mark is a no-op by design.
            self._staged_ahead.discard(path)
        else:
            # Dequeued but never staged: put it back or its consumer hangs.
            self.queue.requeue(path)

    def _peek_lookahead(self) -> Optional[str]:
        """The cross-epoch path a producer could claim now, if any."""
        if self.schedule is None or self.lookahead_epochs < 1:
            return None
        # Slack rule: never let lookahead compete with the live epoch for
        # buffer space — count staged samples *and* in-flight fetches.
        if self.buffer.level + len(self._in_flight) >= self.buffer.capacity:
            return None
        path = self.schedule.peek_ahead(self.lookahead_epochs)
        if path is None:
            return None
        # Stop (don't skip) on conflict: the path is still buffered or in
        # flight for the *current* epoch, and a second copy would overwrite
        # the first.  Skipping would desync the fetch clock; stopping keeps
        # the claimed prefix contiguous, and the next eviction retries.
        if self.buffer.contains(path) or path in self._in_flight.values():
            return None
        return path

    # -- control-plane reporting -------------------------------------------------
    def _snapshot_fields(self) -> dict:
        """The :class:`~repro.core.optimization.MetricsSnapshot` fields both
        planes report alike."""
        return dict(
            buffer_level=self.buffer.level,
            buffer_capacity=self.buffer.capacity,
            producers_allocated=self._live_producers,
            bytes_fetched=self.bytes_fetched,
            queue_remaining=self.queue.remaining,
            files_fetched=self.files_fetched,
            read_errors=self.read_errors,
            lookahead_fetches=self.lookahead_fetches,
        )
