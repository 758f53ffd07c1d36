"""Live PRISMA: real producer threads prefetching real files.

This is the deployable counterpart of the simulated data plane — the same
architecture (FIFO filename queue → up to *t* producer threads → bounded
in-memory buffer → evict-on-read consumers) running on actual OS threads
and actual ``open()``/``read()`` syscalls.

It reuses the *identical* control-plane types as the simulation
(:class:`~repro.core.optimization.MetricsSnapshot`,
:class:`~repro.core.optimization.TuningSettings`, every
:class:`~repro.core.control.policy.ControlPolicy`): the decoupling argument
of the paper made concrete — the control logic doesn't care whether the
data plane is simulated or live.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Iterable, List, Optional, Set

from ..optimization import MetricsSnapshot, TuningSettings
from ..prefetcher import _validate_lookahead
from ..schedule import LookaheadSchedule
from .buffer import BufferClosed, LiveBuffer


class LivePrefetcher:
    """Parallel file prefetcher over the local filesystem.

    Thread model: a dynamic pool of daemon producer threads; each loops
    {dequeue path, read file, insert into buffer}.  The control plane (or
    the user) retargets ``t`` via :meth:`set_producers` — surplus threads
    retire after their current file; deficit spawns fresh ones.
    """

    def __init__(
        self,
        producers: int = 2,
        buffer_capacity: int = 64,
        max_producers: int = 16,
        lookahead_epochs: int = 0,
        name: str = "live.prefetch",
    ) -> None:
        if producers < 1:
            raise ValueError("producers must be >= 1")
        if max_producers < producers:
            raise ValueError("max_producers must be >= producers")
        self.name = name
        self.buffer = LiveBuffer(buffer_capacity)
        self.max_producers = max_producers
        self._lock = threading.Lock()
        self._queue: Deque[str] = deque()
        self._covered: Set[str] = set()
        #: paths a producer has claimed and not yet settled (under _lock);
        #: a path leaves in the producer's next section, after its insert
        self._in_flight: Set[str] = set()
        self._target = producers
        self._threads: List[threading.Thread] = []
        self._live = 0
        self._next_id = 0
        self._closed = False
        # metrics (under _lock)
        self.bytes_fetched = 0
        self.files_fetched = 0
        self.read_errors = 0
        # clairvoyant lookahead — same API as the simulated prefetcher
        self.lookahead_epochs = _validate_lookahead(lookahead_epochs)
        self._schedule: Optional[LookaheadSchedule] = None
        self._staged_ahead: Set[str] = set()
        self.lookahead_fetches = 0
        #: workload feature labels merged into control.decision telemetry
        #: (same contract as :attr:`~repro.core.stage.PrismaStage.
        #: feature_labels`); callers label backend kind / batch size so
        #: live telemetry harvests into the same training rows as sim
        self.feature_labels: dict = {"lookahead_epochs": self.lookahead_epochs}

    def install_schedule(self, schedule: LookaheadSchedule) -> None:
        """Install the clairvoyant oracle (shared with the simulated plane)."""
        with self._lock:
            self._schedule = schedule

    # -- epoch lifecycle ------------------------------------------------------------
    def load_epoch(self, paths: Iterable[str]) -> None:
        """Install the shuffled filenames list and (re)start producers."""
        paths = list(paths)
        with self._lock:
            if self._closed:
                raise RuntimeError("prefetcher is closed")
            if self._queue:
                raise ValueError(
                    f"{len(self._queue)} paths still pending from the previous epoch"
                )
            if self._schedule is not None:
                if self._schedule.epochs_started >= self._schedule.n_epochs:
                    self._schedule = None  # horizon exhausted: go reactive
                else:
                    self._schedule.start_epoch(paths)
            # Paths fetched across the epoch boundary stay covered but are
            # not re-enqueued (they are already staged in the buffer).
            prestaged = self._staged_ahead.intersection(paths)
            self._queue.extend(p for p in paths if p not in prestaged)
            self._covered = set(paths)
            self._staged_ahead.difference_update(prestaged)
        self._spawn_up_to_target()

    def covers(self, path: str) -> bool:
        with self._lock:
            return path in self._covered

    @property
    def queue_remaining(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- producer management -----------------------------------------------------
    @property
    def target_producers(self) -> int:
        with self._lock:
            return self._target

    @property
    def live_producers(self) -> int:
        with self._lock:
            return self._live

    def set_producers(self, t: int) -> None:
        if not 1 <= t <= self.max_producers:
            raise ValueError(f"producers must be in [1, {self.max_producers}]")
        with self._lock:
            self._target = t
        self._spawn_up_to_target()

    def _peek_lookahead_locked(self) -> Optional[str]:
        """The claimable cross-epoch path, if any; caller holds ``_lock``.

        Same protocol as the simulated plane: stop (rather than skip) when
        the next scheduled path is still buffered or in flight for the live
        epoch — a second copy would overwrite the first, and the next
        epoch's read of it would wait forever — and respect buffer slack,
        counting in-flight reads against it.
        """
        if self._schedule is None or self.lookahead_epochs < 1:
            return None
        if self.buffer.level + len(self._in_flight) >= self.buffer.capacity:
            return None
        path = self._schedule.peek_ahead(self.lookahead_epochs)
        if path is None or path in self._in_flight or self.buffer.contains(path):
            return None
        return path

    def _lookahead_ready_locked(self) -> bool:
        return self._peek_lookahead_locked() is not None

    def _claim_lookahead_locked(self) -> Optional[str]:
        """Claim the next cross-epoch path (advances the fetch clock)."""
        path = self._peek_lookahead_locked()
        if path is None:
            return None
        assert self._schedule is not None
        self._schedule.mark_fetched(path)
        self._staged_ahead.add(path)
        self.lookahead_fetches += 1
        return path

    def _spawn_up_to_target(self) -> None:
        to_start: List[threading.Thread] = []
        with self._lock:
            while (
                self._live < self._target
                and (self._queue or self._lookahead_ready_locked())
                and not self._closed
            ):
                thread = threading.Thread(
                    target=self._producer_loop,
                    name=f"prisma-producer-{self._next_id}",
                    daemon=True,
                )
                self._next_id += 1
                self._live += 1
                self.buffer.register_producer()
                self._threads.append(thread)
                to_start.append(thread)
        for thread in to_start:
            thread.start()

    def _retire(self) -> None:
        self._live -= 1  # caller holds the lock
        self.buffer.deregister_producer()

    def _claim_locked(self) -> Optional[str]:
        """The next path for a producer, or ``None`` when it should retire."""
        if self._closed or self._live > self._target:
            return None
        if self._queue:
            path = self._queue.popleft()
            if self._schedule is not None:
                self._schedule.mark_fetched(path)
            return path
        return self._claim_lookahead_locked()

    def _producer_loop(self) -> None:
        # The exit decision and the live-count decrement happen in ONE
        # critical section: were they separate, two threads could both see
        # "live > target" after a shrink and both retire, leaving zero
        # producers and a consumer blocked forever.  The same section
        # settles the previous file, so each file costs one section.
        path: Optional[str] = None
        payload: object = None
        retired = False
        try:
            while True:
                with self._lock:
                    if path is not None:
                        self._in_flight.discard(path)
                        if not isinstance(payload, Exception):
                            self.bytes_fetched += len(payload)  # type: ignore[arg-type]
                            self.files_fetched += 1
                    path = self._claim_locked()
                    if path is None:
                        self._retire()
                        retired = True
                        return
                    self._in_flight.add(path)
                try:
                    payload = self._read_file(path)
                except Exception as exc:  # noqa: BLE001 - re-raised by the reader
                    with self._lock:
                        self.read_errors += 1
                    # Deliver the failure to the waiting consumer instead of
                    # leaving it blocked on a sample that will never arrive.
                    payload = exc
                self.buffer.insert(path, payload)  # type: ignore[arg-type]
        except BufferClosed:
            pass
        finally:
            # Whatever ends the loop, the thread stops counting as live and
            # as a running producer: an overcount would leave the pool a
            # thread short and staged consumers waiting on a batch.
            if not retired:
                with self._lock:
                    self._in_flight.discard(path)  # type: ignore[arg-type]
                    self._retire()

    @staticmethod
    def _read_file(path: str) -> bytes:
        with open(path, "rb", buffering=0) as fh:
            return fh.readall()

    # -- consumer side ------------------------------------------------------------
    def read(self, path: str, timeout: Optional[float] = None) -> bytes:
        """Serve one whole-file read.

        Covered paths come from the buffer (blocking until prefetched);
        uncovered paths (e.g. validation files) fall through to a direct
        read, exactly like the stage's fallback path in the simulation.
        """
        if self.covers(path):
            data = self.buffer.take(path, timeout=timeout)
            # The take evicted a sample, opening slack: resume cross-epoch
            # fetching if producers retired against a full buffer.
            if self.lookahead_epochs > 0:
                self._spawn_up_to_target()
            if isinstance(data, Exception):
                raise data  # a producer's read failure, delivered here
            return data
        return self._read_file(path)

    # -- control interface ----------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            bytes_fetched = self.bytes_fetched
            files_fetched = self.files_fetched
            read_errors = self.read_errors
            live = self._live
            remaining = len(self._queue)
            lookahead = self.lookahead_fetches
        requests, starved = self.buffer.demand()
        return MetricsSnapshot(
            time=time.monotonic(),
            requests=requests,
            hits=requests - starved,
            waits=starved,
            buffer_level=self.buffer.level,
            buffer_capacity=self.buffer.capacity,
            producers_allocated=live,
            producers_active=live,
            bytes_fetched=bytes_fetched,
            queue_remaining=remaining,
            files_fetched=files_fetched,
            read_errors=read_errors,
            lookahead_fetches=lookahead,
        )

    def apply_settings(self, settings: TuningSettings) -> None:
        if settings.producers is not None:
            self.set_producers(settings.producers)
        if settings.buffer_capacity is not None:
            self.buffer.set_capacity(settings.buffer_capacity)
        lookahead = settings.extra.get("lookahead_epochs")
        if lookahead is not None:
            with self._lock:
                self.lookahead_epochs = _validate_lookahead(lookahead)
            self._spawn_up_to_target()

    # The kernel's StagePort surface: same shape as the simulated
    # PrismaStage, so one ControlCycle drives either data plane.
    def control_snapshot(self) -> List[MetricsSnapshot]:
        return [self.snapshot()]

    def control_apply(self, settings: TuningSettings) -> None:
        self.apply_settings(settings)

    def control_features(self) -> dict:
        """Workload feature labels for control-plane telemetry (a copy)."""
        with self._lock:
            return dict(self.feature_labels)

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._queue.clear()
        self.buffer.close()
        for thread in list(self._threads):
            if thread.is_alive():
                thread.join(timeout=2.0)

    def __enter__(self) -> "LivePrefetcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
