"""PRISMA's parallel data-prefetching optimization object (paper §IV).

Up to ``t`` *producer* threads concurrently dequeue filenames from the FIFO
queue, read the files from backend storage, and stage them in the in-memory
:class:`~repro.core.buffer.PrefetchBuffer` (at most ``N`` samples).
Consumers — the DL framework's reader threads or worker processes — are
served from the buffer; a served sample is evicted.

Both knobs are live: the control plane raises/lowers ``t`` (producers park
or spawn between files) and ``N`` (buffer capacity retargets without
eviction).  The number of *consumers* is deliberately unknown to the
prefetcher ("its number is oblivious to PRISMA").

Clairvoyant lookahead (ROADMAP item 1): when a
:class:`~repro.core.schedule.LookaheadSchedule` is installed, producers keep
fetching **across the epoch boundary** once the current epoch's FIFO drains
— while the buffer has slack, they claim the next epoch's prefix from the
schedule and stage it early.  ``on_epoch`` then loads the filenames list
with those paths marked *prestaged*, so the new epoch starts with warm
buffer hits instead of a cold ramp.  The ``lookahead_epochs`` knob (also a
``TuningSettings.extra`` key) bounds how far ahead producers may run;
0 disables lookahead entirely.

Fault tolerance (the graceful-degradation half of the data plane):

* **Producer supervision.**  Every producer process is joined by a
  supervisor callback.  A producer that dies abnormally (e.g. a
  fault-injected crash) has its in-flight path *requeued* — the path was
  dequeued but never staged, so without recovery the consumer waiting on
  it would hang forever — and a replacement producer is spawned while work
  remains (``producer_respawns`` counts these).
* **Serve-side retry.**  A staged :class:`TransientReadError` (the
  retryable storage error class) is not surfaced to the consumer
  immediately: the serve path re-reads the file directly from the backend
  with exponential backoff, up to ``max_read_retries`` attempts
  (``serve_retries`` counts attempts).  Fatal errors — wrong path, bad
  descriptor — still fail the serve event at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set

from ..simcore.errors import Interrupt, ProcessError
from ..simcore.event import Event
from ..telemetry import TimeWeightedGauge
from ..storage.filesystem import TransientReadError
from .buffer import HIT_OVERHEAD, MEMORY_BANDWIDTH, PrefetchBuffer
from .filename_queue import FilenameQueue
from .optimization import MetricsSnapshot, OptimizationObject, TuningSettings
from .schedule import LookaheadSchedule


def _validate_lookahead(value: object) -> int:
    """Normalize the ``lookahead_epochs`` knob (int >= 0, bool rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"lookahead_epochs must be an int, got {value!r}")
    if value < 0:
        raise ValueError("lookahead_epochs must be >= 0")
    return value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Process, Simulator
    from ..storage.backend import SampleSource


def _storage_error(exc: BaseException) -> Exception:
    """Unwrap the kernel's ProcessError shroud to the real storage error.

    A backend read that fails inside its own process reaches the producer
    as ``ProcessError(__cause__=<original>)``; classification (transient
    vs fatal) and the staged-error payload must see the original.
    """
    cause = exc.__cause__ if isinstance(exc, ProcessError) else exc
    return cause if isinstance(cause, Exception) else ProcessError(repr(exc))


class ParallelPrefetcher(OptimizationObject):
    """Parallel read-ahead into a bounded in-memory buffer.

    Parameters
    ----------
    producers:
        Initial *t* — concurrent backend readers.
    buffer_capacity:
        Initial *N* — maximum staged samples.
    max_producers:
        Hard ceiling the control plane may never exceed.
    max_read_retries:
        Serve-side retry attempts for staged *transient* read errors
        (0 disables retry and surfaces the staged error directly).
    retry_backoff:
        First retry delay in seconds; doubles per attempt.
    lookahead_epochs:
        How many epochs past the live one producers may fetch ahead when a
        :class:`~repro.core.schedule.LookaheadSchedule` is installed
        (0 disables cross-epoch lookahead).
    """

    def __init__(
        self,
        sim: "Simulator",
        backend: "SampleSource",
        producers: int = 2,
        buffer_capacity: int = 256,
        max_producers: int = 16,
        max_read_retries: int = 2,
        retry_backoff: float = 1e-3,
        lookahead_epochs: int = 0,
        name: str = "prisma.prefetch",
    ) -> None:
        super().__init__(sim, backend, name)
        if producers < 1:
            raise ValueError("producers must be >= 1")
        if max_producers < producers:
            raise ValueError("max_producers must be >= producers")
        if max_read_retries < 0:
            raise ValueError("max_read_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.buffer = PrefetchBuffer(sim, buffer_capacity, name=f"{name}.buffer")
        self.queue = FilenameQueue(name=f"{name}.queue")
        self._serve_name = f"{name}.serve"
        self.max_producers = max_producers
        self.max_read_retries = max_read_retries
        self.retry_backoff = retry_backoff
        self._target_producers = producers
        self._live_producers = 0
        self._next_worker_id = 0
        #: live producer processes, for supervision and crash injection
        self._procs: Dict[int, "Process"] = {}
        #: path each producer has dequeued but not yet staged
        self._in_flight: Dict[int, str] = {}
        #: producers currently blocked in a backend read (paper Fig. 3 input)
        self.active_producers = TimeWeightedGauge(sim, 0, name=f"{name}.active")
        #: producers alive (reading, inserting, or between files)
        self.allocated_producers = TimeWeightedGauge(sim, 0, name=f"{name}.allocated")
        self.bytes_fetched = 0.0
        self.files_fetched = 0
        self.read_errors = 0
        self.producer_crashes = 0
        self.producer_respawns = 0
        self.serve_retries = 0
        self.lookahead_epochs = _validate_lookahead(lookahead_epochs)
        #: the clairvoyant oracle (None = reactive per-epoch FIFO only)
        self.schedule: Optional[LookaheadSchedule] = None
        #: next-epoch paths fetched early, pending their epoch's load()
        self._staged_ahead: Set[str] = set()
        self.lookahead_fetches = 0

    def install_schedule(self, schedule: LookaheadSchedule) -> None:
        """Install the clairvoyant oracle, propagating it down the stack.

        A backend that is itself schedule-aware (e.g.
        :class:`~repro.core.tiering.ClairvoyantTieringObject`) receives the
        same schedule, so prefetcher and tier hierarchy plan against one
        shared fetch clock.
        """
        self.schedule = schedule
        propagate = getattr(self.backend, "install_schedule", None)
        if propagate is not None:
            propagate(schedule)

    # -- knobs -----------------------------------------------------------------
    @property
    def target_producers(self) -> int:
        return self._target_producers

    def set_producers(self, t: int) -> None:
        """Retarget *t*; excess producers park after their current file."""
        if not 1 <= t <= self.max_producers:
            raise ValueError(f"producers must be in [1, {self.max_producers}]")
        self._target_producers = t
        self._spawn_up_to_target()

    def apply_settings(self, settings: TuningSettings) -> None:
        if settings.producers is not None:
            self.set_producers(settings.producers)
        if settings.buffer_capacity is not None:
            self.buffer.set_capacity(settings.buffer_capacity)
        lookahead = settings.extra.get("lookahead_epochs")
        if lookahead is not None:
            self.lookahead_epochs = _validate_lookahead(lookahead)
            self._spawn_up_to_target()

    # -- epoch lifecycle ------------------------------------------------------------
    def on_epoch(self, paths: Iterable[str]) -> None:
        """Install the shared shuffled filenames list and start prefetching."""
        paths = list(paths)
        if self.schedule is not None:
            if self.schedule.epochs_started >= self.schedule.n_epochs:
                # Horizon exhausted: degrade gracefully to reactive mode
                # rather than failing the run.
                self.schedule = None
            else:
                self.schedule.start_epoch(paths)
        # Paths fetched across the epoch boundary are already staged: keep
        # them covered but out of the FIFO, or they would be fetched twice.
        prestaged = [p for p in paths if p in self._staged_ahead]
        self.queue.load(paths, prestaged=prestaged)
        self._staged_ahead.difference_update(prestaged)
        # New epoch: every path becomes requestable again (the buffer's
        # duplicate-request detection tracks consumption per epoch).
        self.buffer.begin_epoch()
        self._spawn_up_to_target()

    # -- clairvoyant lookahead ---------------------------------------------------
    def _lookahead_ready(self) -> bool:
        """Whether a producer could claim a cross-epoch fetch right now."""
        return self._peek_lookahead() is not None

    def _peek_lookahead(self) -> Optional[str]:
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
        # flight for the *current* epoch.  Skipping would desync the fetch
        # clock; stopping keeps the claimed prefix contiguous, and the
        # serve-path respawn hook retries once the conflict clears.
        if self.buffer.contains(path) or path in self._in_flight.values():
            return None
        return path

    def _claim_lookahead(self) -> Optional[str]:
        """Atomically claim the next cross-epoch path for one producer."""
        path = self._peek_lookahead()
        if path is None:
            return None
        assert self.schedule is not None
        self.schedule.mark_fetched(path)  # claim = advance the fetch clock
        self._staged_ahead.add(path)
        self.lookahead_fetches += 1
        return path

    def _spawn_up_to_target(self) -> None:
        while self._live_producers < self._target_producers and (
            self.queue.remaining > 0 or self._lookahead_ready()
        ):
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            self._live_producers += 1
            self.allocated_producers.set(self._live_producers)
            proc = self.sim.process(
                self._producer(worker_id), name=f"{self.name}.p{worker_id}"
            )
            self._procs[worker_id] = proc
            proc.add_callback(
                lambda p, wid=worker_id: self._on_producer_exit(wid, p)
            )

    # -- fault injection / supervision ------------------------------------------------
    def crash_producer(self, cause: object = "fault-injection") -> bool:
        """Kill one live producer thread (lowest worker id, for determinism).

        Returns whether a producer was actually crashed.  The supervisor
        requeues the victim's in-flight path and respawns a replacement.
        """
        for worker_id in sorted(self._procs):
            proc = self._procs[worker_id]
            if proc.is_alive:
                proc.interrupt(cause)
                return True
        return False

    def _on_producer_exit(self, worker_id: int, proc: Event) -> None:
        """Supervisor: reap a finished producer; recover from crashes."""
        self._procs.pop(worker_id, None)
        if proc.ok:
            return  # normal exit: parked or epoch drained
        self.producer_crashes += 1
        path = self._in_flight.pop(worker_id, None)
        if path is not None:
            if path in self._staged_ahead:
                # A crashed *lookahead* fetch is not requeued into the live
                # epoch (the next load() may arrive while it would still be
                # pending); releasing the claim re-enqueues it normally in
                # its own epoch — its clock position stays claimed, and the
                # late refetch's mark is a no-op by design.
                self._staged_ahead.discard(path)
            else:
                # Dequeued but never staged: put it back or its consumer hangs.
                self.queue.requeue(path)
        if self._live_producers < self._target_producers and (
            self.queue.remaining > 0 or self._lookahead_ready()
        ):
            self.producer_respawns += 1
            self._spawn_up_to_target()

    def _producer(self, worker_id: int):
        """One producer thread: dequeue, read, stage, repeat."""
        try:
            while True:
                # Park when the control plane shrank t below our rank.
                if self._live_producers > self._target_producers:
                    return
                path = self.queue.next()
                if path is not None:
                    if self.schedule is not None:
                        # Dequeues happen in schedule order, so this is the
                        # normal clock advance; crash-requeued refetches
                        # match nothing and leave the clock alone.
                        self.schedule.mark_fetched(path)
                else:
                    path = self._claim_lookahead()
                    if path is None:
                        return  # epoch drained; respawned on next on_epoch()
                self._in_flight[worker_id] = path
                self.active_producers.increment()
                tel = self.sim.telemetry
                fetch = None
                if tel is not None:
                    fetch = tel.begin(
                        "prefetch.fetch", f"{self.name}.p{worker_id}", "prefetcher", path=path
                    )
                try:
                    payload = yield self.backend.read_whole(path)
                except Interrupt:
                    # Crash injection: die without staging; the supervisor
                    # requeues the in-flight path and respawns.
                    if fetch is not None:
                        tel.end(fetch, outcome="crashed")
                    raise
                except Exception as exc:  # noqa: BLE001 - deliver, don't die
                    # A failed read must reach the consumer waiting for this
                    # path (or it would block forever); stage the exception —
                    # the buffer's documented staged-error contract.
                    self.read_errors += 1
                    payload = _storage_error(exc)
                    if fetch is not None:
                        tel.end(fetch, outcome="error", error=type(payload).__name__)
                        tel.registry.counter(
                            "prisma.fetch_errors_total", object=self.name
                        ).inc()
                finally:
                    self.active_producers.decrement()
                if not isinstance(payload, Exception):
                    self.bytes_fetched += payload
                    self.files_fetched += 1
                    if fetch is not None:
                        tel.end(fetch, outcome="ok", bytes=payload)
                insert = self.buffer.insert(path, payload)
                # Commit point: the buffer owns the (queued) insert from
                # here, so a crash past this line loses nothing.
                self._in_flight.pop(worker_id, None)
                yield insert
        finally:
            self._live_producers -= 1
            self.allocated_producers.set(self._live_producers)

    # -- data path --------------------------------------------------------------
    def serve(self, path: str) -> Optional[Event]:
        """Serve a read from the buffer, or decline for uncovered paths.

        The returned event fails (rather than blocking forever) when the
        buffer rejects the request as a duplicate — a second consumer asking
        for an in-flight or already-evicted path — and when a producer
        staged a backend read failure for this path.  *Transient* staged
        errors are first retried directly against the backend.
        """
        if not self.queue.covers(path):
            return None  # e.g. validation files: fall through to backend
        tel = self.sim.telemetry
        serve_span = None
        if tel is not None:
            serve_span = tel.begin(
                "prefetch.serve", f"{self.name}.serve", "prefetcher", lane=True, path=path
            )
        hit, fetched = self.buffer.request(path)
        done = Event(self.sim, name=self._serve_name)
        if tel is not None:
            serve_span.args["hit"] = hit
            hist = tel.registry.histogram("prisma.serve_latency_seconds", object=self.name)
            start = self.sim.now

            def record_serve(ev: Event) -> None:
                tel.end(serve_span, ok=ev.ok)
                hist.observe(self.sim.now - start)

            done.add_callback(record_serve)

        def after_fetch(ev: Event) -> None:
            if not ev.ok:
                done.fail(ev.exception)
                return
            nbytes = ev.value
            if isinstance(nbytes, Exception):
                # A producer staged its read failure for this path.
                if self.max_read_retries > 0 and isinstance(nbytes, TransientReadError):
                    self.sim.process(
                        self._retry_read(path, nbytes, done),
                        name=f"{self.name}.retry",
                    )
                else:
                    done.fail(nbytes)
                return

            # The copy-out: ``done`` itself fires when it ends.
            done.succeed_after(HIT_OVERHEAD + nbytes / MEMORY_BANDWIDTH, nbytes)

        fetched.add_callback(after_fetch)
        if self.schedule is not None and self.lookahead_epochs > 0:
            # Each serve evicts a sample, opening buffer slack: resume
            # cross-epoch fetching if producers parked on a full buffer.
            done.add_callback(lambda _ev: self._spawn_up_to_target())
        return done

    def _retry_read(self, path: str, first_exc: Exception, done: Event):
        """Re-read ``path`` from the backend with exponential backoff.

        Degraded-mode data path: the buffered copy was a staged transient
        failure, so the sample is fetched directly (no re-staging — the
        consumer is already waiting on ``done``).
        """
        delay = self.retry_backoff
        exc = first_exc
        for _ in range(self.max_read_retries):
            self.serve_retries += 1
            if delay > 0:
                yield self.sim.timeout(delay)
            delay *= 2
            try:
                nbytes = yield self.backend.read_whole(path)
            except Exception as retry_exc:  # noqa: BLE001 - classified below
                exc = _storage_error(retry_exc)
                if not isinstance(exc, TransientReadError):
                    break  # fatal: no point burning further attempts
                continue
            self.bytes_fetched += nbytes
            self.files_fetched += 1
            done.succeed(nbytes)
            return
        done.fail(exc)

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
            files_fetched=self.files_fetched,
            read_errors=self.read_errors,
            producer_respawns=self.producer_respawns,
            serve_retries=self.serve_retries,
            lookahead_fetches=self.lookahead_fetches,
        )
