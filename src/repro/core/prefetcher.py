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

The queue, the producer counts and the clairvoyant cross-epoch lookahead
are :class:`~repro.core.filename_queue.PrefetchCore`'s, shared with the
live plane; this module drives them with simulation processes.

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

from typing import TYPE_CHECKING, Dict, Iterable, Optional

from ..simcore.errors import Interrupt, ProcessError
from ..simcore.event import Event
from ..telemetry import TimeWeightedGauge
from ..storage.filesystem import TransientReadError
from .buffer import HIT_OVERHEAD, MEMORY_BANDWIDTH, PrefetchBuffer
from .filename_queue import PrefetchCore
from .optimization import MetricsSnapshot, OptimizationObject
from .schedule import LookaheadSchedule

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


class ParallelPrefetcher(PrefetchCore, OptimizationObject):
    """Parallel read-ahead into a bounded in-memory buffer.

    The simulated driver of :class:`~repro.core.filename_queue.PrefetchCore`:
    producers are kernel processes, supervised for crashes, and the serve
    path retries staged transient errors.

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
        OptimizationObject.__init__(self, sim, backend, name)
        PrefetchCore.__init__(self, producers, max_producers, lookahead_epochs, name)
        if max_read_retries < 0:
            raise ValueError("max_read_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.buffer = self._new_buffer(buffer_capacity)
        self._serve_name = f"{name}.serve"
        #: request-to-delivery time of each traced serve
        self._serve_latency = sim.metrics.histogram(
            "prisma.serve_latency_seconds", object=name
        )
        self.max_read_retries = max_read_retries
        self.retry_backoff = retry_backoff
        #: live producer processes, for supervision and crash injection
        self._procs: Dict[int, "Process"] = {}
        #: producers currently blocked in a backend read (paper Fig. 3 input)
        self.active_producers = TimeWeightedGauge(sim, 0, name=f"{name}.active")
        #: producers alive (reading, inserting, or between files)
        self.allocated_producers = TimeWeightedGauge(sim, 0, name=f"{name}.allocated")
        self.producer_crashes = 0
        self.producer_respawns = 0
        self.serve_retries = 0

    def _new_buffer(self, capacity: int) -> PrefetchBuffer:
        return PrefetchBuffer(self.sim, capacity, name=f"{self.name}.buffer")

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

    def on_epoch(self, paths: Iterable[str]) -> None:
        """Install the shared shuffled filenames list and start prefetching."""
        self._load_epoch(paths)
        # New epoch: every path becomes requestable again (the buffer's
        # duplicate-request detection tracks consumption per epoch).
        self.buffer.begin_epoch()
        self._spawn_up_to_target()

    def _spawn_up_to_target(self) -> None:
        for worker_id in self._grow_producers():
            proc = self.sim.process(
                self._producer(worker_id), name=f"{self.name}.p{worker_id}"
            )
            self._procs[worker_id] = proc
            proc.add_callback(lambda p, wid=worker_id: self._on_producer_exit(wid, p))
        self.allocated_producers.set(self._live_producers)

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
        self._release(worker_id)
        if self._wants_producer():
            self.producer_respawns += 1
            self._spawn_up_to_target()

    def _producer(self, worker_id: int):
        """One producer thread: claim, read, stage, settle, repeat."""
        try:
            while True:
                path = self._claim(worker_id)
                if path is None:
                    return  # parked, or drained; respawned on next on_epoch()
                self.active_producers.increment()
                tel = self.sim.telemetry
                fetch = None
                if tel is not None:
                    fetch = tel.begin(
                        "prefetch.fetch", f"{self.name}.p{worker_id}", "prefetcher", path=path
                    )
                try:
                    payload = nbytes = yield self.backend.read_whole(path)
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
                    payload, nbytes = _storage_error(exc), None
                    if fetch is not None:
                        tel.end(fetch, outcome="error", error=type(payload).__name__)
                finally:
                    self.active_producers.decrement()
                if fetch is not None and nbytes is not None:
                    tel.end(fetch, outcome="ok", bytes=nbytes)
                insert = self.buffer.insert(path, payload)
                # Commit point: the buffer owns the (queued) insert from
                # here, so a crash past this line loses nothing.
                self._settle(worker_id, nbytes)
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
            start = self.sim.now

            def record_serve(ev: Event) -> None:
                tel.end(serve_span, ok=ev.ok)
                self._serve_latency.observe(self.sim.now - start)

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
            producers_active=self.active_producers.value,
            producer_respawns=self.producer_respawns,
            serve_retries=self.serve_retries,
            **self._snapshot_fields(),
        )
