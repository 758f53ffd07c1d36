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
live plane; this module drives them with simulation callbacks.  Each
producer is a :class:`_Producer`, a callback chain — claim, read, insert,
settle, repeat — that starts from a zero-delay kernel entry and appends
its next step to the event it waits on: the positions at which a
generator process would bootstrap and resume, without the process.

Fault tolerance (the graceful-degradation half of the data plane):

* **Producer supervision.**  :meth:`ParallelPrefetcher.crash_producer`
  kills a producer where it waits, in the kernel hops an interrupted
  process takes: a wake-up entry in which the victim dies (its fetch span
  closes as ``crashed``), then the supervisor's entry, which counts the
  crash, *requeues* the victim's claimed but unstaged path at the front
  of the FIFO — without recovery the consumer waiting on it would hang
  forever — and starts a replacement while work remains
  (``producer_respawns`` counts these).  A crash at insert loses
  nothing: the buffer already owns the queued insert.  A producer
  crashed before it started still claims its path and issues the read
  before it dies, as an interrupt delivered at a process's first wait
  would.
* **Serve-side retry.**  A staged :class:`TransientReadError` (the
  retryable storage error class) is not surfaced to the consumer
  immediately: the serve path re-reads the file directly from the backend,
  up to ``max_read_retries`` times, waiting 1 ms before the first re-read
  and doubling (``serve_retries`` counts attempts).  The waits come from
  the control channel's schedule, a
  :class:`~repro.core.control.retry.RetryPolicy`, here with no cap and no
  budget.  Fatal errors — wrong path, bad descriptor — still fail the
  serve event at once.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from ..simcore.errors import ProcessError
from ..simcore.event import Event
from ..telemetry import TimeWeightedGauge
from ..storage.filesystem import TransientReadError
from .buffer import HIT_OVERHEAD, MEMORY_BANDWIDTH, PrefetchBuffer
from .control.retry import RetryPolicy
from .filename_queue import PrefetchCore
from .optimization import MetricsSnapshot, OptimizationObject
from .schedule import LookaheadSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.backend import SampleSource
    from ..telemetry import Span, Telemetry


def _storage_error(exc: BaseException) -> Exception:
    """Unwrap the kernel's ProcessError shroud to the real storage error.

    A backend read that fails inside its own process reaches the producer
    as ``ProcessError(__cause__=<original>)``; classification (transient
    vs fatal) and the staged-error payload must see the original.
    """
    cause = exc.__cause__ if isinstance(exc, ProcessError) else exc
    return cause if isinstance(cause, Exception) else ProcessError(repr(exc))


class _Producer:
    """One producer thread as a callback chain: claim, read, insert, settle.

    :meth:`step` claims a path and issues its read, :meth:`landed` stages
    the outcome, :meth:`inserted` loops back to :meth:`step` once the
    buffer admits it, and a producer with nothing to claim retires.  Each
    step is appended to the event it waits on, ``waiting``, where a
    generator process appended its resume, and the first one runs from a
    zero-delay entry, where the process bootstrap sat; so every event
    fires at the time and FIFO position it did with producer processes.
    While the producer holds a claim (``worker_id in _in_flight``) it
    waits on its read, else on its insert.
    """

    __slots__ = ("pf", "worker_id", "path", "tel", "fetch", "waiting", "crashed")

    def __init__(self, pf: "ParallelPrefetcher", worker_id: int) -> None:
        self.pf = pf
        self.worker_id = worker_id
        self.path = ""
        self.tel: Optional["Telemetry"] = None
        self.fetch: Optional["Span"] = None
        #: the event the next step waits on (None until the first read)
        self.waiting: Optional[Event] = None
        #: a crash is on its way: the producer dies at its next wait
        self.crashed = False

    def step(self, _arg: None = None) -> None:
        """Claim the next path and read it, or retire."""
        pf = self.pf
        worker_id = self.worker_id
        path = pf._claim(worker_id)
        if path is None:
            self._exit()  # parked, or drained; respawned on the next on_epoch()
            return
        pf.active_producers.increment()
        self.path = path
        tel = self.tel = pf.sim.telemetry
        if tel is not None:
            self.fetch = tel.begin(
                "prefetch.fetch", f"{pf.name}.p{worker_id}", "prefetcher", path=path
            )
        try:
            read = pf.backend.read_whole(path)
        except Exception as exc:  # noqa: BLE001 - refused at once: staged all the same
            self.landed(None, exc)
            return
        if self.crashed:
            self._die(True)  # crashed before it started: it dies at this first wait
            return
        callbacks = read.callbacks
        if callbacks is None:  # already processed: continue at once
            self.landed(read)
        else:
            self.waiting = read
            callbacks.append(self.landed)

    def landed(self, read: Optional[Event], exc: Optional[Exception] = None) -> None:
        """Stage the read's bytes, or its error, then await the insert.

        ``exc`` is the error of a read that failed as it was issued, with
        no event to wait on.
        """
        pf = self.pf
        fetch = self.fetch
        if read is not None:
            exc = read.exception
            if exc is None:
                payload = nbytes = read.value
        if exc is not None:
            # A failed read must reach the consumer waiting for this path
            # (or it would block forever); stage the exception — the
            # buffer's documented staged-error contract.
            pf.read_errors += 1
            payload, nbytes = _storage_error(exc), None
            if fetch is not None:
                self.tel.end(fetch, outcome="error", error=type(payload).__name__)
        pf.active_producers.decrement()
        if fetch is not None and nbytes is not None:
            self.tel.end(fetch, outcome="ok", bytes=nbytes)
        insert = pf.buffer.insert(self.path, payload)
        # Commit point: the buffer owns the (queued) insert from here, so
        # a crash past this line loses nothing.
        pf._settle(self.worker_id, nbytes)
        if self.crashed:
            self._die(False)  # its first wait, after a read that failed at once
            return
        callbacks = insert.callbacks
        if callbacks is None:
            self.inserted(insert)
        else:
            self.waiting = insert
            callbacks.append(self.inserted)

    def inserted(self, insert: Event) -> None:
        if insert.ok:
            self.step()
        else:
            self._die(False)  # a refused insert kills the producer, as it did a process

    # -- crashes ------------------------------------------------------------------
    def interrupt(self) -> None:
        """Kill the producer where it waits, one kernel entry from now."""
        if self.crashed:
            return  # a crash is pending already: this one finds it dead
        self.crashed = True
        waiting = self.waiting
        if waiting is None or waiting.callbacks is None:
            return  # not started, or its next step runs now: it dies at its next wait
        reading = self.worker_id in self.pf._in_flight
        waiting.callbacks.remove(self.landed if reading else self.inserted)
        self.pf.sim.call_later(0, self._die, reading)

    def _die(self, reading: bool) -> None:
        """Die on the read (``reading``) or the insert it waits on; the
        supervisor reaps the producer one kernel entry later."""
        pf = self.pf
        if reading:
            if self.fetch is not None:
                self.tel.end(self.fetch, outcome="crashed")
            pf.active_producers.decrement()
        self._exit()
        pf.sim.call_later(0, pf._reap_crashed, self.worker_id)

    def _exit(self) -> None:
        """Leave the live producers, retired or dead."""
        pf = self.pf
        del pf._producers[self.worker_id]
        pf._live_producers -= 1
        pf.allocated_producers.set(pf._live_producers)


class ParallelPrefetcher(PrefetchCore, OptimizationObject):
    """Parallel read-ahead into a bounded in-memory buffer.

    The simulated driver of :class:`~repro.core.filename_queue.PrefetchCore`:
    producers are callback chains (:class:`_Producer`), supervised for
    crashes, and the serve path retries staged transient errors.

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
        (0 disables retry and surfaces the staged error directly).  The
        first waits 1 ms, and each wait doubles.
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
        lookahead_epochs: int = 0,
        name: str = "prisma.prefetch",
    ) -> None:
        OptimizationObject.__init__(self, sim, backend, name)
        PrefetchCore.__init__(self, producers, max_producers, lookahead_epochs, name)
        if max_read_retries < 0:
            raise ValueError("max_read_retries must be >= 0")
        self.buffer = self._new_buffer(buffer_capacity)
        self._serve_name = f"{name}.serve"
        #: request-to-delivery time of each traced serve
        self._serve_latency = sim.metrics.histogram(
            "prisma.serve_latency_seconds", object=name
        )
        self.max_read_retries = max_read_retries
        #: the serve-side re-read schedule: 1 ms, doubling, no cap, no budget
        self._read_retry = RetryPolicy(
            max_read_retries + 1, base_delay=1e-3, max_delay=math.inf, budget=math.inf
        )
        #: live producers by worker id, for crash injection
        self._producers: Dict[int, _Producer] = {}
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
        sim = self.sim
        for worker_id in self._grow_producers():
            producer = self._producers[worker_id] = _Producer(self, worker_id)
            sim.call_later(0, producer.step)
        self.allocated_producers.set(self._live_producers)

    # -- fault injection / supervision ------------------------------------------------
    def crash_producer(self, cause: object = "fault-injection") -> bool:
        """Kill one live producer thread (lowest worker id, for determinism).

        Returns whether a producer was actually crashed.  The victim dies
        where it waits, in a kernel entry of its own (one not started yet
        dies at its first wait), and counts as live until then, so a
        second crash in between finds it again and is lost.  The
        supervisor then requeues its in-flight path and respawns a
        replacement.  ``cause`` labels the crash for the caller; nothing
        records it.
        """
        if not self._producers:
            return False
        self._producers[min(self._producers)].interrupt()
        return True

    def _reap_crashed(self, worker_id: int) -> None:
        """Supervisor: count a crash, requeue its claim, replace it."""
        self.producer_crashes += 1
        self._release(worker_id)
        if self._wants_producer():
            self.producer_respawns += 1
            self._spawn_up_to_target()

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

            done.callbacks.append(record_serve)

        def after_fetch(ev: Event) -> None:
            try:
                nbytes = ev.value
            except Exception as exc:  # noqa: BLE001 - the serve fails with it
                done.fail(exc)
                return
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

        # Both events were made in this call, so neither has fired yet.
        fetched.callbacks.append(after_fetch)
        if self.schedule is not None and self.lookahead_epochs > 0:
            # Each serve evicts a sample, opening buffer slack: resume
            # cross-epoch fetching if producers parked on a full buffer.
            done.callbacks.append(lambda _ev: self._spawn_up_to_target())
        return done

    def _retry_read(self, path: str, exc: Exception, done: Event):
        """Re-read ``path`` from the backend on the serve-retry schedule.

        Degraded-mode data path: the buffered copy was a staged transient
        failure, so the sample is fetched directly (no re-staging — the
        consumer is already waiting on ``done``).
        """
        start = self.sim.now
        for failed in itertools.count(1):
            backoff = self._read_retry.next_backoff(failed, self.sim.now - start)
            if backoff is None:
                break
            self.serve_retries += 1
            yield self.sim.timeout(backoff)
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
