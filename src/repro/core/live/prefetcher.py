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
from typing import TYPE_CHECKING, Iterable, List, Optional

from ..filename_queue import PrefetchCore
from ..optimization import MetricsSnapshot, TuningSettings
from .buffer import BufferClosed, LiveBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedule import LookaheadSchedule


class LivePrefetcher(PrefetchCore):
    """Parallel file prefetcher over the local filesystem.

    The live driver of :class:`~repro.core.filename_queue.PrefetchCore`.
    Thread model: a dynamic pool of daemon producer threads; each loops
    {claim path, read file, insert into buffer}.  The control plane (or
    the user) retargets ``t`` via :meth:`set_producers` — surplus threads
    retire after their current file; deficit spawns fresh ones.

    ``_lock`` is held around every core call that reads or changes more
    than one field.  :meth:`set_producers` and :meth:`apply_settings`,
    from the core, store one field at a time, each an atomic write, before
    the spawn that takes the lock.
    """

    def __init__(
        self,
        producers: int = 2,
        buffer_capacity: int = 64,
        max_producers: int = 16,
        lookahead_epochs: int = 0,
        name: str = "live.prefetch",
    ) -> None:
        super().__init__(producers, max_producers, lookahead_epochs, name)
        self.buffer = LiveBuffer(buffer_capacity)
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._closed = False
        #: workload feature labels merged into control.decision telemetry
        #: (same contract as :attr:`~repro.core.stage.PrismaStage.
        #: feature_labels`); callers label backend kind / batch size so
        #: live telemetry harvests into the same training rows as sim
        self.feature_labels: dict = {"lookahead_epochs": self.lookahead_epochs}

    def install_schedule(self, schedule: "LookaheadSchedule") -> None:
        # A producer's section reads the schedule more than once.
        with self._lock:
            super().install_schedule(schedule)

    # -- epoch lifecycle ------------------------------------------------------------
    def load_epoch(self, paths: Iterable[str]) -> None:
        """Install the shuffled filenames list and (re)start producers."""
        paths = list(paths)
        with self._lock:
            if self._closed:
                raise RuntimeError("prefetcher is closed")
            self._load_epoch(paths)
        self._spawn_up_to_target()

    def covers(self, path: str) -> bool:
        with self._lock:
            return self.queue.covers(path)

    # -- producer management -----------------------------------------------------
    @property
    def live_producers(self) -> int:
        with self._lock:
            return self._live_producers

    def _spawn_up_to_target(self) -> None:
        threads: List[threading.Thread] = []
        with self._lock:
            if not self._closed:
                for worker_id in self._grow_producers():
                    self.buffer.register_producer()
                    threads.append(threading.Thread(
                        target=self._producer_loop,
                        args=(worker_id,),
                        name=f"prisma-producer-{worker_id}",
                        daemon=True,
                    ))
                self._threads.extend(threads)
        for thread in threads:
            thread.start()

    def _retire(self) -> None:
        self._live_producers -= 1  # caller holds the lock
        self.buffer.deregister_producer()

    def _producer_loop(self, worker_id: int) -> None:
        # The exit decision and the live-count decrement happen in ONE
        # critical section: were they separate, two threads could both see
        # "live > target" after a shrink and both retire, leaving zero
        # producers and a consumer blocked forever.  The same section
        # settles the previous file, so each file costs one section.
        path: Optional[str] = None
        nbytes: Optional[int] = None
        retired = False
        try:
            while True:
                with self._lock:
                    if path is not None:
                        self._settle(worker_id, nbytes)
                    path = None if self._closed else self._claim(worker_id)
                    if path is None:
                        self._retire()
                        retired = True
                        return
                try:
                    payload = self._read_file(path)
                    nbytes = len(payload)
                except Exception as exc:  # noqa: BLE001 - re-raised by the reader
                    with self._lock:
                        self.read_errors += 1
                    # Deliver the failure to the waiting consumer instead of
                    # leaving it blocked on a sample that will never arrive.
                    payload, nbytes = exc, None
                self.buffer.insert(path, payload)  # type: ignore[arg-type]
        except BufferClosed:
            pass
        finally:
            # Whatever ends the loop, the thread stops counting as live and
            # as a running producer: an overcount would leave the pool a
            # thread short and staged consumers waiting on a batch.
            if not retired:
                with self._lock:
                    self._in_flight.pop(worker_id, None)
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
            fields = self._snapshot_fields()
        requests, starved = self.buffer.demand()
        return MetricsSnapshot(
            time=time.monotonic(),
            requests=requests,
            hits=requests - starved,
            waits=starved,
            producers_active=fields["producers_allocated"],
            **fields,
        )

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
        self.buffer.close()
        for thread in list(self._threads):
            if thread.is_alive():
                thread.join(timeout=2.0)

    def __enter__(self) -> "LivePrefetcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
