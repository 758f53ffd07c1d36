"""Reference kernel: the pre-slot-scheduler ``(time, sequence)`` heap.

This module preserves the previous generation of the event loop — one
global binary heap ordered by ``(time, sequence)``, a bootstrap
:class:`~repro.simcore.event.Event` per process, per-timeout formatted
names — exactly as it shipped before the slot scheduler landed in
:mod:`repro.simcore.kernel`, with one later bug fix shared by both kernels
(an interrupt from a callback of the event the process waits on resumes
it once, not twice).  It exists for two consumers:

* ``tests/test_simcore_scheduler.py`` — the determinism property suite
  runs randomized scenarios against both kernels and asserts identical
  event-firing order (the ``(time, slot-FIFO)`` contract equals the old
  ``(time, sequence)`` contract).
* the ``simcore`` row of ``benchmarks/gates.py`` — the events/sec gate
  measures the production kernel against this one on the same machine,
  so the ≥1.5× speedup floor is independent of runner hardware.

It shares :mod:`repro.simcore.event` and :mod:`repro.simcore.resources`
with the production kernel — only the scheduler and process-switch code
differ — and is **not** part of the public API.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from .errors import Interrupt, ProcessError, SchedulingError, StopSimulation
from .event import AllOf, AnyOf, Event, Timeout

ProcessGenerator = Generator[Event, Any, Any]


class HeapProcess(Event):
    """The previous process implementation: bootstrap via a full Event."""

    __slots__ = ("generator", "_waiting_on", "_interrupts", "_started")

    def __init__(
        self, sim: "HeapSimulator", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        self._started = False
        # Bootstrap: a dedicated Event carrying the first resume.
        boot = Event(sim, name=f"boot:{self.name}")
        boot.add_callback(self._resume)
        boot.succeed(None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        if not self.is_alive:
            raise SchedulingError(f"cannot interrupt dead process {self.name!r}")
        self._interrupts.append(Interrupt(cause))
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
            if target.callbacks is None:
                return  # being processed: its pending _resume call delivers it
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            wake = Event(self.sim, name=f"interrupt:{self.name}")
            wake.add_callback(self._resume)
            wake.succeed(None)

    def _resume(self, event: Optional[Event]) -> None:
        self._waiting_on = None
        self.sim._active_process = self
        try:
            while True:
                if self._interrupts and self._started:
                    exc: BaseException = self._interrupts.pop(0)
                    target = self.generator.throw(exc)
                elif event is not None and event._exception is not None:
                    target = self.generator.throw(event._exception)
                else:
                    target = self.generator.send(event._value if event is not None else None)
                    self._started = True
                if not isinstance(target, Event):
                    raise TypeError(
                        f"process {self.name!r} yielded {target!r}; processes "
                        "must yield Event instances"
                    )
                if self._interrupts:
                    event = None
                    continue
                if target.processed:
                    event = target
                    continue
                self._waiting_on = target
                target.add_callback(self._resume)
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except StopSimulation:
            raise
        except BaseException as exc:  # noqa: BLE001
            err = ProcessError(f"process {self.name!r} failed: {exc!r}")
            err.__cause__ = exc
            had_joiners = bool(self.callbacks)
            self.fail(err)
            if not had_joiners:
                self.sim._defunct.append(err)
        finally:
            self.sim._active_process = None


class HeapSimulator:
    """The previous simulator: one global ``(time, sequence, event)`` heap.

    API-compatible with :class:`repro.simcore.kernel.Simulator` for
    everything the differential tests and the benchmark workload touch.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[HeapProcess] = None
        self._defunct: List[ProcessError] = []
        self._stopping = False
        self.events_processed = 0
        self.telemetry: Optional[Any] = None

    # -- scheduling primitives -------------------------------------------------
    def _enqueue_at(self, time: float, event: Event) -> None:
        if time < self.now:
            raise SchedulingError(f"cannot schedule at t={time} before now={self.now}")
        if event._scheduled:
            raise SchedulingError(f"{event!r} is already scheduled")
        event._scheduled = True
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1

    def _enqueue_now(self, event: Event) -> None:
        self._enqueue_at(self.now, event)

    # -- event factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        t = Timeout(self, delay, value)
        # Replicate the old per-timeout formatted name (part of the
        # allocation cost the slot kernel removed).
        t.name = f"timeout({delay:g})"
        self._enqueue_at(t._at, t)
        return t

    def call_later(self, delay: float, fn: Callable[[Any], Any], arg: Any = None) -> Timeout:
        # The form the slot kernel's callback entry replaced: a Timeout
        # carrying the one callback.
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn(arg))
        return ev

    def process(self, generator: ProcessGenerator, name: str = "") -> HeapProcess:
        return HeapProcess(self, generator, name=name)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Timeout:
        delay = max(float(time) - self.now, 0.0)
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn(*args))
        return ev

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    @property
    def active_process(self) -> Optional[HeapProcess]:
        return self._active_process

    def stop(self) -> None:
        self._stopping = True

    # -- event loop -------------------------------------------------------------
    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        if not self._heap:
            raise SchedulingError("step() on an empty event queue")
        time, _, event = heapq.heappop(self._heap)
        self.now = time
        event._process()
        self.events_processed += 1
        if self._defunct:
            raise self._defunct.pop(0)

    def run(self, until: Optional[Any] = None) -> Any:
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise SchedulingError(f"run(until={stop_time}) is in the past")

        self._stopping = False
        try:
            while self._heap:
                if stop_event is not None and stop_event.triggered:
                    return stop_event.value
                if stop_time is not None and self.peek() > stop_time:
                    self.now = stop_time
                    return None
                if self._stopping:
                    return None
                self.step()
        except StopSimulation:
            return None
        if stop_event is not None:
            if stop_event.triggered:
                return stop_event.value
            raise SchedulingError(
                "run(until=event) exhausted the queue before the event fired"
            )
        if stop_time is not None:
            self.now = stop_time
        return None
