"""The simulation kernel: event loop, processes, and the simulator facade.

The kernel implements cooperative, generator-based processes scheduled by a
*slot* scheduler.  Time is a float in *seconds* by convention of this
repository (storage latencies are microseconds = 1e-6).

Scheduler layout (the hot path of every benchmark in this repository):

* ``_now_queue`` — a FIFO of the events at the **current** timestamp.  All
  immediate scheduling (``succeed``/``fail`` via ``_enqueue_now``,
  zero-delay timers, process bootstraps, interrupt wake-ups) appends
  here directly and never touches the heap.
* ``_slots`` — ``time -> slot`` for strictly-future timestamps.  A slot
  is the lone event scheduled at that time, or, once a second event lands
  on the same time, a deque of them in scheduling order; the heap holds
  one entry per *distinct* timestamp instead of one per event.
* ``_times`` — a binary heap of the distinct future timestamps.

Besides Events, the queues hold three smaller entries, each with the
``_process()`` the loop calls: ``_Resume`` (a process bootstrap or
wake-up), ``_Deferred`` (an ``Event.succeed_after`` trigger) and
``_Call`` (a ``call_later`` timer that calls one function).

Determinism contract: events fire in ``(time, slot-FIFO)`` order — the
clock advances through timestamps in ascending order, and all events at
one timestamp fire in the order they were scheduled.  This is exactly the
ordering of the previous ``(time, sequence)`` heap (kept as a reference
implementation in :mod:`repro.simcore._heapkernel` for differential
testing), so whole experiments replay bit-identically across both.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional

from ..telemetry.metrics import MetricsRegistry
from .errors import (
    Interrupt,
    ProcessError,
    SchedulingError,
    StopSimulation,
    process_error,
)
from .event import _PENDING, AllOf, AnyOf, Event, Timeout

#: Type alias for process generator functions.
ProcessGenerator = Generator[Event, Any, Any]

_INF = float("inf")


class _Resume:
    """A queue entry that resumes a process directly — no Event needed.

    Process bootstraps and interrupt wake-ups used to allocate a full
    :class:`Event` (callbacks list, formatted name, triggered-state
    bookkeeping) whose only purpose was to call ``process._resume`` once.
    This replaces them with the smallest thing the scheduler can hold: an
    object whose ``_process`` resumes the generator with ``None``.
    """

    __slots__ = ("process",)

    def __init__(self, process: "Process") -> None:
        self.process = process

    def _process(self) -> None:
        self.process._resume(None)


class _Call:
    """A timed queue entry that calls ``fn(arg)`` — a timer with no Event.

    Most timers exist to run one callback: a channel's next completion, a
    device's submission latency, an RPC leg or deadline.  A
    :class:`Timeout` for each carries a callbacks list, a value and a
    trigger state that nothing reads; this entry carries the call alone.
    Build one with :meth:`Simulator.call_later`, which sets ``fn``,
    ``arg`` and ``_at`` (the timestamp it fires at, where
    :meth:`Simulator.cancel` finds it) itself: timers are the kernel's
    highest-volume entries.  ``fn`` is None once the entry fired or was
    cancelled.  :meth:`Simulator.run` and :meth:`Simulator.step` make the
    call themselves, as ``_process`` does, without a frame for it.
    """

    __slots__ = ("fn", "arg", "_at")

    def _process(self) -> None:
        fn = self.fn
        self.fn = None
        fn(self.arg)


class Process(Event):
    """A running process; it is also an event that triggers on termination.

    A process wraps a generator that yields :class:`Event` instances.  When a
    yielded event triggers, the process resumes with the event's value (or the
    event's exception thrown in).  When the generator returns, the process
    event succeeds with the return value; if it raises, the process fails.

    Waiting on a process (``yield other_process``) therefore joins it.
    """

    __slots__ = ("generator", "_waiting_on", "_interrupts", "_started")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: The event this process is currently suspended on (None if runnable).
        self._waiting_on: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        #: Interrupts may only be *delivered* once the generator has reached
        #: its first yield — throwing into an unstarted generator would
        #: raise at the def line, outside any try/except in the body.
        self._started = False
        sim._processes[self] = None
        # Bootstrap: resume the generator at time `now` via the immediate
        # queue — same FIFO position a bootstrap Event used to get.
        sim._now_queue.append(_Resume(self))

    @property
    def is_alive(self) -> bool:
        """True until the underlying generator has finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a dead process is an error.  Interrupting a process that
        is already scheduled to resume queues the interrupt to be delivered
        at that resumption.
        """
        if not self.is_alive:
            raise SchedulingError(f"cannot interrupt dead process {self.name!r}")
        self._interrupts.append(Interrupt(cause))
        target = self._waiting_on
        if target is not None:
            # Detach from the event we were waiting on, resume immediately.
            self._waiting_on = None
            callbacks = target.callbacks
            if callbacks is None:
                # The event is being processed (this is one of its
                # callbacks): its pending call of our _resume delivers the
                # interrupt, so a wake-up would resume us a second time.
                return
            try:
                callbacks.remove(self._resume)
            except ValueError:
                pass
            self.sim._now_queue.append(_Resume(self))

    # -- kernel internals ----------------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the outcome of ``event``."""
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        gen = self.generator
        interrupts = self._interrupts
        try:
            while True:
                if interrupts and self._started:
                    target = gen.throw(interrupts.pop(0))
                elif event is not None and event._exception is not None:
                    target = gen.throw(event._exception)
                else:
                    target = gen.send(event._value if event is not None else None)
                    self._started = True
                # The generator yielded `target`; decide whether to suspend.
                if not isinstance(target, Event):
                    raise TypeError(
                        f"process {self.name!r} yielded {target!r}; processes "
                        "must yield Event instances"
                    )
                if interrupts:
                    # An interrupt arrived before the process could suspend:
                    # deliver it at this yield point.
                    event = None
                    continue
                callbacks = target.callbacks
                if callbacks is None:
                    # Already-processed event: continue synchronously.
                    event = target
                    continue
                self._waiting_on = target
                callbacks.append(self._resume)
                return
        except StopIteration as stop:
            sim._processes.pop(self, None)
            self.succeed(stop.value)
        except StopSimulation:
            raise
        except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
            # Process died: propagate to joiners, or abort the run when nobody
            # is listening (silent failures hide bugs).
            sim._processes.pop(self, None)
            self._exception_terminate(exc)
        finally:
            sim._active_process = None

    def _exception_terminate(self, exc: BaseException) -> None:
        err = process_error(self.name, exc)
        had_joiners = bool(self.callbacks)
        self.fail(err)
        if not had_joiners:
            # No joiner will ever observe this failure — crash the simulation
            # so the bug surfaces instead of silently losing a process.
            self.sim._defunct.append(err)


class Simulator:
    """Discrete-event simulator facade.

    Typical use::

        sim = Simulator()

        def worker(sim, wid):
            yield sim.timeout(1.0)
            return wid * 2

        p = sim.process(worker(sim, 21))
        sim.run()
        assert p.value == 42
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        #: FIFO of events at the current timestamp (the active slot).
        self._now_queue: Deque[Any] = deque()
        #: Future timestamp -> its lone event, or a FIFO deque of its events
        #: in scheduling order once a second one lands on the same time.
        self._slots: Dict[float, Any] = {}
        #: Heap of the distinct future timestamps with a pending slot.
        self._times: List[float] = []
        self._active_process: Optional[Process] = None
        #: every process whose generator has not finished, in spawn order
        #: (a dict as an ordered set): what :meth:`close` closes
        self._processes: Dict[Process, None] = {}
        self._defunct: List[ProcessError] = []
        self._stopping = False
        #: Events processed since construction (``run`` + ``step``); the
        #: denominator of the BENCH_simcore events/sec metric.
        self.events_processed = 0
        #: observability hook — a :class:`repro.telemetry.Telemetry` hub, or
        #: None (the default: instrumented layers record no spans).  Set
        #: via ``Telemetry.attach(sim)``, never assigned directly.
        self.telemetry: Optional[Any] = None
        #: the always-on metrics of this run: every layer's counters
        self.metrics = MetricsRegistry()

    # -- scheduling primitives (kernel-internal) ------------------------------
    def _enqueue_at(self, time: float, event: Event) -> None:
        if event._scheduled:
            raise SchedulingError(f"{event!r} is already scheduled")
        if time <= self.now:
            if time < self.now:
                raise SchedulingError(
                    f"cannot schedule at t={time} before now={self.now}"
                )
            # Current-timestamp fast path: straight onto the active slot.
            event._scheduled = True
            self._now_queue.append(event)
            return
        event._scheduled = True
        slots = self._slots
        slot = slots.get(time)
        if slot is None:
            slots[time] = event
            heapq.heappush(self._times, time)
        elif slot.__class__ is deque:
            slot.append(event)
        else:
            slots[time] = deque((slot, event))

    def _enqueue_now(self, event: Event) -> None:
        """Schedule at the current time — the no-heap immediate path."""
        if event._scheduled:
            raise SchedulingError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._now_queue.append(event)

    # -- event factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` time units from now.

        The timer is slotted here rather than through :meth:`_enqueue_at`:
        timers are the kernel's highest-volume events, and a fresh one
        cannot be scheduled already.
        """
        timeout = Timeout(self, delay, value)
        timeout._scheduled = True
        at = timeout._at
        if at <= self.now:
            self._now_queue.append(timeout)
            return timeout
        slots = self._slots
        slot = slots.get(at)
        if slot is None:
            slots[at] = timeout
            heapq.heappush(self._times, at)
        elif slot.__class__ is deque:
            slot.append(timeout)
        else:
            slots[at] = deque((slot, timeout))
        return timeout

    def call_later(self, delay: float, fn: Callable[[Any], Any], arg: Any = None) -> _Call:
        """Call ``fn(arg)`` ``delay`` time units from now.

        The timer for a callback that nothing joins: it fires in the same
        ``(time, slot-FIFO)`` order as a :class:`Timeout` scheduled at the
        same point and costs one kernel event, but allocates no Event.  The
        entry it returns can be passed to :meth:`cancel`.  A timer that a
        process yields, or that a caller is handed to wait on, is a
        :meth:`timeout`.
        """
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay}")
        now = self.now
        entry = _Call()
        entry.fn = fn
        entry.arg = arg
        entry._at = at = now + float(delay)
        if at <= now:
            self._now_queue.append(entry)
            return entry
        slots = self._slots
        slot = slots.get(at)
        if slot is None:
            slots[at] = entry
            heapq.heappush(self._times, at)
        elif slot.__class__ is deque:
            slot.append(entry)
        else:
            slots[at] = deque((slot, entry))
        return entry

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator; returns its join-event."""
        return Process(self, generator, name=name)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> _Call:
        """Run ``fn(*args)`` at absolute simulated ``time`` (clamped to now).

        The scheduling primitive of the fault-injection subsystem: a
        :class:`~repro.faults.FaultPlan` is a list of absolute-time actions,
        and ``at`` turns each one into a kernel event without the caller
        writing a one-shot generator per action.  Returns the
        :meth:`call_later` entry, which :meth:`cancel` accepts.
        """
        delay = max(float(time) - self.now, 0.0)
        return self.call_later(delay, lambda _arg: fn(*args))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None outside process context)."""
        return self._active_process

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopping = True

    def close(self) -> None:
        """End the run: close every unfinished process, drop every pending entry.

        Every queued entry and every suspended process refers back to this
        simulator, so a finished run's whole stack stays in reference
        cycles until the cyclic collector happens to pass.  ``close``
        breaks them, so the stack is freed as soon as its last outside
        reference goes.  Each unfinished process's generator is closed in
        spawn order (``GeneratorExit`` at its current yield: its
        ``finally`` blocks run now, once) and forgets the event it waited
        on; then the current slot, the future slots and the timestamp heap
        are emptied.  Call it between runs, not from inside one.  Closing
        twice does nothing; :meth:`run` after ``close`` finds nothing to do
        and returns at once.
        """
        processes, self._processes = self._processes, {}
        for process in processes:
            process._waiting_on = None
            process.generator.close()
        self._now_queue.clear()
        self._slots.clear()
        self._times.clear()

    def cancel(self, timeout: "Timeout | _Call") -> None:
        """Withdraw a pending timer: it never fires, its callbacks never run.

        ``timeout`` is a :class:`Timeout` or a :meth:`call_later` entry.
        The timer is taken out of its slot, so it costs no kernel event and
        is freed at once.  Cancelling a timer that already fired (or is
        firing) or was already cancelled is a no-op.  Every other event
        fires in the same order as if the timer had stayed in place with
        callbacks that do nothing.
        """
        if timeout.__class__ is _Call:
            if timeout.fn is None:
                return
            timeout.fn = None
        elif not timeout._scheduled or timeout.callbacks is None:
            return
        else:
            timeout._scheduled = False
        at = timeout._at
        if at <= self.now:
            self._now_queue.remove(timeout)
            return
        slots = self._slots
        slot = slots[at]
        if slot is not timeout:
            slot.remove(timeout)
            if slot:
                return
        # The heap keeps ``at``; the loop skips a time without a slot.
        del slots[at]

    # -- event loop -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if the queue is empty."""
        if self._now_queue:
            return self.now
        times = self._times
        slots = self._slots
        while times:
            if times[0] in slots:
                return times[0]
            heapq.heappop(times)  # a slot emptied by cancel
        return _INF

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        q = self._now_queue
        if q:
            event = q.popleft()
        else:
            times = self._times
            event = None
            while event is None:  # None: a slot emptied by cancel
                if not times:
                    raise SchedulingError("step() on an empty event queue")
                t = heapq.heappop(times)
                event = self._slots.pop(t, None)
            self.now = t
            if event.__class__ is deque:
                self._now_queue = q = event
                event = q.popleft()
        if event.__class__ is _Call:
            fn = event.fn
            event.fn = None
            fn(event.arg)
        else:
            event._process()
        self.events_processed += 1
        if self._defunct:
            raise self._defunct.pop(0)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        ``until`` may be:

        * ``None`` — run until no events remain.
        * a float — run until simulated time reaches it (clock is advanced to
          exactly ``until`` even if no event lands there).
        * an :class:`Event` — run until it triggers; returns its value.

        One loop serves all three: it drains the current slot's FIFO, then
        advances the clock to the next slot, whose lone event (most future
        slots hold one) fires straight from the slot.  The stop time is
        tested only when the clock advances, and the stop event after each
        event (a local ``None`` test when there is none), so no stop
        condition costs a call per event.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        horizon = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = stop_time = float(until)
            if stop_time < self.now:
                raise SchedulingError(f"run(until={stop_time}) is in the past")

        self._stopping = False
        if stop_event is not None and stop_event.triggered:
            return stop_event.value
        times = self._times
        slots = self._slots
        defunct = self._defunct
        pop_time = heapq.heappop
        call_entry = _Call
        processed = 0
        try:
            while True:
                q = self._now_queue
                if q:
                    event = q.popleft()
                else:
                    if not times:
                        break
                    t = times[0]
                    if t > horizon:
                        self.now = horizon
                        return None
                    pop_time(times)
                    event = slots.pop(t, None)
                    if event is None:
                        continue  # a slot emptied by cancel
                    self.now = t
                    if event.__class__ is deque:
                        self._now_queue = q = event
                        event = q.popleft()
                    # else a lone event: it fires straight from its slot,
                    # ahead of whatever it schedules for now.
                if event.__class__ is call_entry:
                    # A timer entry's call, without its _process frame.
                    fn = event.fn
                    event.fn = None
                    fn(event.arg)
                else:
                    event._process()
                processed += 1
                if defunct:
                    raise defunct.pop(0)
                # An event has triggered once its value is no longer
                # pending (fail() sets it to None beside the error).
                if stop_event is not None and stop_event._value is not _PENDING:
                    return stop_event.value
                if self._stopping and (q or self.peek() < _INF):
                    return None
        except StopSimulation:
            return None
        finally:
            self.events_processed += processed
        if stop_event is not None:
            if stop_event.triggered:
                return stop_event.value
            raise SchedulingError(
                "run(until=event) exhausted the queue before the event fired"
            )
        if stop_time is not None:
            self.now = stop_time
        return None
