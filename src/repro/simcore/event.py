"""Events: the unit of coordination in the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes may wait on by
``yield``-ing it.  Events carry a *value* (delivered to every waiter) or an
exception (re-raised in every waiter).  They are deliberately minimal — all
higher-level synchronization (timeouts, stores, locks, process joins) is built
from this single primitive, mirroring the architecture of SimPy while staying
dependency-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from .errors import EventAlreadyTriggered, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence with a value or an exception.

    Lifecycle::

        e = Event(sim)        # pending
        e.succeed(value)      # triggered OK   -> waiters resume with value
        e.fail(exc)           # triggered FAIL -> waiters get exc re-raised

    Once triggered an event is immutable; triggering twice raises
    :class:`EventAlreadyTriggered`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_scheduled", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self.name = name

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (not failed)."""
        exception = self._exception
        if exception is None and self._value is _PENDING:
            raise ValueError(f"{self!r} has not been triggered")
        return exception is None

    @property
    def value(self) -> Any:
        """The success value, or raise the failure exception."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise ValueError(f"{self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully with ``value`` and enqueue for processing."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        # Enqueue first: an event already scheduled (by succeed_after) is
        # rejected before it is marked triggered.
        self.sim._enqueue_now(self)
        self._value = value
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger with an exception; waiters will have it re-raised."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.sim._enqueue_now(self)
        self._exception = exception
        self._value = None
        return self

    def succeed_after(self, delay: float, value: Any = None) -> "Event":
        """Trigger successfully with ``value`` at ``now + delay``.

        The deferred form of :meth:`succeed` for an event already handed to
        its waiters: like a :class:`Timeout`, the event triggers only when
        the clock reaches it, and it fires in that timestamp's FIFO order —
        one kernel event, where a timeout relaying into ``succeed`` costs
        two.  Triggering or scheduling the event twice is an error, as
        with :meth:`succeed`.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if self._scheduled:
            raise SchedulingError(f"{self!r} is already scheduled")
        self._scheduled = True
        sim = self.sim
        sim._enqueue_at(sim.now + delay, _Deferred(self, value))
        return self

    # -- waiting ------------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately —
        this keeps late joiners correct.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        """Run callbacks (kernel-internal)."""
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now:.6g}>"


def chain_result(
    inner: Event, done: Event, transform: Optional[Callable[[Any], Any]] = None
) -> Event:
    """Forward ``inner``'s outcome to ``done`` when it settles.

    The canonical glue between an internal event and a caller-facing one:
    success forwards the value (optionally mapped through ``transform``),
    failure forwards the exception.  Returns ``done`` so call sites can
    build and forward in one expression.
    """

    def _settle(ev: Event) -> None:
        if ev.ok:
            done.succeed(ev.value if transform is None else transform(ev.value))
        else:
            done.fail(ev.exception)

    inner.add_callback(_settle)
    return done


class Timeout(Event):
    """An event that triggers automatically after ``delay`` sim-time units.

    The timeout only *triggers* (becomes observable via :attr:`triggered`)
    when the clock reaches it — not at construction — so condition events
    like :class:`AnyOf` see an accurate picture of which waits completed.
    Build one with ``sim.timeout(delay)``: the constructor only sets the
    fields, and the kernel slots the timer at ``_at``.
    """

    __slots__ = ("delay", "_pending_value", "_at")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay: {delay}")
        # The fields are set here rather than through Event.__init__:
        # timeouts are the kernel's highest-volume allocation.  No
        # formatted per-instance name either; __repr__ renders the delay.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self.name = ""
        self.delay = delay = float(delay)
        self._pending_value = value
        #: the timestamp this timeout fires at (where ``cancel`` finds it)
        self._at = sim.now + delay

    def _process(self) -> None:
        self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<Timeout({self.delay:g}) {state} at t={self.sim.now:.6g}>"


class _Deferred:
    """The queue entry behind :meth:`Event.succeed_after`.

    When it fires, it sets the event's value and runs the event's
    callbacks in place, so the event itself never waits in the queue.
    """

    __slots__ = ("event", "value", "_scheduled")

    def __init__(self, event: Event, value: Any) -> None:
        self.event = event
        self.value = value
        self._scheduled = False

    def _process(self) -> None:
        event = self.event
        event._value = self.value
        event._process()


class AnyOf(Event):
    """Triggers as soon as *any* of the given events triggers.

    Value is a dict mapping the events that have triggered so far to their
    values (like SimPy's condition value).
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            self._value = {}
            sim._enqueue_now(self)
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # propagate first failure
        else:
            self.succeed({e: e._value for e in self.events if e.triggered and e.ok})
        # Fired: a child still pending (a deadline, say) would hold this
        # event, and its simulator, in a cycle through the callback.
        callback = self._on_child
        for e in self.events:
            callbacks = e.callbacks
            if callbacks and callback in callbacks:
                callbacks.remove(callback)


class AllOf(Event):
    """Triggers once *all* of the given events have triggered.

    Value is a dict of event -> value for every child.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self._value = {}
            sim._enqueue_now(self)
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e._value for e in self.events})
