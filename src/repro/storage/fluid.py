"""Generalized processor-sharing fluid model for bandwidth resources.

Storage devices and network links are modelled as *fluid channels*: the set
of in-flight transfers shares an aggregate service rate that depends on the
concurrency level, ``B(k)``.  Each transfer ``i`` with weight ``w_i``
progresses at ``B(k) · w_i / Σw``.  This is the classic fluid approximation
of fair-queueing service and captures the two effects the paper's results
hinge on:

1. a single reader cannot saturate the device (``B(1) < B(k→∞)``), so
   parallel producer threads raise throughput;
2. returns diminish with concurrency, so a handful of threads reach the
   knee — PRISMA's auto-tuner stops at ~4 threads while TensorFlow's
   AUTOTUNE spends up to 30 for marginal gain (paper Fig. 3).

The implementation is event-driven and exact for piecewise-constant
concurrency: on every arrival/departure the remaining work of all transfers
is advanced and the next completion re-scheduled.  Cost is O(active) per
event, which is fine at the tens-of-streams scale of these experiments.

The arithmetic is a contract (DESIGN §4): each transfer advances by
``remaining - rate * (weight / total_w) * dt``, floored at 0 as
``max(x, 0.0)`` floors it, and the next completion is the first minimum
of ``remaining / (rate * weight / total_w)``, both in active-set order;
``total_w`` is ``sum`` over the active weights, and ``B(k)`` is memoised
per curve.  Every completion time is therefore the same float as the
straightforward per-use evaluation gives.  An arrival (``transfer``) and
the completion timer each run their whole step — advance, admit or
settle, recompute, re-arm — in one frame: they run once or twice per
storage read.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..simcore.errors import SimulationError
from ..simcore.event import Event
from ..telemetry import TimeWeightedGauge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator, _Call

#: Remaining-bytes tolerance below which a transfer counts as complete.
_EPSILON = 1e-6

_INF = float("inf")
#: The total weight is Python's own ``sum`` over the active weights (with no
#: Python frame per weight): a plain ``+=`` loop would round differently
#: from ``sum`` on 3.12, which compensates float sums.
_weight_of = attrgetter("weight")


def saturating_capacity(max_rate: float, kappa: float) -> Callable[[int], float]:
    """Aggregate-rate curve ``B(k) = max_rate · k / (k + kappa)``.

    ``kappa`` controls how many concurrent streams are needed to approach
    ``max_rate``: ``B(1) = max_rate/(1+kappa)``; ``B(kappa) = max_rate/2``.
    ``kappa = 0`` degenerates to a constant-rate (perfectly parallel) channel.
    """
    if max_rate <= 0:
        raise ValueError("max_rate must be positive")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")

    def capacity(k: int) -> float:
        if k <= 0:
            return 0.0
        return max_rate * k / (k + kappa)

    return capacity


def constant_capacity(rate: float) -> Callable[[int], float]:
    """A channel whose aggregate rate is independent of concurrency."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return lambda k: rate if k > 0 else 0.0


def _clamp(horizon: float, now: float) -> float:
    """A completion horizon, raised to 4 ULPs of the clock.

    A sub-ULP horizon (a byte-scale residual on a multi-GB/s channel)
    would re-arm at the *same* simulated instant forever; over-shooting is
    harmless, since the advance floors remaining at zero.  The clamp is at
    most 2**-50 of the clock (or of 1e-9), so the channel calls this only
    for a horizon below 1e-15 of it: any larger one is returned unchanged.
    """
    min_step = 4.0 * math.ulp(max(now, 1e-9))
    return min_step if min_step > horizon else horizon


class _ActiveTransfer:
    """Book-keeping for one in-flight transfer."""

    __slots__ = ("ident", "remaining", "weight", "event", "started_at", "nbytes", "elapsed", "value")

    def __init__(
        self,
        ident: int,
        nbytes: float,
        weight: float,
        event: Event,
        started_at: float,
        elapsed: float,
        value: Any,
    ) -> None:
        self.ident = ident
        self.remaining = nbytes
        self.weight = weight
        self.event = event
        self.started_at = started_at
        self.nbytes = nbytes
        #: seconds the caller spent before the transfer, added to its duration
        self.elapsed = elapsed
        #: what the event settles with; None means the service time
        self.value = value


class FairShareChannel:
    """A bandwidth resource shared by concurrent transfers.

    Parameters
    ----------
    sim:
        The simulator this channel lives in.
    capacity_fn:
        Maps the number of active transfers ``k`` to the aggregate service
        rate in bytes/second.  Must be non-decreasing in ``k``, and pure in
        ``k``: the channel calls it once per ``k`` per curve (swap curves
        with :meth:`set_capacity_fn`), and computes the total weight once
        per change of the active set.
    max_concurrency:
        Transfers beyond this limit queue FIFO (models a device queue-depth
        or server thread-pool cap).
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity_fn: Callable[[int], float],
        name: str = "channel",
        max_concurrency: float = math.inf,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity_fn = capacity_fn
        self.max_concurrency = max_concurrency
        self._event_name = f"xfer:{name}"
        self._ids = itertools.count()
        self._active: Dict[int, _ActiveTransfer] = {}
        self._pending: List[_ActiveTransfer] = []
        self._last_update = sim.now
        #: B(k) and the total weight of the current active set
        self._rate = 0.0
        self._total_w = 0.0
        #: k -> B(k) of the current curve
        self._rates: Dict[int, float] = {}
        #: the pending completion timer (cancelled when superseded)
        self._timer: Optional[_Call] = None
        #: observable concurrency gauge (drives utilization plots)
        self.concurrency = TimeWeightedGauge(sim, 0, name=f"{name}.concurrency")
        # lifetime counters
        self.bytes_served = 0.0
        self.transfers_completed = 0

    # -- public API -----------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        weight: float = 1.0,
        event: Optional[Event] = None,
        elapsed: float = 0.0,
        value: Any = None,
    ) -> Event:
        """Start moving ``nbytes``; the returned event triggers on completion.

        The event's value is ``elapsed`` plus the transfer duration (seconds
        spent from call to completion, including any queueing for a
        concurrency slot).  A caller that already handed out ``event`` and
        spent ``elapsed`` seconds before the transfer (a device's submission
        latency) has the channel settle that event with the whole service
        time, instead of forwarding a fresh one — or with ``value``, when
        given (a filesystem's byte count).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        sim = self.sim
        if event is None:
            event = Event(sim, name=self._event_name)
        if nbytes == 0:
            event.succeed(elapsed if value is None else value)
            return event
        now = sim.now
        entry = _ActiveTransfer(
            next(self._ids), float(nbytes), float(weight), event, now, elapsed, value
        )
        # Advance, admit, recompute and re-arm, as the timer does (DESIGN §4).
        active = self._active
        rate = self._rate
        total_w = self._total_w
        dt = now - self._last_update
        self._last_update = now
        if dt > 0 and total_w > 0:  # total_w is 0.0 exactly when none is active
            for other in active.values():
                remaining = other.remaining - rate * (other.weight / total_w) * dt
                other.remaining = 0.0 if remaining < 0.0 else remaining
        if len(active) < self.max_concurrency:
            active[entry.ident] = entry
            k = len(active)
            self.concurrency.set(k)
            rate = self._rates.get(k)
            if rate is None:
                rate = self._rates[k] = self.capacity_fn(k)
            self._rate = rate
            self._total_w = total_w = sum(map(_weight_of, active.values()))
        else:
            self._pending.append(entry)
        if self._timer is not None:
            sim.cancel(self._timer)
        if rate <= 0:
            raise SimulationError(f"channel {self.name!r} has zero rate with active transfers")
        horizon = _INF
        for other in active.values():
            until_done = other.remaining / (rate * other.weight / total_w)
            if until_done < horizon:
                horizon = until_done
        if horizon < 1e-15 * (now if now > 1e-9 else 1e-9):
            horizon = _clamp(horizon, now)
        self._timer = sim.call_later(horizon, self._on_timer)
        return event

    def set_capacity_fn(self, capacity_fn: Callable[[int], float]) -> None:
        """Swap the rate curve at run time (degradation/contention events).

        In-flight transfers are advanced under the old curve up to *now*,
        then continue under the new one — modelling a device slowdown, a
        neighbour stealing bandwidth, or a failed-over network path.
        """
        self.capacity_fn = capacity_fn
        self._rates.clear()
        self._on_timer(True)

    @property
    def active_count(self) -> int:
        return len(self._active)

    # -- internals --------------------------------------------------------------
    def _on_timer(self, recurve: Optional[bool]) -> None:
        """Advance every transfer to now, settle the finished ones, admit
        queued ones, recompute ``B(k)`` and the total weight, and re-arm.

        The timer calls it with None.  :meth:`set_capacity_fn` calls it
        with ``recurve`` set: it settles nothing, recomputes under the new
        curve, and re-arms in place of the pending timer, which would fire
        into an outdated schedule and do nothing.
        """
        sim = self.sim
        now = sim.now
        if recurve and self._timer is not None:
            sim.cancel(self._timer)
        self._timer = None  # fired, or cancelled: nothing left to cancel
        active = self._active
        rate = self._rate
        total_w = self._total_w
        dt = now - self._last_update
        self._last_update = now
        if dt > 0 and total_w > 0:
            for entry in active.values():
                remaining = entry.remaining - rate * (entry.weight / total_w) * dt
                entry.remaining = 0.0 if remaining < 0.0 else remaining
        changed = recurve
        if not changed:
            finished = [entry for entry in active.values() if entry.remaining <= _EPSILON]
            if finished:
                changed = True
                for entry in finished:
                    del active[entry.ident]
                    self.bytes_served += entry.nbytes
                    self.transfers_completed += 1
                    value = entry.value
                    if value is None:
                        value = entry.elapsed + (now - entry.started_at)
                    entry.event.succeed(value)
                pending = self._pending
                while pending and len(active) < self.max_concurrency:
                    entry = pending.pop(0)
                    active[entry.ident] = entry
        if changed:
            k = len(active)
            self.concurrency.set(k)
            if not active:
                self._rate = self._total_w = 0.0
                return
            rate = self._rates.get(k)
            if rate is None:
                rate = self._rates[k] = self.capacity_fn(k)
            self._rate = rate
            self._total_w = total_w = sum(map(_weight_of, active.values()))
        elif not active:
            return
        if rate <= 0:
            raise SimulationError(f"channel {self.name!r} has zero rate with active transfers")
        horizon = _INF
        for entry in active.values():
            until_done = entry.remaining / (rate * entry.weight / total_w)
            if until_done < horizon:
                horizon = until_done
        if horizon < 1e-15 * (now if now > 1e-9 else 1e-9):
            horizon = _clamp(horizon, now)
        self._timer = sim.call_later(horizon, self._on_timer)

    def __repr__(self) -> str:
        return (
            f"<FairShareChannel {self.name!r} active={len(self._active)} "
            f"queued={len(self._pending)}>"
        )
