"""Reference fair-share channel: the per-use arithmetic, kept for testing.

This is :class:`repro.storage.FairShareChannel` as it was before its hot
path was trimmed: ``B(k)`` called on every change of the active set, the
total weight and the completion horizon taken with generator expressions,
the finished set gathered before it is settled.  It exists for one
consumer, the differential property in ``tests/test_storage_fluid.py``,
which drives random schedules through both channels and requires the same
floats — completion times, event values, ``bytes_served`` and the
concurrency histogram — compared with ``==``.  Not part of the package.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, List, Optional

from repro.simcore.errors import SimulationError
from repro.simcore.event import Event, Timeout
from repro.telemetry import TimeWeightedGauge

_EPSILON = 1e-6


class _ActiveTransfer:
    __slots__ = ("ident", "remaining", "weight", "event", "started_at", "nbytes", "elapsed", "value")

    def __init__(self, ident, nbytes, weight, event, started_at, elapsed, value) -> None:
        self.ident = ident
        self.remaining = nbytes
        self.weight = weight
        self.event = event
        self.started_at = started_at
        self.nbytes = nbytes
        self.elapsed = elapsed
        self.value = value


class ReferenceFairShareChannel:
    """The channel's arithmetic, evaluated per use."""

    def __init__(
        self,
        sim,
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
        self._ids = itertools.count()
        self._active: Dict[int, _ActiveTransfer] = {}
        self._pending: List[_ActiveTransfer] = []
        self._last_update = sim.now
        self._rate = 0.0
        self._total_w = 0.0
        self._timer: Optional[Timeout] = None
        self.concurrency = TimeWeightedGauge(sim, 0, name=f"{name}.concurrency")
        self.bytes_served = 0.0
        self.transfers_completed = 0

    def transfer(
        self,
        nbytes: float,
        weight: float = 1.0,
        event: Optional[Event] = None,
        elapsed: float = 0.0,
        value: Any = None,
    ) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if event is None:
            event = Event(self.sim, name=f"xfer:{self.name}")
        if nbytes == 0:
            event.succeed(elapsed if value is None else value)
            return event
        entry = _ActiveTransfer(
            next(self._ids), float(nbytes), float(weight), event, self.sim.now, elapsed, value
        )
        self._advance()
        if len(self._active) < self.max_concurrency:
            self._admit(entry)
        else:
            self._pending.append(entry)
        self._reschedule()
        return event

    def set_capacity_fn(self, capacity_fn: Callable[[int], float]) -> None:
        self._advance()
        self.capacity_fn = capacity_fn
        self._active_changed()
        self._reschedule()

    def _active_changed(self) -> None:
        active = self._active
        self.concurrency.set(len(active))
        if active:
            self._rate = self.capacity_fn(len(active))
            self._total_w = sum(t.weight for t in active.values())
        else:
            self._rate = self._total_w = 0.0

    def _admit(self, entry: _ActiveTransfer) -> None:
        self._active[entry.ident] = entry
        self._active_changed()

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._active:
            return
        rate = self._rate
        total_w = self._total_w
        if total_w <= 0:
            return
        for entry in self._active.values():
            served = rate * (entry.weight / total_w) * dt
            entry.remaining = max(entry.remaining - served, 0.0)

    def _complete_finished(self) -> None:
        finished = [t for t in self._active.values() if t.remaining <= _EPSILON]
        for entry in finished:
            del self._active[entry.ident]
            self.bytes_served += entry.nbytes
            self.transfers_completed += 1
            value = entry.value
            if value is None:
                value = entry.elapsed + (self.sim.now - entry.started_at)
            entry.event.succeed(value)
        if finished:
            while self._pending and len(self._active) < self.max_concurrency:
                entry = self._pending.pop(0)
                self._active[entry.ident] = entry
            self._active_changed()

    def _reschedule(self) -> None:
        sim = self.sim
        if self._timer is not None:
            sim.cancel(self._timer)
            self._timer = None
        if not self._active:
            return
        rate = self._rate
        if rate <= 0:
            raise SimulationError(f"channel {self.name!r} has zero rate with active transfers")
        total_w = self._total_w
        horizon = min(
            t.remaining / (rate * t.weight / total_w) for t in self._active.values()
        )
        min_step = 4.0 * math.ulp(max(sim.now, 1e-9))
        self._timer = timer = sim.timeout(max(horizon, min_step))
        timer.add_callback(self._on_timer)

    def _on_timer(self, _ev: Event) -> None:
        self._advance()
        self._complete_finished()
        self._reschedule()
