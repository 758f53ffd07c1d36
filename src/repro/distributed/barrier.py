"""Synchronization primitives for multi-node data-parallel training.

Synchronous SGD couples all nodes at every optimizer step: nobody starts
step *k+1* before the gradient all-reduce of step *k* completes.  The
:class:`StepBarrier` models that rendezvous — arrival events plus a
configurable collective-communication cost — and is the mechanism through
which one node's slow storage stalls the whole job (the paper's §II
"performance variation" motivation, at training-job scale).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..simcore.event import Event
from ..telemetry import CounterSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class StepBarrier:
    """An N-party barrier with a per-round completion cost.

    ``arrive(round)`` returns an event that triggers once all ``parties``
    have arrived for that round *and* ``round_cost`` simulated seconds have
    elapsed (the all-reduce).  Rounds may be arrived at out of lock-step by
    at most one round (standard pipelined-allreduce slack is not modelled —
    training here is strictly synchronous).
    """

    def __init__(self, sim: "Simulator", parties: int, round_cost: float = 0.0, name: str = "barrier") -> None:
        if parties < 1:
            raise ValueError("parties must be >= 1")
        if round_cost < 0:
            raise ValueError("round_cost must be non-negative")
        self.sim = sim
        self.parties = parties
        self.round_cost = round_cost
        self.name = name
        self._arrivals: Dict[int, int] = {}
        self._gates: Dict[int, Event] = {}
        self._highest_completed = -1
        self.counters = CounterSet(sim.metrics, "distributed", name)
        #: cumulative time parties spent blocked at the barrier
        self.total_wait = 0.0
        self._arrival_times: Dict[int, List[float]] = {}

    def arrive(self, round_index: int) -> Event:
        """Register this party's arrival; event fires when the round opens."""
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        if round_index <= self._highest_completed:
            raise ValueError(
                f"{self.name}: arrival for round {round_index}, which already "
                "completed — a party is out of step"
            )
        gate = self._gates.get(round_index)
        if gate is None:
            gate = Event(self.sim, name=f"{self.name}.r{round_index}")
            self._gates[round_index] = gate
        count = self._arrivals.get(round_index, 0) + 1
        self._arrivals[round_index] = count
        self._arrival_times.setdefault(round_index, []).append(self.sim.now)
        if count > self.parties:
            raise ValueError(
                f"{self.name}: round {round_index} got {count} arrivals for "
                f"{self.parties} parties"
            )
        if count == self.parties:
            self.counters.add("rounds")
            self._highest_completed = max(self._highest_completed, round_index)
            times = self._arrival_times.pop(round_index)
            last = max(times)
            self.total_wait += sum(last - t for t in times)

            def release():
                if self.round_cost > 0:
                    yield self.sim.timeout(self.round_cost)
                gate.succeed()
                # Allow long trainings without unbounded dictionaries.
                self._gates.pop(round_index, None)
                self._arrivals.pop(round_index, None)

            self.sim.process(release(), name=f"{self.name}.release{round_index}")
        return gate

    def mean_wait_per_round(self) -> float:
        rounds = self.counters.get("rounds")
        return self.total_wait / rounds if rounds > 0 else 0.0
