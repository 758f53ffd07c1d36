"""Sim-clock instruments: time-weighted gauges and per-object counter views.

These are the simulation-aware primitives the data plane has always used
(previously homed in ``repro.simcore.tracing``): a
:class:`TimeWeightedGauge` integrates a piecewise-constant value over
simulated time — it directly produces the paper's Figure 3 CDF — and a
:class:`CounterSet` is one object's named view of its counters in a
:class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .metrics import Counter, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class TimeWeightedGauge:
    """A value that changes at discrete times; reports time-in-state stats.

    Used to track "number of producer threads actively reading" — the gauge's
    :meth:`histogram` gives seconds spent at each level, and
    :meth:`time_fraction_at_or_below` reconstructs the paper's Figure 3 CDF.
    """

    def __init__(self, sim: "Simulator", initial: float = 0.0, name: str = "gauge") -> None:
        self.sim = sim
        self.name = name
        self._value = float(initial)
        self._since = sim.now
        self._start = sim.now
        #: seconds accumulated at each observed value
        self._time_at: Dict[float, float] = {}

    @property
    def value(self) -> float:
        return self._value

    # set, increment and decrement run on every activity change of the
    # data plane, so each flushes the finished segment inline (the same
    # arithmetic as _flush) instead of chaining through set and _flush.
    def set(self, value: float) -> None:
        old = self._value
        if value == old:
            return
        now = self.sim.now
        duration = now - self._since
        if duration > 0:
            time_at = self._time_at
            time_at[old] = time_at.get(old, 0.0) + duration
        self._value = float(value)
        self._since = now

    def increment(self, delta: float = 1.0) -> None:
        old = self._value
        value = old + delta
        if value == old:
            return
        now = self.sim.now
        duration = now - self._since
        if duration > 0:
            time_at = self._time_at
            time_at[old] = time_at.get(old, 0.0) + duration
        self._value = float(value)
        self._since = now

    def decrement(self, delta: float = 1.0) -> None:
        old = self._value
        value = old - delta
        if value == old:
            return
        now = self.sim.now
        duration = now - self._since
        if duration > 0:
            time_at = self._time_at
            time_at[old] = time_at.get(old, 0.0) + duration
        self._value = float(value)
        self._since = now

    def _flush(self, now: float) -> None:
        duration = now - self._since
        if duration > 0:
            self._time_at[self._value] = self._time_at.get(self._value, 0.0) + duration

    def histogram(self) -> Dict[float, float]:
        """Seconds spent at each value, including the in-progress segment."""
        self._flush(self.sim.now)
        self._since = self.sim.now
        return dict(self._time_at)

    def total_time(self) -> float:
        return max(self.sim.now - self._start, 0.0)

    def time_fraction_at(self, value: float) -> float:
        hist = self.histogram()
        total = sum(hist.values())
        if total <= 0:
            return 0.0
        return hist.get(float(value), 0.0) / total

    def time_fraction_at_or_below(self, value: float) -> float:
        """CDF over time: fraction of elapsed time the gauge was <= value."""
        hist = self.histogram()
        total = sum(hist.values())
        if total <= 0:
            return 0.0
        return sum(t for v, t in hist.items() if v <= value) / total

    def mean(self) -> float:
        """Time-weighted mean value."""
        hist = self.histogram()
        total = sum(hist.values())
        if total <= 0:
            return self._value
        return sum(v * t for v, t in hist.items()) / total

    def max_seen(self) -> float:
        hist = self.histogram()
        candidates = list(hist) + [self._value]
        return max(candidates)

    def cdf_points(self) -> List[Tuple[float, float]]:
        """Sorted ``(value, cumulative time fraction)`` points."""
        hist = self.histogram()
        total = sum(hist.values())
        points: List[Tuple[float, float]] = []
        acc = 0.0
        for v in sorted(hist):
            acc += hist[v]
            points.append((v, acc / total if total > 0 else 0.0))
        return points


class CounterSet:
    """One object's counters, kept in a :class:`MetricsRegistry`.

    Key ``k`` of an object of ``layer`` is the registry counter
    ``<layer>.<k>_total`` labelled ``object=<name>``, bound on first use;
    the view stores no count of its own.  ``name`` is claimed from the
    registry, so a second object with the same layer and name counts under
    ``<name>#1`` (see :meth:`MetricsRegistry.claim`).  With no registry the
    view keeps a private one.

    A hot path counts without a call: ``counters.<k>`` is key ``k``'s
    registry :class:`Counter`, bound on first access exactly as :meth:`add`
    binds it and then kept as an attribute, so ``counters.reads.value += 1``
    is an inline increment.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        layer: str = "counters",
        name: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.layer = layer
        #: the ``object`` label of every counter in this view
        self.label = self.registry.claim(layer, name)
        self._bound: Dict[str, Counter] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        counter = self._bound.get(key)
        if counter is None:
            counter = self._bind(key)
        counter.value += amount

    def _bind(self, key: str) -> Counter:
        counter = self._bound[key] = self.registry.counter(
            f"{self.layer}.{key}_total", object=self.label
        )
        return counter

    def __getattr__(self, key: str) -> Counter:
        # Reached only while ``key`` is not yet an attribute.
        if key.startswith("_"):
            raise AttributeError(key)
        counter = self._bound.get(key) or self._bind(key)
        self.__dict__[key] = counter
        return counter

    def get(self, key: str) -> float:
        counter = self._bound.get(key)
        return 0.0 if counter is None else counter.value

    def as_dict(self) -> Dict[str, float]:
        return {key: counter.value for key, counter in self._bound.items()}

    def __getitem__(self, key: str) -> float:
        return self.get(key)
