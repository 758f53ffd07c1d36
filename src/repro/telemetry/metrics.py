"""The metrics registry: labelled counters, gauges, and histograms.

Every :class:`~repro.simcore.kernel.Simulator` owns one registry,
``sim.metrics``, and it is always on: each layer's
:class:`~repro.telemetry.instruments.CounterSet` keeps its counts in it,
and a :class:`~repro.telemetry.hub.Telemetry` hub attached to the
simulator reads the same registry as ``hub.registry``.  Instruments are
interned by ``(name, labels)``; instrumented code binds each one once
(at construction, or on first use) and then pays one attribute update
per observation, never a lookup by name.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can move both ways."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A distribution of observations (exact up to ``max_samples``).

    Keeps raw samples (bounded) plus running count/sum/min/max, so small
    runs get exact percentiles and unbounded runs keep O(1) memory once the
    sample cap is hit (later observations still update the running stats).
    """

    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum", "_samples", "max_samples")

    def __init__(self, name: str, labels: _LabelKey = (), max_samples: int = 100_000) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._samples: List[float] = []
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(int(q / 100.0 * len(ordered)), len(ordered) - 1)
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }


class MetricsRegistry:
    """Interned, labelled instruments with a single collection point."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, _LabelKey], object] = {}
        #: (layer, object name) -> how many objects have claimed the name
        self._claims: Dict[Tuple[str, str], int] = {}

    def _intern(self, kind: str, factory, name: str, labels: Dict[str, object]):
        key = (kind, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = factory(name, key[2])
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        return self._intern("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._intern("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._intern("histogram", Histogram, name, labels)

    def claim(self, layer: str, name: str) -> str:
        """A label for one more object of ``layer`` called ``name``.

        The first object gets ``name`` itself, later ones ``name#1``,
        ``name#2`` … in construction order, so two objects that share a
        name (every cache-less filesystem's ``pagecache``) keep separate
        counts, deterministically.
        """
        n = self._claims.get((layer, name), 0)
        label = name if n == 0 else f"{name}#{n}"
        while (layer, label) in self._claims:
            n += 1
            label = f"{name}#{n}"
        self._claims[(layer, name)] = n + 1
        if label != name:
            self._claims[(layer, label)] = 1
        return label

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def collect(self) -> List[Dict[str, object]]:
        """Deterministic flat dump of every instrument's current state."""
        rows: List[Dict[str, object]] = []
        for (kind, name, labels), inst in sorted(
            self._instruments.items(), key=lambda kv: kv[0]
        ):
            row: Dict[str, object] = {
                "kind": kind,
                "name": name,
                "labels": dict(labels),
            }
            if isinstance(inst, Histogram):
                row.update(inst.summary())
            else:
                row["value"] = inst.value  # type: ignore[attr-defined]
            rows.append(row)
        return rows
