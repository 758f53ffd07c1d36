"""``repro.telemetry`` — the unified observability layer.

One subsystem owns every measurement the simulator produces:

* **Metrics** (:class:`MetricsRegistry`, :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) — labelled instruments.  Every simulator owns one
  always-on registry, ``sim.metrics``; each layer's counters live there.
* **Spans** (:class:`Telemetry`, :class:`Span`, :class:`TraceContext`) —
  begin/end intervals and instant events on named tracks, stamped with
  sim-time, threaded across layers by trace contexts.  Opt-in: a hub
  attached to a simulator records them and reads its registry.
* **Sim-clock instruments** (:class:`TimeWeightedGauge`,
  :class:`CounterSet`, a per-object view over the registry) and
  **recorders** (:class:`LatencyRecorder`).
* **Exporters** (:func:`write_chrome_trace`, :func:`write_jsonl`,
  :func:`write_csv`, :func:`write_metrics_json`) — Chrome/Perfetto trace
  JSON plus flat rows, all byte-deterministic under a fixed simulation
  seed.

Typical use::

    from repro.simcore import Simulator
    from repro.telemetry import Telemetry, write_chrome_trace

    sim = Simulator()
    tel = Telemetry().attach(sim, process="tf-prisma")
    ...  # build + run; every layer reports through sim.telemetry
    write_chrome_trace(tel, "trace.json")
    sim.metrics.collect()  # every layer's counters, traced or not

The pre-telemetry homes (``repro.simcore.tracing``, ``repro.metrics``'s
recorder names, ``repro.core.control.MetricsSnapshot``) are gone; import
from here.
"""

from .export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_csv,
    write_jsonl,
    write_metrics_json,
)
from .hub import Telemetry
from .instruments import CounterSet, TimeWeightedGauge
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorders import LatencyRecorder, LatencySummary
from .snapshot import MetricsSnapshot
from .spans import PHASE_DURATION, PHASE_INSTANT, CounterSample, Span, TraceContext
from .tracer import Tracer, TraceRecord

__all__ = [
    # hub + span model
    "Telemetry",
    "Span",
    "TraceContext",
    "CounterSample",
    "PHASE_DURATION",
    "PHASE_INSTANT",
    # metrics registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    # sim-clock instruments
    "TimeWeightedGauge",
    "CounterSet",
    # recorders
    "LatencyRecorder",
    "LatencySummary",
    "MetricsSnapshot",
    # row tracer
    "Tracer",
    "TraceRecord",
    # exporters
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
    "write_metrics_json",
]
