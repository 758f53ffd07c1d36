"""The telemetry hub: one sink for spans, events, counters, and metrics.

A :class:`Telemetry` hub is attached to a :class:`~repro.simcore.kernel.Simulator`
(``telemetry.attach(sim)``); every instrumented layer then reaches it through
the kernel's ``sim.telemetry`` hook.  When no hub is attached the hook is
``None`` and instrumented code pays a single attribute load per operation —
that is the whole disabled-mode cost.

Design points:

* **Sim-time stamps.**  Spans are stamped with the attached simulator's
  clock, so a trace of a simulated run is exactly reproducible under a
  fixed seed (the export layer is careful to add no wall-clock anywhere).
* **Lanes.**  Chrome-trace ``B``/``E`` pairs must nest properly within one
  thread lane.  Concurrent same-track spans (parallel device requests,
  overlapping consumer reads) therefore allocate the lowest free *lane* of
  their track (``storage.dev0/0``, ``storage.dev0/1`` …) — deterministic,
  and each lane's spans are sequential by construction.
* **Context threading.**  :meth:`with_context` installs a
  :class:`~repro.telemetry.spans.TraceContext` for the duration of a
  synchronous call chain; spans begun meanwhile inherit its ``trace_id``.
  The stage uses this to stamp one request's identity across the
  prefetcher and buffer (and storage, on fallback reads).
* **Multi-run traces.**  Re-attaching to a new simulator under a new
  ``process`` label groups subsequent spans under a fresh Chrome pid —
  the CLI uses this to put each trial of an experiment grid in its own
  process lane of a single artifact.
* **The simulator's registry.**  ``registry`` is the attached simulator's
  always-on ``sim.metrics`` (its counters run whether or not a hub is
  attached).  It stays readable after :meth:`detach`; a hub that spans
  several runs reports the last simulator it was attached to.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry
from .spans import PHASE_DURATION, PHASE_INSTANT, CounterSample, Span, TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.event import Event
    from ..simcore.kernel import Simulator


class Telemetry:
    """Span tracing + metrics registry for one (or several) simulated runs."""

    def __init__(self, name: str = "repro", max_events: Optional[int] = None) -> None:
        self.name = name
        #: the last attached simulator's ``sim.metrics`` (empty until then)
        self.registry = MetricsRegistry()
        self.events: List[Span] = []
        self.counter_samples: List[CounterSample] = []
        #: events not recorded because ``max_events`` was reached
        self.dropped = 0
        self.max_events = max_events
        self._sim: Optional["Simulator"] = None
        self._process = "main"
        self._processes: List[str] = []
        self._next_trace_id = 0
        self._next_seq = 0
        self._ctx_stack: List[TraceContext] = []
        #: busy lane track ("storage.dev0/1") -> the span that allocated it.
        #: A span nested on its parent's lane track does not own the lane,
        #: so ending it leaves the lane held (nested-safe B/E export).
        self._lane_owners: Dict[str, Span] = {}

    # -- lifecycle ----------------------------------------------------------------
    def attach(self, sim: "Simulator", process: Optional[str] = None) -> "Telemetry":
        """Install this hub as ``sim.telemetry``; later spans use its clock.

        ``process`` labels the run (one Chrome pid per distinct label);
        re-attaching to a fresh simulator starts a new process group while
        keeping every span already recorded.  ``registry`` becomes the
        simulator's ``sim.metrics``.
        """
        if self._sim is not None and self._sim is not sim:
            self.detach()
        self._sim = sim
        sim.telemetry = self
        self.registry = sim.metrics
        if process is not None:
            self._process = process
        if self._process not in self._processes:
            self._processes.append(self._process)
        return self

    def detach(self) -> None:
        """Disconnect from the current simulator (its hook returns to None).

        ``registry`` keeps the simulator's metrics for reading afterwards.
        """
        if self._sim is not None:
            self._sim.telemetry = None
            self._sim = None

    @property
    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    @property
    def process(self) -> str:
        return self._process

    def processes(self) -> List[str]:
        return list(self._processes)

    # -- trace contexts ---------------------------------------------------------
    def new_context(self, path: Optional[str] = None) -> TraceContext:
        ctx = TraceContext(self._next_trace_id, path)
        self._next_trace_id += 1
        return ctx

    @contextmanager
    def with_context(self, ctx: TraceContext) -> Iterator[TraceContext]:
        """Make ``ctx`` current for spans begun inside the block."""
        self._ctx_stack.append(ctx)
        try:
            yield ctx
        finally:
            self._ctx_stack.pop()

    @property
    def current_context(self) -> Optional[TraceContext]:
        return self._ctx_stack[-1] if self._ctx_stack else None

    # -- span recording -----------------------------------------------------------
    def _seq(self) -> int:
        self._next_seq += 1
        return self._next_seq

    def _record(self, span: Span) -> bool:
        span.seq = self._seq()
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return False
        self.events.append(span)
        return True

    def _free_lane(self, track: str) -> str:
        lane = 0
        while f"{track}/{lane}" in self._lane_owners:
            lane += 1
        return f"{track}/{lane}"

    def begin(
        self,
        name: str,
        track: str,
        cat: str = "misc",
        ctx: Optional[TraceContext] = None,
        lane: bool = False,
        **args: object,
    ) -> Span:
        """Open a span on ``track`` at the current sim time.

        ``lane=True`` requests a private sub-lane of the track so that
        concurrent spans export as properly nested B/E pairs; the lane is
        released by :meth:`end`.
        """
        if ctx is None:
            ctx = self.current_context
        span = Span(
            name=name,
            track=self._free_lane(track) if lane else track,
            category=cat,
            process=self._process,
            start=self.now,
            trace_id=None if ctx is None else ctx.trace_id,
            args=dict(args),
        )
        if lane:
            self._lane_owners[span.track] = span
        self._record(span)
        return span

    def end(self, span: Span, **args: object) -> Span:
        """Close ``span`` at the current sim time (idempotence not required)."""
        span.end = self.now
        span.end_seq = self._seq()
        if args:
            span.args.update(args)
        if self._lane_owners.get(span.track) is span:
            del self._lane_owners[span.track]
        return span

    def end_on(self, span: Span, event: "Event", **args: object) -> "Event":
        """Close ``span`` when ``event`` settles (annotated with its outcome)."""
        event.add_callback(lambda ev: self.end(span, ok=ev.ok, **args))
        return event

    @contextmanager
    def span(
        self,
        name: str,
        track: str,
        cat: str = "misc",
        ctx: Optional[TraceContext] = None,
        lane: bool = False,
        **args: object,
    ) -> Iterator[Span]:
        """Synchronous span: ``with tel.span("decide", "control", "control"): ...``"""
        s = self.begin(name, track, cat, ctx=ctx, lane=lane, **args)
        try:
            yield s
        finally:
            self.end(s)

    def instant(
        self,
        name: str,
        track: str,
        cat: str = "misc",
        ctx: Optional[TraceContext] = None,
        **args: object,
    ) -> Span:
        """A point event (cache hit, policy decision, fault fired …)."""
        if ctx is None:
            ctx = self.current_context
        now = self.now
        span = Span(
            name=name,
            track=track,
            category=cat,
            process=self._process,
            start=now,
            end=now,
            phase=PHASE_INSTANT,
            trace_id=None if ctx is None else ctx.trace_id,
            args=dict(args),
        )
        self._record(span)
        span.end_seq = span.seq  # instants have a single edge
        return span

    def sample(self, name: str, value: float) -> None:
        """Record one point of a numeric series (Chrome counter track)."""
        self.counter_samples.append(
            CounterSample(
                name=name,
                process=self._process,
                time=self.now,
                value=float(value),
                seq=self._seq(),
            )
        )

    # -- views -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def spans(self, category: Optional[str] = None) -> List[Span]:
        """Duration spans (optionally of one category), open ones included."""
        return [
            e
            for e in self.events
            if e.phase == PHASE_DURATION and (category is None or e.category == category)
        ]

    def instants(self, category: Optional[str] = None) -> List[Span]:
        return [
            e
            for e in self.events
            if e.phase == PHASE_INSTANT and (category is None or e.category == category)
        ]

    def categories(self) -> List[str]:
        seen: List[str] = []
        for e in self.events:
            if e.category not in seen:
                seen.append(e.category)
        return sorted(seen)

    def tracks(self) -> List[str]:
        seen: List[str] = []
        for e in self.events:
            if e.track not in seen:
                seen.append(e.track)
        return seen

    def clear(self) -> None:
        """Drop recorded events/samples (instrument registry is kept)."""
        self.events.clear()
        self.counter_samples.clear()
        self.dropped = 0
        self._lane_owners.clear()
