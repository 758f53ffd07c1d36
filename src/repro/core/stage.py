"""The PRISMA data-plane stage (paper §III-A).

A stage is the framework-agnostic middleware unit that sits between a DL
framework and the storage backend.  Internally it has the paper's three
modules:

1. **optimization objects** — pluggable I/O logic
   (:class:`~repro.core.optimization.OptimizationObject`); requests are
   offered to each object in order, and fall through to the backend when
   none claims them;
2. a **POSIX-compliant interface** — the stage *is* a
   :class:`~repro.storage.posix.PosixLike`, so any framework that can open
   and read files through that surface runs over PRISMA unmodified;
3. a **control interface** — ``control_snapshot`` / ``control_apply``,
   called by the control plane over a
   :class:`~repro.core.control.rpc.ControlChannel`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..simcore.event import Event, chain_result
from ..telemetry import CounterSet
from ..storage.posix import PosixLike
from .optimization import MetricsSnapshot, OptimizationObject, TuningSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class PrismaStage(PosixLike):
    """A data-plane stage: optimization objects behind a POSIX facade."""

    def __init__(
        self,
        sim: "Simulator",
        backend: PosixLike,
        optimizations: Optional[List[OptimizationObject]] = None,
        name: str = "prisma.stage",
    ) -> None:
        super().__init__(sim)
        self.backend = backend
        self.name = name
        self.optimizations: List[OptimizationObject] = list(optimizations or [])
        self.counters = CounterSet(sim.metrics, "prefetch", name)
        #: workload feature labels (backend kind, batch size, lookahead …)
        #: merged into every ``control.decision`` instant so exported
        #: telemetry is self-describing performance-model training data;
        #: populated by :func:`~repro.core.build_prisma` and the framework
        #: integrations, extendable by callers
        self.feature_labels: Dict[str, object] = {}

    # -- epoch coordination ------------------------------------------------------
    def load_epoch(self, paths: Iterable[str]) -> None:
        """Hand the framework's shuffled filenames list to every object."""
        paths = list(paths)
        for opt in self.optimizations:
            opt.on_epoch(paths)

    # -- POSIX facade ------------------------------------------------------------
    def size(self, path: str) -> int:
        return self.backend.size(path)  # metadata is not intercepted

    def _serve_whole(self, path: str) -> Event:
        """Offer the read to optimization objects, else hit the backend.

        When traced, this is the root span of one consumer read: a fresh
        :class:`~repro.telemetry.TraceContext` is current while the request
        is routed, so every span the optimization objects open synchronously
        (serve, buffer hit/wait) inherits this request's ``trace_id``.
        """
        tel = self.sim.telemetry
        if tel is None:
            return self._route_whole(path)
        ctx = tel.new_context(path)
        root = tel.begin("stage.read", self.name, "stage", ctx=ctx, lane=True, path=path)
        with tel.with_context(ctx):
            event = self._route_whole(path)
        tel.end_on(root, event)
        return event

    def _route_whole(self, path: str) -> Event:
        for opt in self.optimizations:
            event = opt.serve(path)
            if event is not None:
                self.counters.optimized_reads.value += 1
                return event
        self.counters.add("fallback_reads")
        return self.backend.read_whole(path)

    def read_range(self, path: str, offset: int, length: int) -> Event:
        """Positional read — the call TensorFlow's integration replaces.

        Whole-file reads from offset 0 (the DL sample-load pattern) are
        routed through the optimization objects and clamped to ``length``;
        partial reads fall through to the backend untouched, preserving
        POSIX semantics for any other access pattern.
        """
        if offset == 0:
            self.counters.reads.value += 1
            done = Event(self.sim, name=f"{self.name}.pread")
            return chain_result(self._serve_whole(path), done, lambda nbytes: min(nbytes, length))
        self.counters.add("fallback_reads")
        return self.backend.read_range(path, offset, length)

    def read_whole(self, path: str) -> Event:
        self.counters.reads.value += 1
        if self.sim.telemetry is None:
            return self._route_whole(path)  # untraced: no root span to open
        return self._serve_whole(path)

    # -- control interface ----------------------------------------------------------
    def control_snapshot(self) -> List[MetricsSnapshot]:
        """Monitoring hook: one snapshot per optimization object."""
        return [opt.snapshot() for opt in self.optimizations]

    def control_apply(self, settings: TuningSettings) -> None:
        """Enforcement hook: push new knob values to every object."""
        for opt in self.optimizations:
            opt.apply_settings(settings)

    def control_features(self) -> Dict[str, object]:
        """Workload feature labels for control-plane telemetry (a copy)."""
        return dict(self.feature_labels)

    def __repr__(self) -> str:
        return f"<PrismaStage {self.name!r} optimizations={len(self.optimizations)}>"
