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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..simcore.event import Event, chain_result
from ..telemetry import CounterSet
from ..storage.posix import BadFileDescriptor, PosixLike
from .optimization import MetricsSnapshot, OptimizationObject, TuningSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


@dataclass
class _StageOpenFile:
    path: str
    offset: int = 0


class PrismaStage(PosixLike):
    """A data-plane stage: optimization objects behind a POSIX facade."""

    def __init__(
        self,
        sim: "Simulator",
        backend: PosixLike,
        optimizations: Optional[List[OptimizationObject]] = None,
        name: str = "prisma.stage",
        latency_recorder=None,
    ) -> None:
        self.sim = sim
        self.backend = backend
        self.name = name
        self._read_name = f"{name}.read"
        self._pread_name = f"{name}.pread"
        self._bpread_name = f"{name}.bpread"
        self.optimizations: List[OptimizationObject] = list(optimizations or [])
        self._next_fd = 1000  # distinct range from the backend's table
        self._open: Dict[int, _StageOpenFile] = {}
        self.counters = CounterSet(sim.metrics, "prefetch", name)
        #: optional :class:`~repro.telemetry.LatencyRecorder` fed
        #: with per-request service times (the monitoring plane's "I/O rate"
        #: metrics, at distribution granularity)
        self.latency_recorder = latency_recorder
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
    def open(self, path: str) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._open[fd] = _StageOpenFile(path)
        return fd

    def _entry(self, fd: int) -> _StageOpenFile:
        try:
            return self._open[fd]
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def close(self, fd: int) -> None:
        self._entry(fd)
        del self._open[fd]

    def fstat_size(self, fd: int) -> int:
        # Metadata is not intercepted; ask the backend.
        path = self._entry(fd).path
        bfd = self.backend.open(path)
        try:
            return self.backend.fstat_size(bfd)
        finally:
            self.backend.close(bfd)

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
                break
        else:
            self.counters.add("fallback_reads")
            event = self.backend.read_whole(path)
        if self.latency_recorder is not None:
            self._timed(event)
        return event

    def _timed(self, event: Event) -> None:
        """Feed the request's service time to the latency recorder."""
        start = self.sim.now
        event.add_callback(
            lambda ev: self.latency_recorder.record(self.sim.now, self.sim.now - start)
            if ev.ok
            else None
        )

    def pread(self, fd: int, length: int, offset: int) -> Event:
        """Positional read — the call TensorFlow's integration replaces.

        Whole-file reads from offset 0 (the DL sample-load pattern) are
        routed through the optimization objects; partial reads fall through
        to the backend untouched, preserving POSIX semantics for any other
        access pattern.
        """
        entry = self._entry(fd)
        if offset == 0:
            return self._clamped_whole(entry.path, length)
        return self._backend_pread(entry.path, length, offset)

    def read(self, fd: int, length: int) -> Event:
        entry = self._entry(fd)
        done = Event(self.sim, name=self._read_name)
        if entry.offset == 0:
            inner = self._clamped_whole(entry.path, length)
        else:
            inner = self._backend_pread(entry.path, length, entry.offset)

        def advance(nbytes: int) -> int:
            entry.offset += nbytes
            return nbytes

        return chain_result(inner, done, advance)

    def read_whole(self, path: str) -> Event:
        self.counters.reads.value += 1
        if self.sim.telemetry is None:
            return self._route_whole(path)  # untraced: no root span to open
        return self._serve_whole(path)

    # -- helpers ---------------------------------------------------------------
    def _clamped_whole(self, path: str, length: int) -> Event:
        """Whole-file service, clamped to ``length`` for POSIX fidelity."""
        done = Event(self.sim, name=self._pread_name)
        inner = self._serve_whole(path)
        chain_result(inner, done, lambda nbytes: min(nbytes, length))
        self.counters.reads.value += 1
        return done

    def _backend_pread(self, path: str, length: int, offset: int) -> Event:
        self.counters.add("fallback_reads")
        bfd = self.backend.open(path)
        done = Event(self.sim, name=self._bpread_name)
        inner = self.backend.pread(bfd, length, offset)

        # Callbacks run in registration order: close before forwarding.
        inner.add_callback(lambda ev: self.backend.close(bfd))
        return chain_result(inner, done)

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
