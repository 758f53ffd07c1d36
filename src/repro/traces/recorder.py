"""Recording traces from a running data plane.

:class:`TracingPosix` wraps any :class:`~repro.storage.posix.PosixLike`
(the raw backend, or a whole PRISMA stage) and records every whole-file
read into a :class:`~repro.traces.format.Trace`.  Because it implements the
same interface it slots *anywhere* in the stack — above the stage to see
the framework's view (latencies include buffer service), or below it to
see the backend's view (what actually hit the device).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..simcore.event import Event
from ..storage.posix import PosixLike
from .format import Trace, TraceHeader, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator


class TracingPosix(PosixLike):
    """Pass-through POSIX layer that records every whole-file read."""

    def __init__(
        self,
        sim: "Simulator",
        inner: PosixLike,
        header: Optional[TraceHeader] = None,
        source_label: str = "backend",
    ) -> None:
        super().__init__(sim)
        self.inner = inner
        self.trace = Trace(header)
        self.source_label = source_label

    # -- interception -------------------------------------------------------------
    def read_whole(self, path: str) -> Event:
        issued = self.sim.now
        event = self.inner.read_whole(path)

        def log(ev: Event) -> None:
            if ev.ok:
                self.trace.append(
                    TraceRecord(
                        issue_time=issued,
                        path=path,
                        nbytes=int(ev.value),
                        latency=self.sim.now - issued,
                        source=self.source_label,
                    )
                )

        event.add_callback(log)
        return event

    # -- pass-through ------------------------------------------------------------
    def size(self, path: str) -> int:
        return self.inner.size(path)

    def read_range(self, path: str, offset: int, length: int) -> Event:
        return self.inner.read_range(path, offset, length)
