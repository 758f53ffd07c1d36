"""The *optimization object* abstraction (paper §III-A).

A data-plane stage hosts one or more optimization objects: *"an abstraction
that allows users to implement custom storage optimizations to apply over DL
requests … examples include data prefetching, parallel I/O, and storage
tiering"*.  An optimization object:

* may intercept read requests (``serve``) — returning an event when it
  handles the request itself, or ``None`` to pass it down the stack;
* exposes *tuning knobs* the control plane adjusts (``apply_settings``);
* reports *metrics* the control plane monitors (``snapshot``).

This is the extension point that makes the data plane generic: PRISMA's
:class:`~repro.core.prefetcher.ParallelPrefetcher` is one implementation;
:class:`~repro.core.tiering.TieringObject` (the paper's §VII "future work")
is another, and both plug into the same stage unchanged.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..telemetry.snapshot import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.event import Event
    from ..simcore.kernel import Simulator
    from ..storage.backend import SampleSource

__all__ = ["MetricsSnapshot", "OptimizationObject", "TuningSettings"]


@dataclass(frozen=True)
class TuningSettings:
    """Control-plane directives for an optimization object.

    ``producers`` is PRISMA's *t* (parallel read threads) and
    ``buffer_capacity`` its *N* (in-memory samples); extensions may carry
    extra free-form knobs in ``extra``.
    """

    producers: Optional[int] = None
    buffer_capacity: Optional[int] = None
    extra: Dict[str, object] = field(default_factory=dict)


class OptimizationObject(abc.ABC):
    """Base class for self-contained, controllable I/O optimizations."""

    def __init__(self, sim: "Simulator", backend: "SampleSource", name: str) -> None:
        self.sim = sim
        self.backend = backend
        self.name = name

    @abc.abstractmethod
    def serve(self, path: str) -> Optional[Event]:
        """Try to serve a whole-file read for ``path``.

        Return an event (valued with the byte count) if this object handles
        the request, or ``None`` to let the stage fall through to the
        backend.
        """

    @abc.abstractmethod
    def snapshot(self) -> MetricsSnapshot:
        """Current metrics for the control plane."""

    @abc.abstractmethod
    def apply_settings(self, settings: TuningSettings) -> None:
        """Adopt new control-plane directives."""

    def on_epoch(self, paths) -> None:  # noqa: B027 - optional hook
        """Notification that a new epoch's filenames list arrived."""
