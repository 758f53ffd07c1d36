"""Exception hierarchy for the discrete-event simulation kernel.

Every error raised by :mod:`repro.simcore` derives from
:class:`SimulationError`, so callers embedding a simulation inside a larger
application can catch one base class.
"""

from __future__ import annotations

# The base lives outside the simulator, so that the live plane can use the
# RPC errors derived from it without loading this package.
from ..errors import SimulationError


class SchedulingError(SimulationError):
    """An event was scheduled in an invalid way.

    Examples: negative delay, re-scheduling an already triggered event, or
    scheduling onto a simulator that has been torn down.
    """


class EventAlreadyTriggered(SchedulingError):
    """``succeed``/``fail`` was called on an event that already fired."""


class DuplicateKeyError(SimulationError):
    """A keyed store was asked to admit a key it already holds.

    Keyed stores index exactly one item per key; a second ``put`` for a
    present key fails fast (the event is failed with this error) instead of
    silently shadowing or re-ordering the first item.
    """


class DuplicateRequestError(SimulationError):
    """A second consumer requested a key that can never be delivered again.

    Raised (as a failed event) by evict-on-read buffers when a key is
    requested while another consumer already waits for it, or after it was
    already consumed this epoch — both cases would otherwise block forever
    because the producer stages each file exactly once per epoch.
    """


class StopSimulation(SimulationError):
    """Raised internally to halt :meth:`Simulator.run` early.

    User processes may raise it (or call :meth:`Simulator.stop`) to end the
    run from inside the event loop; ``run()`` catches it and returns.
    """


class Interrupt(SimulationError):
    """Thrown *into* a process that another process interrupted.

    The interrupting party supplies ``cause`` which the victim can inspect::

        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            log("interrupted because", exc.cause)
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class ProcessError(SimulationError):
    """A process being waited upon terminated with an exception.

    The original exception is available as ``__cause__``.
    """


def process_error(name: str, exc: BaseException) -> ProcessError:
    """The error a process called ``name`` dies with when its body raises ``exc``.

    Callback chains that stand in for a process fail their event with this,
    so callers see the same ``ProcessError(__cause__=exc)`` shroud either way.
    """
    err = ProcessError(f"process {name!r} failed: {exc!r}")
    err.__cause__ = exc
    return err
