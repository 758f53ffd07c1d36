"""The package's one exception base, importable without the simulator.

:class:`SimulationError` is the base of every kernel-level error
(:mod:`repro.simcore.errors` re-exports it and derives the rest) and of
the control plane's typed RPC failures (:mod:`repro.core.control.retry`),
which the live plane raises on real threads.  It lives outside
:mod:`repro.simcore` so that the live plane can catch and raise it without
loading the simulator.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""
