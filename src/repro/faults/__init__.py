"""``repro.faults`` — deterministic fault injection and chaos schedules.

Failure is an input, not an accident: a :class:`FaultPlan` declares what
goes wrong and when (device slowdowns, read-error bursts, latency spikes,
producer crashes, control-plane RPC drops and delays), and a
:class:`FaultInjector` replays it against live components through the
simulation kernel.  The same root seed always produces the same failure
scenario, so every chaos-test discovery is a reproducer.

The graceful-degradation counterparts live where the recovery happens:
serve-side retry and producer supervision in
:class:`~repro.core.prefetcher.ParallelPrefetcher`, typed errors and the
one retry schedule in :mod:`repro.core.control.retry`, and the
:class:`~repro.core.control.policy.DegradedModePolicy` control wrapper.
"""

from .injector import FaultInjector
from .plan import (
    DEVICE_SLOWDOWN,
    FAULT_KINDS,
    LATENCY_SPIKE,
    PRODUCER_CRASH,
    READ_ERROR_BURST,
    RPC_DELAY,
    RPC_DROP,
    WINDOWED_KINDS,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "DEVICE_SLOWDOWN",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LATENCY_SPIKE",
    "PRODUCER_CRASH",
    "READ_ERROR_BURST",
    "RPC_DELAY",
    "RPC_DROP",
    "WINDOWED_KINDS",
]
