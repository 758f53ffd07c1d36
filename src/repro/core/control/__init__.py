"""``repro.core.control`` — PRISMA's control plane.

The logically centralized side of the SDS split, built around one shared
:class:`~.kernel.ControlCycle` (the monitor→decide→enforce kernel) that
every deployment shape drives: the simulated :class:`Controller` (kernel
process + :class:`~.kernel.ChannelTransport` RPC), the wall-clock
:class:`~repro.core.live.LiveController` (daemon thread +
:class:`~.kernel.DirectTransport`), and the failover pair
:class:`ReplicatedController`.  Alongside: tuning
:class:`~.policy.ControlPolicy` objects (including the paper's feedback
auto-tuner and the graceful-degradation wrapper), per-stage bounded
:class:`~.monitor.MetricsHistory`, and the :class:`~.rpc.ControlChannel`
linking planes (typed failures, retry with backoff under a time budget).

``MetricsSnapshot`` — the monitoring record stages report — lives in
:mod:`repro.telemetry` (re-exported by :mod:`repro.core`).

Every name below is exported lazily: the live plane imports the kernel,
the policies, the monitor and :mod:`.retry`, and so never loads the
simulated driver or the channel, which need the simulator.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".controller": ["Controller"],
    ".kernel": [
        "ChannelTransport",
        "ControlCycle",
        "ControlTransport",
        "DirectTransport",
        "GlobalPolicy",
        "KernelRegistration",
        "PortCall",
        "StagePort",
    ],
    ".monitor": ["DEFAULT_MAX_ENTRIES", "MetricsHistory"],
    ".policy": [
        "AutotuneParams",
        "ControlPolicy",
        "DegradedModeParams",
        "DegradedModePolicy",
        "OscillationDampedPolicy",
        "PredictiveParams",
        "PredictivePolicy",
        "PrismaAutotunePolicy",
        "StaticPolicy",
    ],
    ".replicated": ["ReplicatedController"],
    ".retry": [
        "RetryPolicy",
        "RpcApplicationError",
        "RpcError",
        "RpcRetriesExhausted",
        "RpcTimeout",
        "RpcTransportError",
    ],
    ".rpc": ["LOCAL_LATENCY", "REMOTE_LATENCY", "ControlChannel"],
})
