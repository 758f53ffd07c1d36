"""``repro.core`` — PRISMA: the paper's primary contribution.

The Software-Defined Storage middleware for DL training: the data plane
(:class:`PrismaStage` hosting :class:`OptimizationObject` implementations,
chiefly the :class:`ParallelPrefetcher`), the control plane
(:mod:`repro.core.control`), and the TensorFlow / PyTorch integrations
(:mod:`repro.core.integrations`).

:func:`build_prisma` wires a complete SDS stack in one call and
:func:`build_stage` its stage alone, both from a typed :class:`PrismaConfig`.

Every name below is exported lazily: importing this package imports none
of its submodules, so the live plane (:mod:`repro.core.live`) loads
without the simulator.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".buffer": ["PrefetchBuffer"],
    ".builder": ["PrismaConfig", "build_prisma", "build_stage"],
    ".control": [
        "AutotuneParams",
        "ControlChannel",
        "ControlPolicy",
        "Controller",
        "DegradedModeParams",
        "DegradedModePolicy",
        "MetricsHistory",
        "PredictiveParams",
        "PredictivePolicy",
        "PrismaAutotunePolicy",
        "RetryPolicy",
        "RpcApplicationError",
        "RpcError",
        "RpcRetriesExhausted",
        "RpcTimeout",
        "RpcTransportError",
        "StaticPolicy",
    ],
    ".filename_queue": ["FilenameQueue"],
    ".optimization": ["MetricsSnapshot", "OptimizationObject", "TuningSettings"],
    ".prefetcher": ["ParallelPrefetcher"],
    ".schedule": ["NEVER", "LookaheadSchedule"],
    ".shared": ["SharedDatasetPrefetcher"],
    ".stage": ["PrismaStage"],
    ".tiering": ["ClairvoyantTieringObject", "TieringConfig", "TieringObject"],
})
