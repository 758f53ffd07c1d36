"""One call from a typed :class:`PrismaConfig` to a running simulated stack.

:func:`build_stage` assembles the data plane (a labelled :class:`PrismaStage`
hosting a :class:`ParallelPrefetcher`, and optionally a tiering object over
a fast device) and the storage backend when the config describes one.
:func:`build_prisma` adds the stack's own started :class:`Controller`.
"""

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Tuple

from ..storage.backend import BackendConfig, build_backend
from .control.controller import Controller
from .control.policy import ControlPolicy, PrismaAutotunePolicy
from .filename_queue import _validate_lookahead
from .prefetcher import ParallelPrefetcher
from .stage import PrismaStage
from .tiering import ClairvoyantTieringObject, TieringConfig, TieringObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.posix import PosixLike

__all__ = ["PrismaConfig", "build_prisma", "build_stage"]


@dataclass(frozen=True)
class PrismaConfig:
    """Typed configuration for :func:`build_stage` and :func:`build_prisma`.

    One value object instead of a drift-prone keyword list: experiments
    construct a config once, ``dataclasses.replace`` it per trial, and the
    same object can be logged next to the results it produced.
    """

    #: control-loop period in simulated seconds (experiments scale it with
    #: the dataset so decisions-per-epoch match an unscaled deployment)
    control_period: float = 0.05
    #: control policy; ``None`` selects a fresh :class:`PrismaAutotunePolicy`
    policy: Optional[ControlPolicy] = None
    #: initial producer threads *t*
    producers: int = 2
    #: initial buffer capacity *N* (samples)
    buffer_capacity: int = 256
    #: hard ceiling the control plane may never push *t* beyond
    max_producers: int = 8
    #: component-name prefix (``<name>.stage``, ``<name>.prefetch``, …)
    name: str = "prisma"
    #: epochs past the live one the prefetcher may fetch ahead (0 = off;
    #: takes effect once a :class:`LookaheadSchedule` is installed)
    lookahead_epochs: int = 0
    #: optional node-local fast tier between the buffer and the backend
    tiering: Optional[TieringConfig] = None
    #: optional storage-backend spec; when set, :func:`build_prisma` builds
    #: the backend itself (POSIX filesystem or object store) instead of
    #: being handed one — the config fully describes the deployment
    backend: Optional[BackendConfig] = None

    def __post_init__(self) -> None:
        if self.control_period <= 0:
            raise ValueError("control_period must be positive")
        if self.producers < 1:
            raise ValueError("producers must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.max_producers < self.producers:
            raise ValueError("max_producers must be >= producers")
        _validate_lookahead(self.lookahead_epochs)
        if self.tiering is not None and not isinstance(self.tiering, TieringConfig):
            raise ValueError(
                f"tiering must be a TieringConfig, got {type(self.tiering).__name__}"
            )
        if self.backend is not None and not isinstance(self.backend, BackendConfig):
            raise ValueError(
                f"backend must be a BackendConfig, got {type(self.backend).__name__}"
            )

    def with_overrides(self, **overrides) -> "PrismaConfig":
        """A copy with the given fields replaced (sugar over ``replace``)."""
        return replace(self, **overrides)


def build_stage(
    sim: "Simulator",
    backend: Optional["PosixLike"] = None,
    config: Optional[PrismaConfig] = None,
) -> Tuple[PrismaStage, ParallelPrefetcher]:
    """Assemble one PRISMA stage over ``backend``; no controller attached.

    Returns ``(stage, prefetcher)``.  ``backend`` may be any
    :class:`~repro.storage.posix.PosixLike` built by the caller, **or**
    omitted when ``config.backend`` carries a
    :class:`~repro.storage.backend.BackendConfig` — then the storage stack
    (POSIX filesystem or object store, per ``kind``) is constructed here
    and wrapped in a :class:`~repro.storage.posix.PosixLayer`; the built
    backend is reachable as ``stage.backend.fs``.  All tuning comes in as
    a :class:`PrismaConfig`.
    """
    config = config or PrismaConfig()
    if config.backend is not None:
        if backend is not None:
            raise ValueError(
                "pass either a backend instance or PrismaConfig.backend, not both"
            )
        from ..storage.posix import PosixLayer

        backend = PosixLayer(sim, build_backend(sim, config.backend))
    elif backend is None:
        raise ValueError(
            "a PRISMA stage needs a backend: pass one, or set PrismaConfig.backend"
        )
    tiering = None
    prefetch_backend = backend
    if config.tiering is not None:
        from ..storage.device import PROFILES, BlockDevice
        from ..storage.filesystem import Filesystem

        tcfg = config.tiering
        if tcfg.backing_capacity_bytes is None:
            # No declared backing size: measure the backend we were handed.
            fs = getattr(backend, "fs", None)
            total = fs.total_bytes() if fs is not None else 0
            if total > 0 and tcfg.fast_capacity_bytes >= total:
                raise ValueError(
                    f"fast tier ({tcfg.fast_capacity_bytes} B) holds the entire "
                    f"backing store ({total} B); tiering would be a no-op — "
                    "shrink fast_capacity_bytes or drop the tiering config"
                )
        fast_fs = Filesystem(
            sim,
            BlockDevice(sim, PROFILES[tcfg.fast_profile]()),
            name=f"{config.name}.fast",
        )
        if tcfg.clairvoyant:
            tiering = ClairvoyantTieringObject(
                sim, backend, fast_fs, tcfg.fast_capacity_bytes,
                name=f"{config.name}.tiering",
            )
        else:
            tiering = TieringObject(
                sim, backend, fast_fs, tcfg.fast_capacity_bytes,
                promote_after=tcfg.promote_after, name=f"{config.name}.tiering",
            )
        # The hierarchy: RAM buffer (prefetcher) → fast tier → backing FS.
        prefetch_backend = tiering
    prefetcher = ParallelPrefetcher(
        sim,
        prefetch_backend,
        producers=config.producers,
        buffer_capacity=config.buffer_capacity,
        max_producers=config.max_producers,
        lookahead_epochs=config.lookahead_epochs,
        name=f"{config.name}.prefetch",
    )
    optimizations = [prefetcher] if tiering is None else [prefetcher, tiering]
    stage = PrismaStage(sim, backend, optimizations, name=f"{config.name}.stage")
    stage.tiering = tiering
    # Label the stage with its workload features so control.decision
    # telemetry is self-describing performance-model training data; the
    # framework integration adds batch_size when it binds.
    stage.feature_labels["backend_kind"] = (
        config.backend.kind if config.backend is not None else "posix"
    )
    stage.feature_labels["lookahead_epochs"] = config.lookahead_epochs
    return stage, prefetcher


def build_prisma(
    sim: "Simulator",
    backend: Optional["PosixLike"] = None,
    config: Optional[PrismaConfig] = None,
) -> Tuple[PrismaStage, ParallelPrefetcher, Controller]:
    """:func:`build_stage` plus its own started controller, running
    ``config.policy``; returns ``(stage, prefetcher, controller)``."""
    config = config or PrismaConfig()
    stage, prefetcher = build_stage(sim, backend, config)
    controller = Controller(
        sim, period=config.control_period, name=f"{config.name}.controller"
    )
    controller.register(stage, config.policy or PrismaAutotunePolicy())
    controller.start()
    return stage, prefetcher, controller
