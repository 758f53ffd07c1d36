"""Model checkpointing: the training loop's write-side storage traffic.

DL jobs periodically persist model + optimizer state.  Checkpoints matter
to the storage layer for two reasons: synchronous ones stall training for
the write, and *any* checkpoint competes with the data path for device
bandwidth — reads slow down exactly while the checkpoint streams out
(another instance of the paper's partial-visibility problem: the framework
schedules the write with no view of the read path it degrades).

:class:`CheckpointWriter` attaches to the :class:`~.training.Trainer` and
writes through any :class:`~repro.storage.backend.StorageBackend` — local
filesystem, distributed PFS, or object store.  Both synchronous (blocking)
and asynchronous (overlapped snapshot upload) disciplines are modelled.
Every write emits a ``ckpt.write`` telemetry span and its ``[start, end)``
burst window is recorded in :attr:`CheckpointWriter.write_windows`, which
is how the write-path experiments measure read-throughput interference
during checkpoint bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..simcore.event import Event
from ..storage.backend import validate_byte_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.backend import StorageBackend

#: Checkpoint payload per model: FP32 params + Adam moments (~3x params).
#: Whole bytes — checkpoint accounting follows the discrete-byte
#: convention (fractional byte counts cannot enter the write path).
CHECKPOINT_BYTES = {
    "lenet": 750_000,
    "alexnet": 732_000_000,
    "resnet50": 306_000_000,
}


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing policy.

    ``every_steps=0`` disables checkpointing; ``synchronous`` selects
    blocking writes (training waits) vs snapshot-and-continue.  ``nbytes``
    is normalized to a whole byte count (integral floats like ``500e6``
    are accepted and coerced; fractional values are rejected).
    """

    every_steps: int = 0
    nbytes: int = 0
    synchronous: bool = True

    def __post_init__(self) -> None:
        if self.every_steps < 0:
            raise ValueError("every_steps must be >= 0")
        object.__setattr__(
            self, "nbytes", validate_byte_count(self.nbytes, "nbytes", allow_zero=True)
        )

    @classmethod
    def for_model(cls, model_name: str, every_steps: int, synchronous: bool = True) -> "CheckpointConfig":
        return cls(
            every_steps=every_steps,
            nbytes=CHECKPOINT_BYTES.get(model_name, 100_000_000),
            synchronous=synchronous,
        )

    @property
    def enabled(self) -> bool:
        return self.every_steps > 0 and self.nbytes > 0


class CheckpointWriter:
    """Issues checkpoint writes to a storage backend on a step cadence."""

    def __init__(
        self,
        sim: "Simulator",
        backend: "StorageBackend",
        config: CheckpointConfig,
        prefix: str = "/ckpt",
    ) -> None:
        self.sim = sim
        self.backend = backend
        self.config = config
        self.prefix = prefix
        self.checkpoints_written = 0
        self.bytes_written = 0
        self.sync_stall_time = 0.0
        #: completed write bursts as ``(start, end)`` simulated times —
        #: the interference-measurement windows of the writes experiment
        self.write_windows: List[Tuple[float, float]] = []
        self._async_pending: List[Event] = []
        self._global_step = 0

    def on_step(self) -> Optional[Event]:
        """Called once per optimizer step; returns a blocking event or None.

        Synchronous mode returns the write event (the trainer must wait);
        asynchronous mode launches the write and returns None — the trainer
        continues, and :meth:`drain` at end of training joins stragglers.
        """
        self._global_step += 1
        if not self.config.enabled or self._global_step % self.config.every_steps != 0:
            return None
        path = f"{self.prefix}/step{self._global_step:010d}.pt"
        self.backend.create(path, 0)
        started = self.sim.now
        nbytes = self.config.nbytes
        tel = self.sim.telemetry
        span = None
        if tel is not None:
            span = tel.begin(
                "ckpt.write", "train.ckpt", "storage", lane=True,
                step=self._global_step, bytes=nbytes,
                mode="sync" if self.config.synchronous else "async",
            )
        write = self.backend.write(path, nbytes)
        self.checkpoints_written += 1

        def landed(ev: Event) -> None:
            if span is not None:
                tel.end(span, ok=ev.ok)
            if ev.ok:
                self.bytes_written += nbytes
                self.write_windows.append((started, self.sim.now))
                if self.config.synchronous:
                    self._account_stall(started)

        write.add_callback(landed)
        if self.config.synchronous:
            return write
        self._async_pending.append(write)
        return None

    def _account_stall(self, started: float) -> None:
        self.sync_stall_time += self.sim.now - started

    def drain(self) -> Event:
        """Event completing once all in-flight async checkpoints land."""
        pending = [ev for ev in self._async_pending if not ev.processed]
        self._async_pending = []
        return self.sim.all_of(pending)

    def time_in_windows(self, lo: float, hi: float) -> float:
        """Total simulated time within ``[lo, hi)`` covered by write bursts.

        Overlapping async bursts are merged first, so the result is wall
        coverage (usable as a throughput denominator), not a sum of
        per-write durations.
        """
        covered = 0.0
        last_end = lo
        for start, end in sorted(self.write_windows):
            start, end = max(start, last_end), min(end, hi)
            if end > start:
                covered += end - start
                last_end = end
        return covered
