"""Live control plane: the shared control kernel on a wall-clock thread.

The exact same :class:`~repro.core.control.kernel.ControlCycle` that the
simulated :class:`~repro.core.control.controller.Controller` drives from a
kernel process runs here on a plain daemon thread waking every ``period``
wall-clock seconds — the decoupling argument of the paper made concrete.
Through the kernel the live plane gets everything the simulated one has:
:class:`~repro.core.control.kernel.GlobalPolicy` coordination across
several prefetchers, call retries with the shared typed-error taxonomy
(via :class:`~repro.core.control.kernel.DirectTransport`), degraded-mode
edge detection, bounded histories, and Chrome-trace telemetry stamped on a
wall-clock frame.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, List, Optional

from ...telemetry.metrics import MetricsRegistry
from ..control.kernel import ControlCycle, DirectTransport, GlobalPolicy, StagePort
from ..control.monitor import MetricsHistory
from ..control.policy import ControlPolicy, PrismaAutotunePolicy
from ..control.retry import RetryPolicy
from ..optimization import MetricsSnapshot
from .prefetcher import LivePrefetcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...telemetry import Telemetry


class _WallClockFrame:
    """A duck-typed stand-in for a Simulator that a Telemetry hub can attach to.

    The hub needs three things from whatever it is attached to: a
    ``telemetry`` slot it installs itself into, a ``now`` clock for span
    stamps and a ``metrics`` registry it reads as its own.  Here ``now`` is
    wall-clock seconds since the frame was created, so live traces start at
    t=0 like simulated ones.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self.telemetry = None
        self.metrics = MetricsRegistry()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0


class LiveController:
    """Periodic monitor/decide/enforce loop over live prefetchers.

    A thin driver: owns the wall-clock (daemon thread, one kernel cycle per
    ``period`` seconds) and the in-process transports; delegates the cycle
    itself to the shared :class:`~repro.core.control.kernel.ControlCycle`.

    The single-prefetcher constructor shape is preserved —
    ``LiveController(prefetcher, policy=...)`` — and further stages can be
    attached with :meth:`register` before :meth:`start` (e.g. several
    prefetchers under one ``global_policy``).
    """

    def __init__(
        self,
        prefetcher: Optional[LivePrefetcher] = None,
        policy: Optional[ControlPolicy] = None,
        period: float = 0.1,
        *,
        global_policy: Optional[GlobalPolicy] = None,
        telemetry: Optional["Telemetry"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        name: str = "prisma.live-controller",
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.name = name
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=period / 20, max_delay=period / 4, budget=period
        )
        frame = self._frame = _WallClockFrame()
        if telemetry is not None:
            telemetry.attach(frame, process=name)
        # The closures capture ``frame``, not ``self``: a controller held by
        # its own cycle would outlive its last user until a collector pass.
        self.kernel = ControlCycle(
            name,
            clock=lambda: frame.now,
            telemetry=lambda: frame.telemetry,
            global_policy=global_policy,
        )
        self.prefetcher = prefetcher
        self.policy = policy
        if prefetcher is not None:
            if policy is None and global_policy is None:
                self.policy = policy = PrismaAutotunePolicy()
            self.register(prefetcher, policy)
        #: set if the control thread died on an unexpected error
        self.error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- kernel accounting, re-exposed -------------------------------------------
    @property
    def global_policy(self) -> Optional[GlobalPolicy]:
        return self.kernel.global_policy

    @property
    def cycles(self) -> int:
        return self.kernel.cycles

    @property
    def enforcements(self) -> int:
        return self.kernel.enforcements

    @property
    def rpc_failures(self) -> int:
        return self.kernel.rpc_failures

    @property
    def last_cycle_time(self) -> float:
        return self.kernel.last_cycle_time

    @property
    def history(self) -> List[MetricsSnapshot]:
        """Snapshot series of the first registered stage (legacy accessor)."""
        regs = self.kernel.registrations()
        return regs[0].history.snapshots() if regs else []

    # -- registration ------------------------------------------------------------
    def register(
        self, port: StagePort, policy: Optional[ControlPolicy] = None
    ) -> MetricsHistory:
        """Attach a live stage; returns its history for later inspection."""
        transport = DirectTransport(
            retry_policy=self.retry_policy, name=f"{self.name}.direct"
        )
        return self.kernel.register(port, policy, transport)

    def history_for(self, stage_name: str) -> MetricsHistory:
        return self.kernel.history_for(stage_name)

    # -- control loop -------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("controller already started")
        self._thread = threading.Thread(
            target=self._loop, name="prisma-controller", daemon=True
        )
        self._thread.start()

    def run_cycle(self) -> None:
        """Run exactly one control cycle on the calling thread.

        Deterministic alternative to :meth:`start` for tests and
        step-driven embeddings (the thread loop is this, on a timer).
        """
        self.kernel.run_inline()
        self.kernel.complete_cycle()

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            try:
                self.run_cycle()
            except Exception as exc:  # noqa: BLE001 - surfaced via self.error
                # An RpcApplicationError (far-side bug) or anything else
                # unexpected stops the loop; the data plane keeps running
                # on its current knobs.
                self.error = exc
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "LiveController":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
