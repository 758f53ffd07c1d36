"""The simulated control-plane driver (paper §III-A).

All monitor→decide→enforce logic lives in the shared
:class:`~.kernel.ControlCycle`; this module contributes only what is
specific to the *simulated* deployment shape: a kernel process that wakes
every ``period`` of simulated time, and :class:`~.kernel.ChannelTransport`
instances that carry each control call over a latency/fault-modelled
:class:`~.rpc.ControlChannel`.

Centralization is what makes holistic behaviour possible: a global policy
can, e.g., divide a machine-wide producer-thread budget among competing
training jobs, something no framework-intrinsic optimizer can do (paper §II
"partial visibility").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ...simcore.errors import Interrupt
from .kernel import ChannelTransport, ControlCycle, GlobalPolicy
from .monitor import MetricsHistory
from .policy import ControlPolicy
from .retry import RetryPolicy
from .rpc import ControlChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator
    from .kernel import StagePort

__all__ = ["Controller", "GlobalPolicy"]


class Controller:
    """Periodic monitor/decide/enforce loop over registered stages.

    A thin driver: owns the simulated clock (one cycle per ``period`` of
    sim time, interruptible process) and the channel transports; delegates
    the cycle itself to the shared :class:`~.kernel.ControlCycle`.
    """

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        global_policy: Optional[GlobalPolicy] = None,
        rpc_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        name: str = "prisma.controller",
    ) -> None:
        if period <= 0:
            raise ValueError("control period must be positive")
        self.sim = sim
        self.period = period
        self.name = name
        self._process = None
        #: per-attempt RPC deadline; defaults to half a control period so a
        #: wedged channel can never stall the loop across cycles
        self.rpc_timeout = rpc_timeout if rpc_timeout is not None else period / 2
        #: backoff schedule for monitor/enforce calls, budgeted to one period
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=period / 20, max_delay=period / 4, budget=period
        )
        # The closures capture ``sim``, not ``self``: a controller held by
        # its own cycle would outlive its trial until a collector pass.
        self.kernel = ControlCycle(
            name,
            clock=lambda: sim.now,
            telemetry=lambda: sim.telemetry,
            global_policy=global_policy,
        )

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

    # -- registration ------------------------------------------------------------
    def register(
        self,
        stage: "StagePort",
        policy: Optional[ControlPolicy] = None,
        channel: Optional[ControlChannel] = None,
    ) -> MetricsHistory:
        """Attach a stage; returns its history for later inspection."""
        transport = ChannelTransport(
            channel or ControlChannel(self.sim, name=f"{self.name}.ch"),
            retry_policy=self.retry_policy,
            timeout=self.rpc_timeout,
        )
        return self.kernel.register(stage, policy, transport)

    def channels(self) -> List[ControlChannel]:
        """Every registered stage's control channel (fault-injection targets)."""
        return [
            reg.transport.channel
            for reg in self.kernel.registrations()
            if isinstance(reg.transport, ChannelTransport)
        ]

    def history_for(self, stage_name: str) -> MetricsHistory:
        return self.kernel.history_for(stage_name)

    # -- control loop -------------------------------------------------------------
    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("controller already started")
        self._process = self.sim.process(self._loop(), name=self.name)

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("controller stopped")
        self._process = None

    def _loop(self):
        try:
            while True:
                yield self.sim.timeout(self.period)
                yield from self.kernel.run_events()
                self.kernel.complete_cycle()
        except Interrupt:
            return
