"""The control plane's typed failures and retry schedule.

Both transports share them: :class:`~.kernel.ChannelTransport` over the
simulated :class:`~.rpc.ControlChannel`, and
:class:`~.kernel.DirectTransport`, the live plane's in-process call.  This
module imports nothing from the simulator, so the live plane can use it
on its own.

* :class:`RpcTransportError` — the message was lost (retryable);
* :class:`RpcTimeout` — no reply within the caller's deadline (retryable);
* :class:`RpcApplicationError` — the far-side function raised (fatal:
  retrying re-executes a deterministic failure);
* :class:`RpcRetriesExhausted` — the :class:`RetryPolicy`'s attempts or
  time budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import SimulationError


class RpcError(SimulationError):
    """Base class for control-channel failures."""


class RpcTransportError(RpcError):
    """The request or reply was lost in transit (retryable)."""


class RpcTimeout(RpcTransportError):
    """No reply arrived within the caller's deadline (retryable)."""


class RpcApplicationError(RpcError):
    """The far-side function raised; the original is ``__cause__`` (fatal)."""


class RpcRetriesExhausted(RpcError):
    """Every attempt failed; the last transport error is ``__cause__``."""


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule and budget for :meth:`ControlChannel.call_with_retry`.

    ``budget`` caps the *total* time spent on one logical call (attempts +
    backoff); a control plane that spends longer than a control period
    nursing one RPC is better off skipping the cycle.
    """

    max_attempts: int = 4
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 50e-3
    budget: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based; attempt 0 is free)."""
        if attempt <= 0:
            return 0.0
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
