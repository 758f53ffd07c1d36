"""The control plane's typed failures and the package's one retry schedule.

Both transports share them: :class:`~.kernel.ChannelTransport` over the
simulated :class:`~.rpc.ControlChannel`, and
:class:`~.kernel.DirectTransport`, the live plane's in-process call; the
prefetcher's serve-side re-read takes the same schedule.  This module
imports nothing from the simulator, so the live plane can use it on its
own.

* :class:`RpcTransportError` — the message was lost (retryable);
* :class:`RpcTimeout` — no reply within the caller's deadline (retryable);
* :class:`RpcApplicationError` — the far-side function raised (fatal:
  retrying re-executes a deterministic failure);
* :class:`RpcRetriesExhausted` — the :class:`RetryPolicy`'s attempts or
  time budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """The one retry schedule: exponential backoff under a total budget.

    Every retry in the package takes its waits from :meth:`next_backoff`:
    the channel's ``call_with_retry`` and ``request_with_retry``, the live
    :class:`~.kernel.DirectTransport`, and the prefetcher's serve-side
    re-read.  ``budget`` caps the *total* time spent on one logical call
    (attempts + backoff); a control plane that spends longer than a
    control period nursing one RPC is better off skipping the cycle.
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

    def next_backoff(self, failed: int, elapsed: float) -> Optional[float]:
        """The wait before the next attempt, or None to give up.

        ``failed`` attempts (at least one) have failed so far, and
        ``elapsed`` seconds have passed since the first began.  The
        schedule gives up once every attempt is spent, once the budget is
        spent, or when the backoff alone would overrun it.
        """
        if failed >= self.max_attempts or elapsed >= self.budget:
            return None
        backoff = min(self.base_delay * self.multiplier ** (failed - 1), self.max_delay)
        return None if elapsed + backoff > self.budget else backoff
