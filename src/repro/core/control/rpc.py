"""Control channel between the control plane and data-plane stages.

The control plane is *logically* centralized but physically separate from
the stages (paper §III-A), so every monitoring poll and policy push crosses
a channel with non-zero latency.  For stages co-located with the controller
(the paper's prototype implements the control plane "as a logical component
of our middleware") the latency is a function call's worth; for remote
stages it is a network RTT.  Modelling it explicitly keeps the architecture
honest: control decisions are always slightly stale, exactly as in a real
SDS deployment.

Failure model
-------------

A real control channel loses and delays messages, so this one can too
(:meth:`ControlChannel.inject_drops` / :meth:`ControlChannel.inject_delay`,
driven by :class:`~repro.faults.FaultInjector`).  Failures surface as
*typed* exceptions rather than being swallowed into a generic process
error, so callers can tell retryable transport trouble from fatal
far-side bugs (the types and :class:`RetryPolicy` live in :mod:`.retry`,
which the live plane shares without the simulator):

* :class:`RpcTransportError` — the message was lost (retryable);
* :class:`RpcTimeout` — no reply within the caller's deadline (retryable);
* :class:`RpcApplicationError` — the far-side function raised (fatal:
  retrying re-executes a deterministic failure).

:meth:`ControlChannel.call_with_retry` layers exponential backoff and a
total time budget on top (:class:`RetryPolicy`, the package's one retry
schedule), failing with :class:`RpcRetriesExhausted` once the budget or
attempt count runs out.  A retried exchange is a chain of attempts, each
sent by a kernel timer after the backoff, with no process (:class:`_Exchange`).

Data-plane requests
-------------------

:meth:`ControlChannel.request` is the *data-plane* sibling of
:meth:`ControlChannel.call`: the far-side function may return a kernel
:class:`~repro.simcore.event.Event` (a read that takes simulated time —
e.g. a peer node serving a sample from its fast tier), and the reply leg
is only sent once that event settles.  The error taxonomy is unchanged —
lost messages and late replies stay retryable transport errors, while a
far-side failure (including a failed far-side event) is a fatal
:class:`RpcApplicationError`, because replaying a deterministic far-side
failure buys nothing; data-plane callers fall back to the backing store
instead.  :meth:`ControlChannel.request_with_retry` retries on the same
schedule :meth:`ControlChannel.call_with_retry` gives control RPCs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ...simcore.event import Event
from ...telemetry import CounterSet
from .retry import (
    RetryPolicy,
    RpcApplicationError,
    RpcError,
    RpcRetriesExhausted,
    RpcTimeout,
    RpcTransportError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator, _Call

#: In-process call: effectively free (prototype deployment, paper §IV).
LOCAL_LATENCY = 2e-6
#: Same-datacenter TCP round trip half (distributed deployment, §III).
REMOTE_LATENCY = 150e-6


class _Exchange:
    """One attempt of a request/reply exchange, as a chain of leg callbacks.

    Building an attempt sends it, as building a process starts it: the
    attempt counts in ``requests`` or ``calls``, its request leg is
    scheduled and its deadline armed.  ``done`` is what the exchange
    settles: the caller's event, or any object with an event's
    ``succeed(value)`` and ``fail(exc)`` that the caller handed down.  The
    exchange lets go of it once it settles, and cancels its deadline
    timer, which would fire into a settled exchange and do nothing.

    A retried exchange is a chain of attempts with no process: ``policy``
    (None for a single attempt), ``start``, ``attempt`` and ``timeout``
    are the retry state each attempt hands to the next, which it builds
    after the policy's backoff.  Each attempt settles once, so the late
    reply of a timed-out attempt cannot settle the retried one.  ``fn``
    and ``args`` stay until the exchange is freed: an attempt whose
    deadline beat its request leg still runs the far side on arrival.
    """

    __slots__ = (
        "channel", "fn", "args", "awaited", "done", "deadline",
        "policy", "start", "attempt", "timeout",
    )

    def __init__(
        self,
        channel: "ControlChannel",
        fn: Callable[..., Any],
        args: tuple,
        awaited: bool,
        done: Any,
        timeout: Optional[float],
        policy: Optional[RetryPolicy],
        start: float,
        attempt: int = 1,
    ) -> None:
        self.channel = channel
        self.fn = fn
        self.args = args
        self.awaited = awaited
        self.done = done
        self.timeout = timeout
        self.policy = policy
        self.start = start
        self.attempt = attempt
        (channel.counters.requests if awaited else channel.counters.calls).value += 1
        sim = channel.sim
        sim.call_later(channel.latency + channel._extra_delay, self.deliver)
        self.deadline: Optional[_Call] = (
            None if timeout is None else sim.call_later(timeout, self.expire)
        )

    def settle(self, value: Any = None, exc: Optional[RpcError] = None) -> None:
        done = self.done
        if done is None:
            return  # the deadline beat us; late replies are discarded
        self.done = None
        ch = self.channel
        if self.deadline is not None:
            ch.sim.cancel(self.deadline)
            self.deadline = None
        if exc is None:
            done.succeed(value)
            return
        policy = self.policy
        if policy is None or isinstance(exc, RpcApplicationError):
            done.fail(exc)
            return
        backoff = policy.next_backoff(self.attempt, ch.sim.now - self.start)
        if backoff is None:
            spent = RpcRetriesExhausted(
                f"{ch.name}: gave up after {self.attempt} attempts / "
                f"{policy.budget:g}s budget"
            )
            spent.__cause__ = exc
            done.fail(spent)
            return
        ch.counters.add("retries")
        ch.sim.call_later(backoff, self.retry, done)

    def retry(self, done: Any) -> None:
        """The backoff is over: send the next attempt."""
        _Exchange(
            self.channel, self.fn, self.args, self.awaited, done, self.timeout,
            self.policy, self.start, self.attempt + 1,
        )

    def deliver(self, _arg: None) -> None:
        """The request leg arrives: run the far side."""
        ch = self.channel
        if ch._dropping:
            ch.counters.add("drops")
            self.settle(exc=RpcTransportError(f"{ch.name}: request dropped"))
            return
        try:
            result = self.fn(*self.args)
        except Exception as exc:  # noqa: BLE001 - typed by _far_side_error
            self.settle(exc=ch._far_side_error(exc))
            return
        if self.awaited and isinstance(result, Event):
            result.add_callback(self.served)
        else:
            self.reply(result)

    def served(self, ev: Event) -> None:
        if ev.ok:
            self.reply(ev.value)
        else:
            self.settle(exc=self.channel._far_side_error(ev.exception))

    def reply(self, result: Any) -> None:
        ch = self.channel
        one_way = ch.latency + ch._extra_delay
        if one_way > 0:
            ch.sim.call_later(one_way, self.arrive, result)
        else:
            self.arrive(result)

    def arrive(self, result: Any) -> None:
        ch = self.channel
        if ch._dropping:
            ch.counters.add("drops")
            self.settle(exc=RpcTransportError(f"{ch.name}: reply dropped"))
        else:
            self.settle(result)

    def expire(self, _arg: None) -> None:
        if self.done is not None:
            self.channel.counters.add("timeouts")
            self.settle(exc=RpcTimeout(f"{self.channel.name}: no reply within {self.timeout:g}s"))


class ControlChannel:
    """Bidirectional request/response path with symmetric one-way latency."""

    def __init__(self, sim: "Simulator", latency: float = LOCAL_LATENCY, name: str = "ctl") -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        self.name = name
        self.counters = CounterSet(sim.metrics, "rpc", name)
        #: event names, formatted once per channel
        self._labels = {
            label: f"{name}.{label}"
            for label in ("call", "request", "call_retry", "request_retry")
        }
        #: fault-injection state (windowed by the injector)
        self._dropping = False
        self._extra_delay = 0.0

    # -- fault injection --------------------------------------------------------
    def inject_drops(self, active: bool) -> None:
        """Drop every message while active (a partitioned control network)."""
        self._dropping = bool(active)

    def inject_delay(self, extra: float) -> None:
        """Add ``extra`` seconds to each one-way leg (congested network)."""
        if extra < 0:
            raise ValueError("extra delay must be non-negative")
        self._extra_delay = extra

    @property
    def faulted(self) -> bool:
        return self._dropping or self._extra_delay > 0

    # -- data path --------------------------------------------------------------
    def _dispatch(
        self,
        fn: Callable[..., Any],
        args: tuple,
        timeout: Optional[float],
        awaited: bool,
        label: str,
        policy: Optional[RetryPolicy] = None,
        done: Any = None,
    ) -> Any:
        """Send an exchange's first attempt; returns what it settles.

        ``awaited`` selects data-plane semantics: a far-side return value
        that is itself an :class:`Event` is waited on before the reply leg,
        and its failure is a far-side (application) failure.  The far side
        never runs on the caller's stack: even at zero latency the request
        leg is a kernel event.  ``done``, when given, is settled in place
        of a fresh event.  ``policy``, when given, is the retry schedule of
        call_with_retry / request_with_retry (see :class:`_Exchange`).
        """
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        sim = self.sim
        if done is None:
            done = Event(sim, name=self._labels[label])
        _Exchange(self, fn, args, awaited, done, timeout, policy, sim.now)
        return done

    def _far_side_error(self, exc: BaseException) -> RpcError:
        """A far-side failure as the caller sees it.

        A nested RPC failure on the far side is still a far-side failure
        from this channel's point of view and passes through unchanged;
        anything else is a fatal :class:`RpcApplicationError`.
        """
        if isinstance(exc, RpcError):
            return exc
        err = RpcApplicationError(f"{self.name}: far side raised {type(exc).__name__}")
        err.__cause__ = exc
        return err

    def call(self, fn: Callable[..., Any], *args: Any, timeout: Optional[float] = None) -> Event:
        """Invoke ``fn(*args)`` on the far side; event value = its result.

        Fails with :class:`RpcTransportError` when the channel is dropping,
        :class:`RpcTimeout` when the round trip exceeds ``timeout``, and
        :class:`RpcApplicationError` when ``fn`` itself raises.  Note that
        a timed-out call may still have *executed* ``fn`` — the reply was
        late, not the request lost — exactly the at-most-once ambiguity a
        real RPC layer has.
        """
        return self._dispatch(fn, args, timeout, awaited=False, label="call")

    def request(self, fn: Callable[..., Any], *args: Any, timeout: Optional[float] = None) -> Event:
        """Data-plane request: like :meth:`call`, but the far side may defer.

        When ``fn(*args)`` returns an :class:`Event` (far-side work that
        takes simulated time — a peer serving a sample from its tier), the
        reply leg is sent once that event settles and carries its value.
        A failed far-side event surfaces as :class:`RpcApplicationError`
        (fatal): the peer could not produce the bytes, so the caller should
        fall back, not replay.  ``timeout`` bounds the *whole* exchange,
        including the far-side service time.
        """
        return self._dispatch(fn, args, timeout, awaited=True, label="request")

    def call_with_retry(
        self,
        fn: Callable[..., Any],
        *args: Any,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """:meth:`call` with exponential backoff under a total time budget.

        Retries transport errors and timeouts only; an
        :class:`RpcApplicationError` is re-raised immediately (the far side
        deterministically failed — retrying replays the bug).  When the
        attempt count or the time budget runs out the event fails with
        :class:`RpcRetriesExhausted` chaining the last transport error.
        """
        return self._dispatch(fn, args, timeout, False, "call_retry", policy or RetryPolicy())

    def request_with_retry(
        self,
        fn: Callable[..., Any],
        *args: Any,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        done: Any = None,
    ) -> Any:
        """:meth:`request` under the same backoff/budget as control calls.

        The retry set is identical — transport losses and timeouts only.
        Note the at-most-once caveat bites harder on the data plane: a
        timed-out request may have *completed* on the peer (the sample is
        now in its tier); retries are therefore idempotent reads, and peer
        caches must coalesce duplicate in-flight fetches.

        ``done``, when given, is settled in place of a fresh event and
        returned: ``done.succeed(value)`` on a reply, and ``done.fail(exc)``
        with a fatal failure at once or with :class:`RpcRetriesExhausted`
        once the schedule gives up.  A caller that falls back on failure hands
        down an object whose ``fail`` starts the fallback.
        """
        return self._dispatch(
            fn, args, timeout, True, "request_retry", policy or RetryPolicy(), done
        )
