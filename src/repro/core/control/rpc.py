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
total time budget on top (:class:`RetryPolicy`), raising
:class:`RpcRetriesExhausted` once the budget or attempt count runs out.

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
instead.  :meth:`ControlChannel.request_with_retry` adds the same backoff
machinery :meth:`ControlChannel.call_with_retry` gives control RPCs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ...simcore.errors import ProcessError
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
    """One request/reply exchange in flight, as a chain of leg callbacks.

    ``done`` is what the exchange settles: the caller's event, or any
    object with an event's ``succeed(value)`` and ``fail(exc)`` that the
    caller handed down.  The exchange lets go of it once it settles, and
    cancels its deadline timer, which would fire into a settled exchange
    and do nothing.
    """

    __slots__ = ("channel", "fn", "args", "awaited", "done", "retry", "deadline")

    def __init__(
        self,
        channel: "ControlChannel",
        fn: Callable[..., Any],
        args: tuple,
        awaited: bool,
        done: Any,
        retry: Optional[Callable[[RpcError], None]],
    ) -> None:
        self.channel = channel
        self.fn = fn
        self.args = args
        self.awaited = awaited
        self.done = done
        self.retry = retry
        self.deadline: Optional[_Call] = None

    def settle(self, value: Any = None, exc: Optional[RpcError] = None) -> None:
        done, retry = self.done, self.retry
        if done is None:
            return  # the deadline beat us; late replies are discarded
        self.done = self.retry = None
        if self.deadline is not None:
            self.channel.sim.cancel(self.deadline)
            self.deadline = None
        if exc is None:
            done.succeed(value)
        elif retry is not None and not isinstance(exc, RpcApplicationError):
            retry(exc)
        else:
            done.fail(exc)

    def deliver(self, _arg: None) -> None:
        """The request leg arrives: run the far side."""
        ch = self.channel
        fn, args, self.fn, self.args = self.fn, self.args, None, None
        if ch._dropping:
            ch.counters.add("drops")
            self.settle(exc=RpcTransportError(f"{ch.name}: request dropped"))
            return
        try:
            result = fn(*args)
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

    def expire(self, timeout: float) -> None:
        if self.done is not None:
            self.channel.counters.add("timeouts")
            self.settle(exc=RpcTimeout(f"{self.channel.name}: no reply within {timeout:g}s"))


class ControlChannel:
    """Bidirectional request/response path with symmetric one-way latency."""

    def __init__(self, sim: "Simulator", latency: float = LOCAL_LATENCY, name: str = "ctl") -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        self.name = name
        self.counters = CounterSet(sim.metrics, "rpc", name)
        #: event and process names, formatted once per channel
        self._labels = {
            label: f"{name}.{label}"
            for label in ("call", "request", "call_retry", "request_retry", "rpc_retry")
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
        """Start one request/reply exchange; returns what it settles.

        ``awaited`` selects data-plane semantics: a far-side return value
        that is itself an :class:`Event` is waited on before the reply leg,
        and its failure is a far-side (application) failure.  The far side
        never runs on the caller's stack: even at zero latency the request
        leg is a kernel event.  ``done``, when given, is settled in place
        of a fresh event (see :class:`_Exchange`).

        ``policy``, when given, is the backoff and budget of
        call_with_retry / request_with_retry: the first attempt is this
        exchange, and only a retryable failure of it spawns the retry
        loop, which then settles that same ``done``.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        sim = self.sim
        if done is None:
            done = Event(sim, name=self._labels[label])
        retry = None
        if policy is not None:
            start = sim.now

            def retry(exc: RpcError) -> None:
                invoke = self.request if awaited else self.call
                loop = sim.process(
                    self._retry_loop(invoke, fn, args, policy, timeout, start, exc),
                    name=self._labels["rpc_retry"],
                )

                def settle(p: Event) -> None:
                    if p.ok:
                        done.succeed(p.value)
                        return
                    err = p.exception
                    cause = err.__cause__ if isinstance(err, ProcessError) else err
                    done.fail(cause if isinstance(cause, RpcError) else err)

                loop.add_callback(settle)

        exchange = _Exchange(self, fn, args, awaited, done, retry)
        sim.call_later(self.latency + self._extra_delay, exchange.deliver)
        if timeout is not None:
            exchange.deadline = sim.call_later(timeout, exchange.expire, timeout)
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
        self.counters.calls.value += 1
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
        self.counters.requests.value += 1
        return self._dispatch(fn, args, timeout, awaited=True, label="request")

    def _retry_loop(
        self,
        invoke: Callable[..., Event],
        fn: Callable[..., Any],
        args: tuple,
        pol: RetryPolicy,
        timeout: Optional[float],
        start: float,
        last: RpcError,
    ):
        """Attempts 2..N after a first attempt failed with ``last``."""
        for attempt in range(1, pol.max_attempts):
            if self.sim.now - start >= pol.budget:
                break
            backoff = pol.delay_for(attempt)
            if self.sim.now + backoff - start > pol.budget:
                break  # the backoff alone would blow the budget
            self.counters.add("retries")
            if backoff > 0:
                yield self.sim.timeout(backoff)
            try:
                return (yield invoke(fn, *args, timeout=timeout))
            except RpcApplicationError:
                raise
            except RpcError as exc:
                last = exc
        raise RpcRetriesExhausted(
            f"{self.name}: gave up after {pol.max_attempts} attempts / "
            f"{pol.budget:g}s budget"
        ) from last

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
        self.counters.calls.value += 1
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
        after the retry loop.  A caller that falls back on failure hands
        down an object whose ``fail`` starts the fallback.
        """
        self.counters.requests.value += 1
        return self._dispatch(
            fn, args, timeout, True, "request_retry", policy or RetryPolicy(), done
        )
