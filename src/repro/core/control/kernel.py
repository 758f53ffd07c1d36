"""The execution-agnostic control kernel (paper §III-A).

The paper's control plane is *logically centralized* and independent of the
data plane it tunes.  This module is that independence made literal: ONE
implementation of the monitor→decide→enforce cycle, written against two
pluggable seams so every deployment shape reuses it unchanged:

* a **driver** supplies the clock and the execution context — the simulated
  :class:`~.controller.Controller` runs the cycle inside a kernel process on
  simulated time, the thread-based
  :class:`~repro.core.live.controller.LiveController` runs it on a wall-clock
  daemon thread, and :class:`~.replicated.ReplicatedController` layers
  heartbeat failover over two sim drivers;
* a **transport** carries each control call to its stage —
  :class:`ChannelTransport` crosses a latency/fault-modelled
  :class:`~.rpc.ControlChannel` with retry/backoff, while
  :class:`DirectTransport` makes the in-process call of a live deployment
  under the *same* :class:`~.retry.RetryPolicy` and typed-error taxonomy.

The kernel owns everything in between: stage registration against the
narrow :class:`StagePort` surface, bounded per-stage
:class:`~.monitor.MetricsHistory`, multi-object snapshot aggregation,
per-stage vs :class:`GlobalPolicy` dispatch, degraded-mode edge detection,
RPC failure accounting, and telemetry emission (``control.monitor`` /
``control.enforce`` spans, ``control.decision`` instants).  Control features
land here once and every plane gets them.

Mechanically, :meth:`ControlCycle.cycle` is a *sans-I/O* generator: it
yields :class:`PortCall` commands and never performs a call itself.  The
two pumps resolve them — :meth:`ControlCycle.run_events` inside a simulated
process (yielding transport events), :meth:`ControlCycle.run_inline`
synchronously on a thread.  Transport failures are thrown back into the
generator as typed :class:`~.retry.RpcError` subclasses, so the skip/account
logic is written exactly once.
"""

from __future__ import annotations

import abc
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

try:  # pragma: no cover - Protocol is 3.8+; fall back for exotic interpreters
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from ..optimization import MetricsSnapshot, TuningSettings
from .monitor import DEFAULT_MAX_ENTRIES, MetricsHistory
from .policy import ControlPolicy
from .retry import (
    RetryPolicy,
    RpcApplicationError,
    RpcRetriesExhausted,
    RpcTransportError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rpc import ControlChannel


class StagePort(Protocol):
    """The narrow surface a data plane exposes to the control plane.

    Both :class:`~repro.core.stage.PrismaStage` (simulated) and
    :class:`~repro.core.live.prefetcher.LivePrefetcher` (real threads)
    satisfy it structurally — the kernel never knows which it is driving.
    ``control_snapshot`` may return one :class:`MetricsSnapshot` or a list
    (one per optimization object); lists are aggregated before recording.
    """

    name: str

    def control_snapshot(self) -> Union[MetricsSnapshot, List[MetricsSnapshot]]: ...

    def control_apply(self, settings: TuningSettings) -> None: ...


class GlobalPolicy(abc.ABC):
    """A policy that decides over *all* stages jointly (system-wide visibility)."""

    @abc.abstractmethod
    def decide_all(
        self, histories: Dict[str, MetricsHistory]
    ) -> Dict[str, TuningSettings]:
        """Map stage name -> new settings (omit stages to leave unchanged)."""


# ---------------------------------------------------------------- transports
class ControlTransport(abc.ABC):
    """How one control-plane call reaches a stage.

    Concrete transports implement exactly one resolution style:
    :class:`ChannelTransport` is *event-based* (``issue`` returns a
    simulator event the driver waits on), :class:`DirectTransport` is
    *synchronous* (``invoke`` returns the value).  Both surface failures
    through the same typed taxonomy of :mod:`.rpc`.
    """

    kind: str = "abstract"


class ChannelTransport(ControlTransport):
    """Calls crossing a :class:`~.rpc.ControlChannel` with retry/backoff."""

    kind = "channel"

    def __init__(
        self,
        channel: ControlChannel,
        retry_policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.channel = channel
        self.retry_policy = retry_policy or RetryPolicy()
        self.timeout = timeout

    def issue(self, fn: Callable[..., Any], *args: Any):
        """One reliable control-plane RPC as a simulator event."""
        return self.channel.call_with_retry(
            fn, *args, policy=self.retry_policy, timeout=self.timeout
        )


class DirectTransport(ControlTransport):
    """In-process call under the shared retry policy and error taxonomy.

    The live deployment's transport: the far side is a plain method call,
    but failures still classify exactly as over a channel — transport-class
    errors (:class:`~.retry.RpcTransportError`, :class:`~.retry.RpcTimeout`)
    are retried on the channel's schedule,
    :meth:`~.retry.RetryPolicy.next_backoff`, under its wall-clock budget;
    anything else the callee raises becomes a fatal
    :class:`~.retry.RpcApplicationError`, and an exhausted schedule raises
    :class:`~.retry.RpcRetriesExhausted` chaining the last transport error.
    """

    kind = "direct"

    def __init__(
        self,
        retry_policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        name: str = "direct",
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.name = name
        self.calls = 0
        self.retries = 0

    def invoke(self, fn: Callable[..., Any], *args: Any) -> Any:
        self.calls += 1
        pol = self.retry_policy
        start = self.clock()
        for failed in itertools.count(1):
            try:
                return fn(*args)
            except RpcApplicationError:
                raise
            except RpcTransportError as exc:
                backoff = pol.next_backoff(failed, self.clock() - start)
                if backoff is None:
                    raise RpcRetriesExhausted(
                        f"{self.name}: gave up after {pol.max_attempts} attempts / "
                        f"{pol.budget:g}s budget"
                    ) from exc
            except Exception as exc:  # noqa: BLE001 - typed and re-raised
                raise RpcApplicationError(
                    f"{self.name}: callee raised {type(exc).__name__}"
                ) from exc
            self.retries += 1
            if backoff > 0:
                self.sleep(backoff)


# ---------------------------------------------------------------- registration
@dataclass
class KernelRegistration:
    """One stage attached to the kernel: port + policy + transport + history."""

    port: StagePort
    policy: Optional[ControlPolicy]
    transport: ControlTransport
    history: MetricsHistory
    #: degraded-mode state seen at the last cycle (telemetry edge detection)
    last_engaged: bool = field(default=False, init=False)


@dataclass
class PortCall:
    """A command yielded by :meth:`ControlCycle.cycle`: call ``fn(*args)``.

    The pump resolves it through ``registration.transport`` and sends the
    result (or throws the typed failure) back into the cycle generator.
    """

    registration: KernelRegistration
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()

    @property
    def transport(self) -> ControlTransport:
        return self.registration.transport


#: Default bound on per-stage history retention (snapshots per stage).
DEFAULT_HISTORY_LIMIT = DEFAULT_MAX_ENTRIES

#: Transport-class failures the kernel absorbs (skip the stage this cycle).
_SKIPPABLE = (RpcTransportError, RpcRetriesExhausted)


class ControlCycle:
    """The one monitor→decide→enforce implementation, driver-agnostic.

    Drivers own *when* cycles run (sim process vs daemon thread vs failover
    replica) and call one of the pumps per period; the kernel owns *what* a
    cycle does.  A stage whose transport stays down through the retry
    budget is skipped for the cycle (``rpc_failures`` incremented) — the
    control plane degrades to stale knobs rather than crashing, while a
    far-side :class:`~.retry.RpcApplicationError` propagates to the driver
    (retrying would replay a deterministic bug).
    """

    def __init__(
        self,
        name: str = "prisma.kernel",
        *,
        clock: Callable[[], float] = time.monotonic,
        telemetry: Optional[Callable[[], Any]] = None,
        global_policy: Optional[GlobalPolicy] = None,
        history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT,
    ) -> None:
        self.name = name
        self.clock = clock
        #: zero-argument callable returning the current telemetry hub (or
        #: None) — indirect so drivers whose hub attaches mid-run are seen
        self._telemetry = telemetry if telemetry is not None else (lambda: None)
        self.global_policy = global_policy
        self.history_limit = history_limit
        self._registrations: List[KernelRegistration] = []
        self.cycles = 0
        self.enforcements = 0
        #: monitor polls or enforcement pushes abandoned after retries —
        #: the stage keeps its previous settings for that cycle (degraded
        #: but alive, never crashed)
        self.rpc_failures = 0
        #: driver-clock time of the last completed control cycle (the
        #: heartbeat the dependability machinery in :mod:`.replicated`
        #: watches)
        self.last_cycle_time: float = float("-inf")

    # -- registration ------------------------------------------------------------
    def register(
        self,
        port: StagePort,
        policy: Optional[ControlPolicy] = None,
        transport: Optional[ControlTransport] = None,
    ) -> MetricsHistory:
        """Attach a stage port; returns its history for later inspection."""
        if policy is None and self.global_policy is None:
            raise ValueError("a per-stage policy or a global policy is required")
        reg = KernelRegistration(
            port=port,
            policy=policy,
            transport=transport or DirectTransport(name=f"{self.name}.direct"),
            history=MetricsHistory(port.name, max_entries=self.history_limit),
        )
        self._registrations.append(reg)
        return reg.history

    def registrations(self) -> List[KernelRegistration]:
        return list(self._registrations)

    def histories(self) -> Dict[str, MetricsHistory]:
        return {reg.port.name: reg.history for reg in self._registrations}

    def history_for(self, stage_name: str) -> MetricsHistory:
        for reg in self._registrations:
            if reg.port.name == stage_name:
                return reg.history
        raise KeyError(stage_name)

    # -- telemetry helpers --------------------------------------------------------
    @staticmethod
    def _degraded_state(policy) -> Optional[bool]:
        """Walk a (possibly wrapped) policy chain for degraded-mode state."""
        seen = set()
        while policy is not None and id(policy) not in seen:
            seen.add(id(policy))
            engaged = getattr(policy, "engaged", None)
            if engaged is not None:
                return bool(engaged)
            policy = getattr(policy, "inner", None)
        return None

    def _note_decision(self, tel, reg: KernelRegistration, decision, policy) -> None:
        """Emit the policy-decision event and any degraded-mode transition.

        The instant carries the stage's workload feature labels (batch
        size, backend kind, lookahead — whatever the port's
        ``control_features`` reports) alongside the decided (t, N), so the
        metrics JSONL export is self-describing performance-model training
        data: no joining decisions back to policy or builder state.
        """
        if tel is None:
            return
        features = {}
        control_features = getattr(reg.port, "control_features", None)
        if control_features is not None:
            features = dict(control_features())
        tel.instant(
            "control.decision",
            self.name,
            "control",
            stage=reg.port.name,
            producers=decision.producers,
            buffer_capacity=decision.buffer_capacity,
            reason=getattr(policy, "last_reason", None),
            **features,
        )
        engaged = self._degraded_state(policy)
        if engaged is not None and engaged != reg.last_engaged:
            reg.last_engaged = engaged
            tel.instant(
                "control.degraded_engage" if engaged else "control.degraded_recover",
                self.name,
                "control",
                stage=reg.port.name,
            )

    def _note_failure(self, tel, span, exc: BaseException) -> None:
        self.rpc_failures += 1
        if tel is not None:
            tel.end(span, ok=False, error=type(exc).__name__)

    def _record(self, reg: KernelRegistration, snapshots) -> None:
        """Aggregate and append a monitor poll's result to the history.

        Multi-object stages report one snapshot per optimization object;
        recording their aggregate (summed counters, last-writer gauges)
        keeps every object's traffic in the history.
        """
        if snapshots is None:
            return
        if isinstance(snapshots, MetricsSnapshot):
            snapshots = [snapshots]
        snapshots = list(snapshots)
        if snapshots:
            reg.history.append(MetricsSnapshot.aggregate(snapshots))

    # -- the cycle (sans-I/O) ---------------------------------------------------
    def cycle(self):
        """One monitor→decide→enforce pass as a command generator.

        Yields :class:`PortCall` commands; the pump sends each call's
        result back in (or throws its typed failure).  A stage whose
        transport fails through the retry budget is skipped for the cycle.
        """
        tel = self._telemetry()

        # Monitor: poll every stage.
        for reg in self._registrations:
            span = None
            if tel is not None:
                span = tel.begin(
                    "control.monitor", self.name, "control", stage=reg.port.name
                )
            try:
                snapshots = yield PortCall(reg, reg.port.control_snapshot)
            except _SKIPPABLE as exc:
                self._note_failure(tel, span, exc)
                continue
            if tel is not None:
                tel.end(span, ok=True)
            self._record(reg, snapshots)

        # Decide + enforce: one global decision over all histories, or one
        # per-stage policy each.
        if self.global_policy is not None:
            decisions = self.global_policy.decide_all(self.histories())
            for reg in self._registrations:
                settings = decisions.get(reg.port.name)
                if settings is not None:
                    self._note_decision(tel, reg, settings, self.global_policy)
                    yield from self._enforce(tel, reg, settings)
            return

        for reg in self._registrations:
            assert reg.policy is not None
            if reg.history.latest is None:
                continue
            decision = reg.policy.decide(reg.history.latest, reg.history.previous)
            if decision is not None:
                self._note_decision(tel, reg, decision, reg.policy)
                yield from self._enforce(tel, reg, decision)

    def _enforce(self, tel, reg: KernelRegistration, settings):
        """Push settings to the stage inside a ``control.enforce`` span."""
        span = None
        if tel is not None:
            span = tel.begin(
                "control.enforce", self.name, "control", stage=reg.port.name
            )
        try:
            yield PortCall(reg, reg.port.control_apply, (settings,))
        except _SKIPPABLE as exc:
            self._note_failure(tel, span, exc)
            return
        if tel is not None:
            tel.end(span, ok=True)
        self.enforcements += 1

    # -- pumps -------------------------------------------------------------------
    def run_events(self):
        """Drive one cycle where transports resolve calls as simulator events.

        A generator of events: ``yield from kernel.run_events()`` inside a
        simulated process.  Requires every transport to be event-based
        (:class:`ChannelTransport`).
        """
        gen = self.cycle()
        payload: Any = None
        error: Optional[BaseException] = None
        while True:
            try:
                call = gen.throw(error) if error is not None else gen.send(payload)
            except StopIteration:
                return
            finally:
                # A kept failure's traceback holds this frame: drop it here.
                payload = error = None
            try:
                payload = yield call.transport.issue(call.fn, *call.args)
            except _SKIPPABLE as exc:
                error = exc

    def run_inline(self) -> None:
        """Drive one cycle synchronously (direct transports, live driver)."""
        gen = self.cycle()
        payload: Any = None
        error: Optional[BaseException] = None
        while True:
            try:
                call = gen.throw(error) if error is not None else gen.send(payload)
            except StopIteration:
                return
            finally:
                # A kept failure's traceback holds this frame: drop it here.
                payload = error = None
            try:
                payload = call.transport.invoke(call.fn, *call.args)
            except _SKIPPABLE as exc:
                error = exc

    def complete_cycle(self) -> None:
        """Account one finished cycle; stamps the heartbeat."""
        self.cycles += 1
        self.last_cycle_time = self.clock()


__all__ = [
    "ChannelTransport",
    "ControlCycle",
    "ControlTransport",
    "DEFAULT_HISTORY_LIMIT",
    "DirectTransport",
    "GlobalPolicy",
    "KernelRegistration",
    "PortCall",
    "StagePort",
]
