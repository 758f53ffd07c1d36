"""The fault injector: drives a :class:`FaultPlan` against live components.

The injector owns no policy — it is the mechanism that turns schedule rows
into state changes on attached components, using the simulation kernel's
own event loop (``Simulator.at``) so faults fire at exact simulated times,
interleaved deterministically with the workload:

* ``device_slowdown``  → :meth:`BlockDevice.degrade_reads` for the window;
* ``read_error_burst`` / ``latency_spike`` → a ``fault_hook`` installed on
  attached filesystems, answering per-read with a
  :class:`~repro.storage.filesystem.ReadFault` (probabilistic errors draw
  from a named RNG stream, so runs replay exactly);
* ``producer_crash``   → :meth:`ParallelPrefetcher.crash_producer`;
* ``rpc_drop`` / ``rpc_delay`` → :meth:`ControlChannel.inject_drops` /
  :meth:`ControlChannel.inject_delay` for the window.

Overlap semantics: concurrent ``rpc_drop`` windows union (drops stay on
until the last window closes); concurrent ``device_slowdown`` and
``rpc_delay`` windows apply the most recently started severity, reverting
to the next surviving window (or health) as each closes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..simcore.random import RandomStreams
from ..telemetry import CounterSet
from ..storage.filesystem import ReadFault, TransientReadError
from .plan import (
    DEVICE_SLOWDOWN,
    LATENCY_SPIKE,
    PRODUCER_CRASH,
    READ_ERROR_BURST,
    RPC_DELAY,
    RPC_DROP,
    WINDOWED_KINDS,
    FaultEvent,
    FaultPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.control.rpc import ControlChannel
    from ..core.prefetcher import ParallelPrefetcher
    from ..simcore.kernel import Simulator
    from ..storage.device import BlockDevice


class FaultInjector:
    """Installs :class:`FaultPlan` schedules on attached components.

    Attach targets first (:meth:`attach_device` & friends), then
    :meth:`install` one or more plans.  Counters
    (``faults_injected``, per-kind counts, ``read_errors_injected``)
    feed the fault-sweep report and the chaos tests.
    """

    def __init__(
        self,
        sim: "Simulator",
        streams: Optional[RandomStreams] = None,
        name: str = "faults",
    ) -> None:
        self.sim = sim
        self.name = name
        self.counters = CounterSet(sim.metrics, "faults", name)
        self._rng = (streams or RandomStreams(0)).stream(f"{name}.reads")
        self._devices: List["BlockDevice"] = []
        self._filesystems: List[Any] = []
        self._prefetchers: List["ParallelPrefetcher"] = []
        self._channels: List["ControlChannel"] = []
        #: every installed event, for introspection
        self.installed: List[FaultEvent] = []
        # Read-path windows the fault hook consults per read.
        self._error_events: List[FaultEvent] = []
        self._latency_events: List[FaultEvent] = []
        # Overlap bookkeeping for exclusive knobs.
        self._active_slowdowns: List[FaultEvent] = []
        self._active_delays: List[FaultEvent] = []
        self._drop_windows = 0

    # -- attachment -------------------------------------------------------------
    def attach_device(self, device: "BlockDevice") -> None:
        self._devices.append(device)

    def attach_filesystem(self, fs: Any) -> None:
        """Install this injector's read hook on ``fs``.

        ``fs`` is anything exposing the ``fault_hook`` seam —
        :class:`~repro.storage.filesystem.Filesystem` or
        :class:`~repro.storage.distributed.DistributedFilesystem`.
        """
        if getattr(fs, "fault_hook", None) is not None:
            raise ValueError(f"{self.name}: filesystem already has a fault hook")
        fs.fault_hook = self._read_hook
        self._filesystems.append(fs)

    def attach_prefetcher(self, prefetcher: "ParallelPrefetcher") -> None:
        self._prefetchers.append(prefetcher)

    def attach_channel(self, channel: "ControlChannel") -> None:
        self._channels.append(channel)

    # -- installation -----------------------------------------------------------
    def install(self, plan: FaultPlan) -> None:
        """Schedule every event in ``plan`` on the simulator clock."""
        for ev in plan:
            self.installed.append(ev)
            if ev.kind == READ_ERROR_BURST:
                self._error_events.append(ev)
            elif ev.kind == LATENCY_SPIKE:
                self._latency_events.append(ev)
            self.sim.at(ev.time, self._begin, ev)
            if ev.kind in WINDOWED_KINDS:
                self.sim.at(ev.end, self._end, ev)

    @property
    def faults_injected(self) -> float:
        return self.counters.get("faults_injected")

    # -- event firing -------------------------------------------------------------
    def _begin(self, ev: FaultEvent) -> None:
        self.counters.add("faults_injected")
        self.counters.add(ev.kind)
        if ev.kind == DEVICE_SLOWDOWN:
            self._active_slowdowns.append(ev)
            for dev in self._devices:
                dev.degrade_reads(ev.severity)
        elif ev.kind == PRODUCER_CRASH:
            kills = 0
            for _ in range(int(round(ev.severity))):
                for pf in self._prefetchers:
                    if pf.crash_producer(cause=f"{self.name}: scheduled crash"):
                        kills += 1
            self.counters.add("producers_crashed", kills)
        elif ev.kind == RPC_DROP:
            self._drop_windows += 1
            for ch in self._channels:
                ch.inject_drops(True)
        elif ev.kind == RPC_DELAY:
            self._active_delays.append(ev)
            for ch in self._channels:
                ch.inject_delay(ev.severity)
        # read_error_burst / latency_spike act purely via the read hook.

    def _end(self, ev: FaultEvent) -> None:
        if ev.kind == DEVICE_SLOWDOWN:
            self._active_slowdowns.remove(ev)
            factor = self._active_slowdowns[-1].severity if self._active_slowdowns else 1.0
            for dev in self._devices:
                dev.degrade_reads(factor)
        elif ev.kind == RPC_DROP:
            self._drop_windows -= 1
            if self._drop_windows == 0:
                for ch in self._channels:
                    ch.inject_drops(False)
        elif ev.kind == RPC_DELAY:
            self._active_delays.remove(ev)
            extra = self._active_delays[-1].severity if self._active_delays else 0.0
            for ch in self._channels:
                ch.inject_delay(extra)

    # -- read-path hook -----------------------------------------------------------
    def _read_hook(self, path: str, nbytes: int) -> Optional[ReadFault]:
        """Per-read fault decision (installed as a filesystem ``fault_hook``)."""
        now = self.sim.now
        extra = 0.0
        for ev in self._latency_events:
            if ev.active_at(now) and ev.matches(path):
                extra += ev.severity
        error: Optional[Exception] = None
        for ev in self._error_events:
            if ev.active_at(now) and ev.matches(path):
                if float(self._rng.random()) < ev.severity:
                    error = TransientReadError(
                        f"{self.name}: injected read failure for {path!r}"
                    )
                    self.counters.add("read_errors_injected")
                    break
        if extra > 0:
            self.counters.add("latency_spikes_applied")
        if error is None and extra == 0.0:
            return None
        return ReadFault(error=error, extra_latency=extra)
