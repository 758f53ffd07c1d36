"""Fault-sweep scenario: PRISMA under a storm of injected failures.

One simulated "epoch" of consumers reading through a PRISMA stage while a
:class:`~repro.faults.FaultPlan` fires every fault kind at the stack —
device slowdown, read-error burst, latency spike, producer crash, and
control-plane drops/delays.  The run demonstrates (and the chaos tests
assert) the graceful-degradation machinery end to end:

* no consumer hangs — every requested sample is served or fails loudly
  within a bounded simulated time;
* the degraded-mode policy shrinks ``(t, N)`` while errors spike and
  restores them once the window closes;
* throughput recovers after the last fault window.

The report's :meth:`FaultSweepReport.metrics_dict` is deliberately
deterministic (same seed + plan → byte-identical JSON), which the
determinism regression test relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import (
    DegradedModePolicy,
    PrismaAutotunePolicy,
    PrismaConfig,
    build_prisma,
)
from ..faults import (
    DEVICE_SLOWDOWN,
    LATENCY_SPIKE,
    PRODUCER_CRASH,
    READ_ERROR_BURST,
    RPC_DELAY,
    RPC_DROP,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from ..simcore import AllOf, AnyOf, Simulator
from ..simcore.random import RandomStreams
from ..storage.backend import BackendConfig, build_backend
from ..storage.posix import PosixLayer

KiB = 1024


def demo_plan(start: float = 0.1, span: float = 0.25) -> FaultPlan:
    """The default storm: one of every fault kind inside ``[start, start+span)``."""
    if start < 0 or span <= 0:
        raise ValueError("start must be >= 0 and span positive")
    return FaultPlan(
        [
            FaultEvent(DEVICE_SLOWDOWN, time=start, duration=span, severity=0.3),
            FaultEvent(
                READ_ERROR_BURST,
                time=start + 0.05 * span,
                duration=0.4 * span,
                severity=0.4,
            ),
            FaultEvent(RPC_DROP, time=start + 0.1 * span, duration=0.25 * span),
            FaultEvent(
                LATENCY_SPIKE,
                time=start + 0.3 * span,
                duration=0.3 * span,
                severity=2e-3,
            ),
            FaultEvent(PRODUCER_CRASH, time=start + 0.5 * span, severity=1),
            FaultEvent(
                RPC_DELAY,
                time=start + 0.6 * span,
                duration=0.3 * span,
                severity=1e-3,
            ),
        ]
    )


@dataclass
class FaultSweepReport:
    """Everything one fault-sweep run produces."""

    seed: int
    n_files: int
    completed: bool
    sim_seconds: float
    files_served: int
    serve_failures: int
    #: files/s in the three phases split by the plan's fault window
    throughput_before: float
    throughput_during: float
    throughput_after: float
    degraded_engagements: int
    degraded_cycles: int
    injector: Dict[str, float] = field(default_factory=dict)
    prefetcher: Dict[str, float] = field(default_factory=dict)
    control: Dict[str, float] = field(default_factory=dict)
    #: (time, path, exception type) of every failed serve
    failures: List[Tuple[float, str, str]] = field(default_factory=list)

    def metrics_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (the determinism-test surface)."""
        return {
            "seed": self.seed,
            "n_files": self.n_files,
            "completed": self.completed,
            "sim_seconds": self.sim_seconds,
            "files_served": self.files_served,
            "serve_failures": self.serve_failures,
            "throughput_before": self.throughput_before,
            "throughput_during": self.throughput_during,
            "throughput_after": self.throughput_after,
            "degraded_engagements": self.degraded_engagements,
            "degraded_cycles": self.degraded_cycles,
            "injector": dict(sorted(self.injector.items())),
            "prefetcher": dict(sorted(self.prefetcher.items())),
            "control": dict(sorted(self.control.items())),
        }


def run_fault_sweep(
    seed: int = 0,
    n_files: int = 600,
    file_size: int = 112 * KiB,
    consumers: int = 2,
    consume_time: float = 1.5e-3,
    plan: Optional[FaultPlan] = None,
    control_period: float = 10e-3,
    time_limit: float = 60.0,
    telemetry=None,
) -> FaultSweepReport:
    """One PRISMA run under an injected fault storm.

    ``time_limit`` (simulated seconds) is the hang watchdog: a healthy run
    finishes in well under a second of simulated time, so hitting the limit
    means a consumer is stuck — reported as ``completed=False``, never as
    a test-suite hang.  ``telemetry`` is an optional
    :class:`repro.telemetry.Telemetry` hub recording the storm's spans.
    """
    if n_files < consumers or consumers < 1:
        raise ValueError("need at least one file per consumer")
    streams = RandomStreams(seed)
    sim = Simulator()
    if telemetry is not None:
        telemetry.attach(sim, process=f"fault-sweep/seed{seed}")
    fs = build_backend(sim, BackendConfig(device_profile="intel-p4600"), streams=streams)
    device = fs.device
    paths = [f"/data/train/{i:06d}" for i in range(n_files)]
    fs.create_many((p, file_size) for p in paths)
    posix = PosixLayer(sim, fs)

    policy = DegradedModePolicy(PrismaAutotunePolicy())
    stage, prefetcher, controller = build_prisma(
        sim, posix, PrismaConfig(control_period=control_period, policy=policy)
    )

    injector = FaultInjector(sim, streams=streams)
    injector.attach_device(device)
    injector.attach_filesystem(fs)
    injector.attach_prefetcher(prefetcher)
    for channel in controller.channels():
        injector.attach_channel(channel)
    plan = demo_plan() if plan is None else plan
    injector.install(plan)

    stage.load_epoch(paths)
    served: List[float] = []
    failures: List[Tuple[float, str, str]] = []

    def consumer(my_paths: List[str]):
        for path in my_paths:
            try:
                yield stage.read_whole(path)
            except Exception as exc:  # noqa: BLE001 - chaos: record and move on
                failures.append((sim.now, path, type(exc).__name__))
            else:
                served.append(sim.now)
            if consume_time > 0:
                yield sim.timeout(consume_time)

    procs = [
        sim.process(consumer(paths[c::consumers]), name=f"consumer{c}")
        for c in range(consumers)
    ]
    done = AllOf(sim, procs)
    sim.run(until=AnyOf(sim, [done, sim.timeout(time_limit)]))
    completed = done.triggered and done.ok
    controller.stop()

    # Phase throughput, split by the plan's overall fault window.
    fault_start = min((ev.time for ev in plan), default=0.0)
    fault_end = plan.horizon
    end = sim.now

    def rate(lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        return sum(1 for t in served if lo <= t < hi) / (hi - lo)

    report = FaultSweepReport(
        seed=seed,
        n_files=n_files,
        completed=completed,
        sim_seconds=end,
        files_served=len(served),
        serve_failures=len(failures),
        throughput_before=rate(0.0, fault_start),
        throughput_during=rate(fault_start, fault_end),
        throughput_after=rate(fault_end, end),
        degraded_engagements=len(policy.engage_times),
        degraded_cycles=policy.degraded_cycles,
        injector=injector.counters.as_dict(),
        prefetcher={
            "producer_crashes": float(prefetcher.producer_crashes),
            "producer_respawns": float(prefetcher.producer_respawns),
            "read_errors": float(prefetcher.read_errors),
            "serve_retries": float(prefetcher.serve_retries),
            "files_fetched": float(prefetcher.files_fetched),
            "final_producers": float(prefetcher.target_producers),
            "final_buffer_capacity": float(prefetcher.buffer.capacity),
        },
        control={
            "cycles": float(controller.cycles),
            "enforcements": float(controller.enforcements),
            "rpc_failures": float(controller.rpc_failures),
            "channel_retries": sum(
                ch.counters.get("retries") for ch in controller.channels()
            ),
            "channel_drops": sum(
                ch.counters.get("drops") for ch in controller.channels()
            ),
            "channel_timeouts": sum(
                ch.counters.get("timeouts") for ch in controller.channels()
            ),
        },
        failures=failures,
    )
    # The result is built: unhook the injector and free the run's stack.
    fs.fault_hook = None
    if telemetry is not None:
        telemetry.detach()
    sim.close()
    return report


def format_fault_sweep(report: FaultSweepReport) -> str:
    """ASCII rendering for the ``repro faults-demo`` CLI command."""
    lines = [
        "fault sweep (seed=%d, %d files)" % (report.seed, report.n_files),
        "  completed:            %s" % ("yes" if report.completed else "NO — hang?"),
        "  simulated time:       %.3f s" % report.sim_seconds,
        "  served / failed:      %d / %d" % (report.files_served, report.serve_failures),
        "  throughput (files/s): before %.0f | during faults %.0f | after %.0f"
        % (report.throughput_before, report.throughput_during, report.throughput_after),
        "  degraded mode:        %d engagement(s), %d degraded cycle(s)"
        % (report.degraded_engagements, report.degraded_cycles),
        "  faults injected:      %d" % report.injector.get("faults_injected", 0),
    ]
    for key in sorted(report.injector):
        if key != "faults_injected":
            lines.append("    %-22s %g" % (key, report.injector[key]))
    lines.append("  prefetcher:")
    for key in sorted(report.prefetcher):
        lines.append("    %-22s %g" % (key, report.prefetcher[key]))
    lines.append("  control plane:")
    for key in sorted(report.control):
        lines.append("    %-22s %g" % (key, report.control[key]))
    return "\n".join(lines)
