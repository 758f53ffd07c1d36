"""Chaos suite: fault injection, graceful degradation, and recovery.

Per fault kind the chaos tests assert the three dependability properties
the fault subsystem promises: the run *completes* (no consumer hangs
within a bounded simulated time), every requested sample is served or
fails loudly, and throughput *recovers* once the fault window closes.
Unit tests cover the pieces: typed RPC failures and retry, producer
supervision, the degraded-mode policy state machine, and the injector's
window bookkeeping.  A determinism regression pins byte-identical
metrics for identical (seed, plan) pairs.
"""

import json

import pytest

from repro.core import (
    DegradedModeParams,
    DegradedModePolicy,
    ParallelPrefetcher,
    RetryPolicy,
    RpcApplicationError,
    RpcRetriesExhausted,
    RpcTimeout,
    RpcTransportError,
)
from repro.core.control.kernel import DirectTransport
from repro.core.control.rpc import ControlChannel
from repro.core.optimization import MetricsSnapshot, TuningSettings
from repro.experiments.faults import demo_plan, run_fault_sweep
from repro.faults import (
    DEVICE_SLOWDOWN,
    FAULT_KINDS,
    LATENCY_SPIKE,
    PRODUCER_CRASH,
    READ_ERROR_BURST,
    RPC_DELAY,
    RPC_DROP,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.simcore import RandomStreams, Simulator
from repro.storage.device import BlockDevice, intel_p4600
from repro.storage.filesystem import Filesystem, ReadFault, TransientReadError
from repro.storage.posix import PosixLayer

KiB = 1024


# ---------------------------------------------------------------- helpers
def _drive(sim, gen):
    """Run ``gen`` as a process to completion; return {'value'| 'exc'}."""
    out = {}

    def wrapper():
        try:
            out["value"] = yield from gen()
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            out["exc"] = exc

    sim.process(wrapper())
    sim.run()
    return out


def _stack(n_files=200, file_size=64 * KiB, seed=0, **prefetcher_kw):
    """A device+fs+prefetcher stack with ``n_files`` staged files."""
    streams = RandomStreams(seed)
    sim = Simulator()
    device = BlockDevice(sim, intel_p4600(), streams=streams)
    fs = Filesystem(sim, device)
    paths = [f"/data/{i:05d}" for i in range(n_files)]
    fs.create_many((p, file_size) for p in paths)
    posix = PosixLayer(sim, fs)
    pf = ParallelPrefetcher(sim, posix, producers=4, **prefetcher_kw)
    return sim, device, fs, posix, pf, paths, streams


# ---------------------------------------------------------------- Simulator.at
def test_at_runs_callback_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.at(0.5, seen.append, "late")
    sim.at(0.1, seen.append, "early")
    sim.run()
    assert seen == ["early", "late"]
    assert sim.now == pytest.approx(0.5)


def test_at_clamps_past_times_to_now():
    sim = Simulator()
    sim.run(until=1.0)
    seen = []
    sim.at(0.2, seen.append, "clamped")  # in the past: fires immediately
    sim.run()
    assert seen == ["clamped"]
    assert sim.now == pytest.approx(1.0)


# ---------------------------------------------------------------- FaultPlan
def test_fault_plan_sorts_and_validates():
    late = FaultEvent(DEVICE_SLOWDOWN, time=2.0, duration=1.0, severity=0.5)
    early = FaultEvent(PRODUCER_CRASH, time=0.5)
    plan = FaultPlan([late, early])
    assert [ev.time for ev in plan] == [0.5, 2.0]
    assert plan.horizon == 3.0
    assert plan.of_kind(PRODUCER_CRASH) == (early,)
    assert len(plan.merged(plan)) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="no_such_kind", time=0.0),
        dict(kind=DEVICE_SLOWDOWN, time=-1.0, duration=1.0, severity=0.5),
        dict(kind=DEVICE_SLOWDOWN, time=0.0, duration=0.0, severity=0.5),
        dict(kind=DEVICE_SLOWDOWN, time=0.0, duration=1.0, severity=1.5),
        dict(kind=READ_ERROR_BURST, time=0.0, duration=1.0, severity=0.0),
        dict(kind=LATENCY_SPIKE, time=0.0, duration=1.0, severity=0.0),
        dict(kind=PRODUCER_CRASH, time=0.0, duration=1.0),
        dict(kind=PRODUCER_CRASH, time=0.0, severity=0.0),
        dict(kind=RPC_DELAY, time=0.0, duration=1.0, severity=-1e-3),
    ],
)
def test_fault_event_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        FaultEvent(**kwargs)


def test_random_plan_is_seed_deterministic():
    a = FaultPlan.random(RandomStreams(123), horizon=5.0)
    b = FaultPlan.random(RandomStreams(123), horizon=5.0)
    c = FaultPlan.random(RandomStreams(124), horizon=5.0)
    assert a == b
    assert a != c  # different seed, different storm
    assert all(ev.end <= 5.0 for ev in a)


# ---------------------------------------------------------------- RPC failures
def test_rpc_call_delivers_result_and_latency():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    out = _drive(sim, lambda: (yield ch.call(lambda a, b: a + b, 2, 3)))
    assert out["value"] == 5
    assert sim.now == pytest.approx(2e-3)


def test_rpc_drop_raises_typed_transport_error():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    ch.inject_drops(True)
    out = _drive(sim, lambda: (yield ch.call(lambda: 1)))
    assert isinstance(out["exc"], RpcTransportError)
    assert ch.counters.get("drops") == 1


def test_rpc_timeout_beats_slow_reply():
    """The deadline fails the call at 2 ms, and the request leg still
    lands at 5 ms and runs ``fn``: the at-most-once ambiguity ``call``
    documents."""
    sim = Simulator()
    ch = ControlChannel(sim, latency=5e-3)  # round trip 10 ms
    ran, failed = [], []
    ev = ch.call(lambda: ran.append(sim.now), timeout=2e-3)
    ev.add_callback(lambda e: failed.append((sim.now, e.exception)))
    sim.run()  # dry: past the timeout, the far side and the late reply
    [(when, exc)] = failed
    assert when == pytest.approx(2e-3) and isinstance(exc, RpcTimeout)
    assert ch.counters.get("timeouts") == 1
    assert ran == [pytest.approx(5e-3)]


def test_timed_out_request_attempts_still_run_the_far_side():
    """Each attempt's deadline (1 ms) beats its request leg (2 ms): every
    attempt times out, and every leg still lands and runs the far side,
    once per attempt, as often as ``requests`` counts."""
    sim = Simulator()
    ch = ControlChannel(sim, latency=2e-3)
    policy = RetryPolicy(max_attempts=3, base_delay=1e-3, budget=1.0)
    ran, failed = [], []
    ev = ch.request_with_retry(lambda: ran.append(sim.now), policy=policy, timeout=1e-3)
    ev.add_callback(lambda e: failed.append((sim.now, e.exception)))
    sim.run()
    # Sent at 0, 2 and 5 ms (timeouts at 1, 3 and 6 ms; backoffs 1 and 2 ms).
    [(when, exc)] = failed
    assert when == pytest.approx(6e-3) and isinstance(exc, RpcRetriesExhausted)
    assert isinstance(exc.__cause__, RpcTimeout)
    assert ran == [pytest.approx(t) for t in (2e-3, 4e-3, 7e-3)]
    assert len(ran) == ch.counters.get("requests") == 3
    assert ch.counters.get("timeouts") == 3 and ch.counters.get("retries") == 2


def test_channel_and_direct_transport_share_one_schedule():
    """One policy, two transports: attempts at 0, 1 and 3 ms, then the
    schedule gives up, because the 4 ms backoff would overrun the 6 ms
    budget."""
    policy = RetryPolicy(max_attempts=5, base_delay=1e-3, budget=6e-3)
    expected = [pytest.approx(t) for t in (0.0, 1e-3, 3e-3)]

    sim = Simulator()
    ch = ControlChannel(sim, latency=0.0)
    ch.inject_drops(True)
    failed, drops = [], []  # at zero latency a request drops as it is sent
    ev = ch.call_with_retry(lambda: 1, policy=policy)
    ev.add_callback(lambda e: failed.append((sim.now, e.exception)))
    while sim.peek() < float("inf"):
        sim.step()
        if ch.counters.get("drops") > len(drops):
            drops.append(sim.now)
    assert drops == expected
    [(when, exc)] = failed
    assert when == pytest.approx(3e-3) and isinstance(exc, RpcRetriesExhausted)
    assert ch.counters.get("calls") == 3 and ch.counters.get("retries") == 2

    now, attempts = [0.0], []

    def sleep(seconds):
        now[0] += seconds

    def down():
        attempts.append(now[0])
        raise RpcTransportError("down")

    transport = DirectTransport(retry_policy=policy, clock=lambda: now[0], sleep=sleep)
    with pytest.raises(RpcRetriesExhausted) as excinfo:
        transport.invoke(down)
    assert attempts == expected
    assert isinstance(excinfo.value.__cause__, RpcTransportError)
    assert transport.calls == 1 and transport.retries == 2


def test_rpc_far_side_exception_is_fatal_application_error():
    sim = Simulator()
    ch = ControlChannel(sim)

    def broken():
        raise ValueError("far-side bug")

    out = _drive(sim, lambda: (yield ch.call(broken)))
    assert isinstance(out["exc"], RpcApplicationError)
    assert isinstance(out["exc"].__cause__, ValueError)


def test_retry_recovers_when_drop_window_closes():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    ch.inject_drops(True)
    sim.at(8e-3, ch.inject_drops, False)
    policy = RetryPolicy(max_attempts=6, base_delay=4e-3, budget=1.0)
    out = _drive(sim, lambda: (yield ch.call_with_retry(lambda: 42, policy=policy)))
    assert out["value"] == 42
    assert ch.counters.get("retries") >= 1
    assert ch.counters.get("drops") >= 1


def test_retry_exhaustion_is_typed_and_chains_cause():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    ch.inject_drops(True)  # never recovers
    policy = RetryPolicy(max_attempts=3, base_delay=1e-3, budget=1.0)
    out = _drive(sim, lambda: (yield ch.call_with_retry(lambda: 1, policy=policy)))
    assert isinstance(out["exc"], RpcRetriesExhausted)
    assert isinstance(out["exc"].__cause__, RpcTransportError)
    assert ch.counters.get("retries") == 2  # attempts 2 and 3


def test_retry_does_not_replay_application_errors():
    sim = Simulator()
    ch = ControlChannel(sim)
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("deterministic bug")

    out = _drive(sim, lambda: (yield ch.call_with_retry(broken)))
    assert isinstance(out["exc"], RpcApplicationError)
    assert len(calls) == 1  # no blind retry of a far-side bug
    assert ch.counters.get("retries") == 0


def test_late_first_reply_does_not_settle_the_retried_request():
    """Attempt 1 times out; its reply lands while attempt 2 is in flight.
    The caller's event settles once, with attempt 2's value."""
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-3)
    attempts = []

    def serve():
        attempts.append(sim.now)
        value, service = ("first", 10e-3) if len(attempts) == 1 else ("second", 2e-3)
        reply = sim.event()
        sim.at(sim.now + service, reply.succeed, value)
        return reply

    policy = RetryPolicy(max_attempts=3, base_delay=1e-3, budget=1.0)
    settled = []
    ev = ch.request_with_retry(serve, policy=policy, timeout=8e-3)
    ev.add_callback(lambda e: settled.append((sim.now, e.value)))
    sim.run()  # drains the late first reply (t = 12 ms) too
    assert settled == [(pytest.approx(13e-3), "second")]
    assert attempts == [pytest.approx(1e-3), pytest.approx(10e-3)]  # far-side arrivals
    assert ch.counters.get("timeouts") == 1
    assert ch.counters.get("retries") == 1
    assert ch.counters.get("requests") == 2


def test_request_retry_exhaustion_is_typed_and_chains_cause():
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    ch.inject_drops(True)
    policy = RetryPolicy(max_attempts=3, base_delay=1e-3, budget=1.0)
    out = _drive(sim, lambda: (yield ch.request_with_retry(lambda: 1, policy=policy)))
    assert isinstance(out["exc"], RpcRetriesExhausted)
    assert isinstance(out["exc"].__cause__, RpcTransportError)
    assert ch.counters.get("retries") == 2
    assert ch.counters.get("requests") == 3


def test_request_retry_surfaces_application_error_with_cause():
    sim = Simulator()
    ch = ControlChannel(sim)

    def broken():
        raise ValueError("far-side bug")

    out = _drive(sim, lambda: (yield ch.request_with_retry(broken)))
    assert isinstance(out["exc"], RpcApplicationError)
    assert isinstance(out["exc"].__cause__, ValueError)
    assert ch.counters.get("retries") == 0


class _Settled:
    """A handed-down ``done``: records what the exchange settles it with."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def succeed(self, value):
        self.log.append((self.sim.now, "succeed", value))

    def fail(self, exc):
        self.log.append((self.sim.now, "fail", exc))


def test_request_retry_settles_a_handed_down_done():
    """With ``done=``, the exchange settles the caller's object and makes
    no event of its own: a reply at once, a fatal far-side failure at
    once, and a transport failure only after the retry loop gives up."""
    sim = Simulator()
    ch = ControlChannel(sim, latency=1e-4)
    policy = RetryPolicy(max_attempts=3, base_delay=1e-3, budget=1.0)

    def broken():
        raise ValueError("far-side bug")

    replied, fatal = _Settled(sim), _Settled(sim)
    assert ch.request_with_retry(lambda: 7, policy=policy, done=replied) is replied
    ch.request_with_retry(broken, policy=policy, done=fatal)
    sim.run()
    assert replied.log == [(pytest.approx(2e-4), "succeed", 7)]
    [(when, how, exc)] = fatal.log
    assert (when, how) == (pytest.approx(1e-4), "fail")
    assert isinstance(exc, RpcApplicationError) and isinstance(exc.__cause__, ValueError)
    assert ch.counters.get("retries") == 0

    lost = _Settled(sim)
    ch.inject_drops(True)
    ch.request_with_retry(lambda: 7, policy=policy, done=lost)
    sim.run()
    [(_, how, exc)] = lost.log
    assert how == "fail" and isinstance(exc, RpcRetriesExhausted)
    assert isinstance(exc.__cause__, RpcTransportError)
    assert ch.counters.get("retries") == 2


def test_far_side_never_runs_on_the_callers_stack():
    sim = Simulator()
    ch = ControlChannel(sim, latency=0.0)
    ran = []
    ev = ch.request(lambda: ran.append(sim.now) or 7)
    assert ran == [], "zero latency still defers the far side to a kernel event"
    sim.run()
    assert ran == [0.0] and ev.value == 7


# ---------------------------------------------------------------- storage seams
def test_filesystem_fault_hook_injects_error_and_latency():
    sim = Simulator()
    device = BlockDevice(sim, intel_p4600())
    fs = Filesystem(sim, device)
    fs.create("/a", 64 * KiB)
    fs.create("/b", 64 * KiB)

    fs.fault_hook = lambda path, nbytes: (
        ReadFault(error=TransientReadError(path)) if path == "/a" else None
    )
    out = _drive(sim, lambda: (yield fs.read_whole("/a")))
    assert isinstance(out["exc"].__cause__, TransientReadError)

    # Latency-only fault: read succeeds but pays the extra delay.
    healthy_sim = Simulator()
    healthy_dev = BlockDevice(healthy_sim, intel_p4600())
    healthy_fs = Filesystem(healthy_sim, healthy_dev)
    healthy_fs.create("/b", 64 * KiB)
    _drive(healthy_sim, lambda: (yield healthy_fs.read_whole("/b")))
    baseline = healthy_sim.now

    fs.fault_hook = lambda path, nbytes: ReadFault(extra_latency=5e-3)
    start = sim.now
    out = _drive(sim, lambda: (yield fs.read_whole("/b")))
    assert "exc" not in out
    assert sim.now - start == pytest.approx(baseline + 5e-3)


def test_device_slowdown_window_restores_bandwidth():
    sim = Simulator()
    device = BlockDevice(sim, intel_p4600())
    injector = FaultInjector(sim)
    injector.attach_device(device)
    injector.install(
        FaultPlan(
            [
                FaultEvent(DEVICE_SLOWDOWN, time=0.1, duration=0.2, severity=0.5),
                FaultEvent(DEVICE_SLOWDOWN, time=0.2, duration=0.3, severity=0.25),
            ]
        )
    )
    sim.run(until=0.15)
    assert device.read_degradation == 0.5
    sim.run(until=0.35)  # first window closed; second still active
    assert device.read_degradation == 0.25
    sim.run(until=0.6)
    assert device.read_degradation == 1.0
    assert injector.faults_injected == 2


def test_injector_refuses_double_filesystem_attach():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    FaultInjector(sim).attach_filesystem(fs)
    with pytest.raises(ValueError):
        FaultInjector(sim).attach_filesystem(fs)


# ---------------------------------------------------------------- supervision
def test_producer_crash_is_recovered_and_all_files_served():
    sim, _device, _fs, _posix, pf, paths, _streams = _stack(n_files=200)
    pf.on_epoch(paths)
    sim.at(5e-3, pf.crash_producer)
    sim.at(9e-3, pf.crash_producer)
    served = []

    def consumer(my_paths):
        for path in my_paths:
            nbytes = yield pf.serve(path)
            served.append((path, nbytes))

    sim.process(consumer(paths[0::2]))
    sim.process(consumer(paths[1::2]))
    sim.run()
    assert len(served) == len(paths)
    assert all(n == 64 * KiB for _, n in served)
    assert pf.producer_crashes == 2
    assert pf.producer_respawns == 2


def test_crash_with_no_live_producers_is_a_noop():
    sim, _device, _fs, _posix, pf, _paths, _streams = _stack(n_files=4)
    assert pf.crash_producer() is False
    assert pf.producer_crashes == 0


def test_serve_retries_transient_staged_errors():
    sim, _device, fs, _posix, pf, paths, _streams = _stack(n_files=40)
    # Every first read of a path fails transiently; retries succeed.
    failed_once = set()

    def hook(path, nbytes):
        if path not in failed_once:
            failed_once.add(path)
            return ReadFault(error=TransientReadError(path))
        return None

    fs.fault_hook = hook
    pf.on_epoch(paths)
    served = []

    def consumer():
        for path in paths:
            served.append((yield pf.serve(path)))

    sim.process(consumer())
    sim.run()
    assert len(served) == len(paths)
    assert pf.read_errors == len(paths)
    assert pf.serve_retries >= len(paths)


def test_serve_retry_waits_1_then_2_ms_and_fails_with_the_last_error():
    """A path that fails transiently on every read: the serve re-reads it
    after 1 ms, then after 2 ms more, then fails with the last error."""
    sim, _device, fs, _posix, pf, paths, _streams = _stack(n_files=4)
    reads = []

    def hook(path, nbytes):
        if path != paths[0]:
            return None
        reads.append((sim.now, TransientReadError(path)))
        return ReadFault(error=reads[-1][1])

    fs.fault_hook = hook
    pf.on_epoch(paths)
    out = {}

    def consumer():
        try:
            yield pf.serve(paths[0])
        except TransientReadError as exc:
            out["exc"], out["at"] = exc, sim.now

    sim.process(consumer())
    sim.run()
    # The producer's read at 0, then the re-reads; a faulted read fails at once.
    assert [when for when, _ in reads] == [0.0, pytest.approx(1e-3), pytest.approx(3e-3)]
    assert out["exc"] is reads[-1][1] and out["at"] == pytest.approx(3e-3)
    assert pf.serve_retries == 2 and pf.read_errors == 1


def test_fatal_staged_errors_still_surface():
    sim, _device, fs, _posix, pf, paths, _streams = _stack(n_files=4)
    fs.fault_hook = lambda path, nbytes: (
        ReadFault(error=IOError("disk on fire")) if path == paths[0] else None
    )
    pf.on_epoch(paths)
    out = _drive(sim, lambda: (yield pf.serve(paths[0])))
    assert isinstance(out["exc"], IOError)
    assert pf.serve_retries == 0  # fatal: not retried


# ---------------------------------------------------------------- degraded mode
class _RecordingPolicy:
    def __init__(self):
        self.calls = 0

    def decide(self, snapshot, previous):
        self.calls += 1
        return None


def _snap(time, errors, files, t=4, n=256):
    return MetricsSnapshot(
        time=time,
        requests=files,
        hits=files,
        waits=0,
        buffer_level=10,
        buffer_capacity=n,
        producers_allocated=t,
        producers_active=t,
        bytes_fetched=0.0,
        queue_remaining=100,
        files_fetched=float(files),
        read_errors=float(errors),
    )


def test_degraded_policy_engages_shrinks_and_restores():
    inner = _RecordingPolicy()
    policy = DegradedModePolicy(
        inner, DegradedModeParams(recovery_patience=2, shrink_factor=0.5)
    )
    healthy = _snap(1.0, errors=0, files=50)
    assert policy.decide(healthy, None) is None
    assert inner.calls == 1 and not policy.engaged

    # Error burst: 30 of 50 attempts failed this period.
    bursty = _snap(2.0, errors=30, files=70)
    decision = policy.decide(bursty, healthy)
    assert policy.engaged
    assert decision == TuningSettings(producers=2, buffer_capacity=128)

    # Still dirty: hold the shrunk targets.
    dirty = _snap(3.0, errors=40, files=80)
    assert policy.decide(dirty, bursty) is None

    # Two clean periods: restore the saved targets.
    clean1 = _snap(4.0, errors=40, files=130)
    assert policy.decide(clean1, dirty) is None
    clean2 = _snap(5.0, errors=40, files=180)
    restored = policy.decide(clean2, clean1)
    assert restored == TuningSettings(producers=4, buffer_capacity=256)
    assert not policy.engaged
    assert policy.degraded_cycles == 4  # engage period + 3 engaged periods
    assert len(policy.engage_times) == len(policy.disengage_times) == 1
    # Healthy again: control is back with the inner policy.
    policy.decide(_snap(6.0, errors=40, files=230), clean2)
    assert inner.calls == 2


def test_degraded_policy_respects_floors():
    policy = DegradedModePolicy(
        _RecordingPolicy(),
        DegradedModeParams(shrink_factor=0.1, producer_floor=1, buffer_floor=16),
    )
    decision = policy.decide(_snap(1.0, errors=50, files=50, t=2, n=32), None)
    assert decision == TuningSettings(producers=1, buffer_capacity=16)


# ---------------------------------------------------------------- chaos sweeps
def _single_fault_plan(kind):
    if kind == DEVICE_SLOWDOWN:
        return FaultPlan([FaultEvent(kind, time=0.05, duration=0.1, severity=0.25)])
    if kind == READ_ERROR_BURST:
        return FaultPlan([FaultEvent(kind, time=0.05, duration=0.1, severity=0.5)])
    if kind == LATENCY_SPIKE:
        return FaultPlan([FaultEvent(kind, time=0.05, duration=0.1, severity=2e-3)])
    if kind == PRODUCER_CRASH:
        return FaultPlan([FaultEvent(kind, time=0.05, severity=2)])
    if kind == RPC_DROP:
        return FaultPlan([FaultEvent(kind, time=0.05, duration=0.1)])
    assert kind == RPC_DELAY
    return FaultPlan([FaultEvent(kind, time=0.05, duration=0.1, severity=1e-3)])


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_training_survives_each_fault_kind(kind):
    report = run_fault_sweep(
        seed=3, n_files=300, plan=_single_fault_plan(kind), time_limit=30.0
    )
    # Completes — no consumer hangs within bounded simulated time.
    assert report.completed
    assert report.sim_seconds < 30.0
    # Every requested sample was served or failed loudly, exactly once.
    assert report.files_served + report.serve_failures == report.n_files
    assert report.files_served >= 0.9 * report.n_files
    # The fault actually fired...
    assert report.injector["faults_injected"] >= 1
    assert report.injector[kind] == 1
    # ...and post-fault throughput recovered.
    assert report.throughput_after > 0.5 * report.throughput_before


def test_device_slowdown_recovers_throughput():
    plan = FaultPlan(
        [FaultEvent(DEVICE_SLOWDOWN, time=0.05, duration=0.1, severity=0.1)]
    )
    report = run_fault_sweep(seed=5, n_files=300, plan=plan)
    assert report.completed
    assert report.throughput_after >= 0.6 * report.throughput_before


def test_rpc_drop_storm_does_not_crash_the_controller():
    plan = FaultPlan([FaultEvent(RPC_DROP, time=0.02, duration=0.15)])
    report = run_fault_sweep(seed=7, n_files=300, plan=plan)
    assert report.completed
    assert report.control["rpc_failures"] >= 1  # cycles were skipped...
    assert report.control["cycles"] >= 10  # ...but the loop survived
    assert report.control["channel_retries"] >= 1


def test_full_storm_counts_all_recovery_machinery():
    report = run_fault_sweep(seed=0)
    assert report.completed
    assert report.injector["faults_injected"] == 6
    assert report.prefetcher["producer_respawns"] >= 1
    assert report.prefetcher["serve_retries"] + report.serve_failures >= 1
    assert report.degraded_engagements >= 1


# ---------------------------------------------------------------- determinism
def test_fault_sweep_is_byte_identical_across_runs():
    def run():
        report = run_fault_sweep(seed=11, n_files=300, plan=demo_plan(0.05, 0.15))
        return json.dumps(report.metrics_dict(), sort_keys=True)

    assert run() == run()


def test_different_seeds_change_the_injected_draws():
    plan = FaultPlan(
        [FaultEvent(READ_ERROR_BURST, time=0.02, duration=0.2, severity=0.5)]
    )
    a = run_fault_sweep(seed=1, n_files=300, plan=plan)
    b = run_fault_sweep(seed=2, n_files=300, plan=plan)
    # Same plan, different seeds: the per-read error draws differ.
    assert a.injector.get("read_errors_injected") != b.injector.get(
        "read_errors_injected"
    ) or a.files_served != b.files_served
