"""Unit tests for the control plane: policies, controller, channel, history."""

import pytest

from repro.core import (
    AutotuneParams,
    ControlChannel,
    Controller,
    PrismaAutotunePolicy,
    PrismaConfig,
    PrismaStage,
    StaticPolicy,
    TuningSettings,
    build_prisma,
)
from repro.core.control import MetricsHistory, OscillationDampedPolicy
from repro.core.optimization import MetricsSnapshot
from repro.dataset import tiny_dataset
from repro.simcore import RandomStreams, Simulator
from repro.storage import BlockDevice, Filesystem, PosixLayer, sata_hdd


def snap(
    time=1.0,
    requests=100,
    hits=90,
    waits=10,
    level=10,
    capacity=64,
    producers=2,
    bytes_fetched=1e6,
    queue=100,
):
    return MetricsSnapshot(
        time=time,
        requests=requests,
        hits=hits,
        waits=waits,
        buffer_level=level,
        buffer_capacity=capacity,
        producers_allocated=producers,
        producers_active=producers,
        bytes_fetched=bytes_fetched,
        queue_remaining=queue,
    )


# ---------------------------------------------------------------- MetricsSnapshot
def test_snapshot_starvation_absolute_and_delta():
    s1 = snap(hits=50, waits=50, requests=100)
    assert s1.starvation() == pytest.approx(0.5)
    s2 = snap(time=2.0, hits=150, waits=50, requests=200)
    assert s2.starvation(previous=s1) == pytest.approx(0.0)


def test_snapshot_starvation_no_requests():
    assert snap(hits=0, waits=0, requests=0).starvation() == 0.0


def test_snapshot_aggregate_sums_counters_last_writer_gauges():
    s1 = snap(time=1.0, requests=100, hits=90, waits=10, level=10, capacity=64,
              producers=2, bytes_fetched=1e6, queue=100)
    s2 = snap(time=1.5, requests=40, hits=30, waits=10, level=3, capacity=8,
              producers=1, bytes_fetched=5e5, queue=7)
    agg = MetricsSnapshot.aggregate([s1, s2])
    assert agg.time == 1.5
    assert agg.requests == 140 and agg.hits == 120 and agg.waits == 20
    assert agg.bytes_fetched == pytest.approx(1.5e6)
    # gauges: last writer wins
    assert agg.buffer_level == 3 and agg.buffer_capacity == 8
    assert agg.producers_allocated == 1 and agg.queue_remaining == 7


def test_snapshot_aggregate_single_and_empty():
    s = snap()
    assert MetricsSnapshot.aggregate([s]) is s
    with pytest.raises(ValueError):
        MetricsSnapshot.aggregate([])


# ---------------------------------------------------------------- StaticPolicy
def test_static_policy_applies_once():
    policy = StaticPolicy(producers=4, buffer_capacity=128)
    first = policy.decide(snap(), None)
    assert first == TuningSettings(producers=4, buffer_capacity=128)
    assert policy.decide(snap(), snap()) is None


# ---------------------------------------------------------------- PrismaAutotunePolicy
def params(**kw):
    defaults = dict(measure_periods=1, settle_periods=1, shrink_patience=2)
    defaults.update(kw)
    return AutotuneParams(**defaults)


def feed(policy, snapshots):
    """Drive the policy through a snapshot sequence; collect decisions."""
    decisions = []
    prev = None
    for s in snapshots:
        decisions.append(policy.decide(s, prev))
        prev = s
    return decisions


def test_autotune_grows_producers_when_starving():
    policy = PrismaAutotunePolicy(params())
    seq = [
        snap(time=t, hits=0, waits=50 * (i + 1), requests=50 * (i + 1),
             level=0, producers=2, bytes_fetched=1e6 * (i + 1))
        for i, t in enumerate([1.0, 2.0, 3.0])
    ]
    decisions = feed(policy, seq)
    grow = [d for d in decisions if d is not None and d.producers]
    assert grow and grow[0].producers == 3


def test_autotune_grows_buffer_when_starving_and_full():
    policy = PrismaAutotunePolicy(params())
    seq = [
        snap(time=t, hits=0, waits=50 * (i + 1), requests=50 * (i + 1),
             level=64, capacity=64, producers=2, bytes_fetched=1e6 * (i + 1))
        for i, t in enumerate([1.0, 2.0])
    ]
    decisions = feed(policy, seq)
    buf = [d for d in decisions if d is not None and d.buffer_capacity]
    assert buf and buf[0].buffer_capacity == 128


def test_autotune_reverts_unprofitable_thread():
    """A grown producer that doesn't raise throughput enough is released."""
    p = params(min_marginal_gain=0.5)  # demand a huge gain
    policy = PrismaAutotunePolicy(p)
    t = 1.0
    history = []
    # Build a starving baseline at t=2 producers, rate 1e6 B/s.
    seq = []
    rate = 1e6
    fetched = 0.0
    waits = 0
    for i in range(12):
        fetched += rate
        waits += 50
        seq.append(
            snap(time=float(i + 1), hits=0, waits=waits, requests=waits,
                 level=0, producers=2 if i < 2 else 3, bytes_fetched=fetched)
        )
    decisions = feed(policy, seq)
    shrink = [d for d in decisions if d is not None and d.producers == 2]
    assert shrink, f"expected a revert decision, got {decisions}"


def test_autotune_shrinks_when_calm_and_full():
    policy = PrismaAutotunePolicy(params(shrink_patience=2))
    seq = [
        snap(time=float(i + 1), hits=100 * (i + 1), waits=0,
             requests=100 * (i + 1), level=64, capacity=64, producers=4,
             bytes_fetched=1e6)
        for i in range(4)
    ]
    decisions = feed(policy, seq)
    shrink = [d for d in decisions if d is not None and d.producers == 3]
    assert shrink


def test_autotune_idle_between_epochs_does_nothing():
    policy = PrismaAutotunePolicy(params())
    s = snap(queue=0, level=0)
    assert policy.decide(s, None) is None


def test_autotune_waits_for_consumer_activity():
    policy = PrismaAutotunePolicy(params())
    s = snap(requests=0, hits=0, waits=0)
    assert policy.decide(s, None) is None


def test_autotune_respects_max_producers():
    p = params(max_producers=2)
    policy = PrismaAutotunePolicy(p)
    seq = [
        snap(time=float(i + 1), hits=0, waits=50 * (i + 1),
             requests=50 * (i + 1), level=0, producers=2,
             bytes_fetched=1e6 * (i + 1))
        for i in range(6)
    ]
    decisions = feed(policy, seq)
    assert all(d is None or d.producers is None or d.producers <= 2 for d in decisions)


# ---------------------------------------------------------------- damping wrapper
def test_damped_policy_suppresses_flapping():
    class Flapper:
        def __init__(self):
            self.i = 0

        def decide(self, s, p):
            self.i += 1
            return TuningSettings(producers=3 if self.i % 2 else 2)

    damped = OscillationDampedPolicy(Flapper(), cooldown_periods=10)
    s_at_2 = snap(producers=2)
    s_at_3 = snap(producers=3)
    first = damped.decide(s_at_2, None)  # grow 2->3: allowed
    assert first.producers == 3
    second = damped.decide(s_at_3, None)  # shrink right back: suppressed
    assert second is None or second.producers is None


# ---------------------------------------------------------------- ControlChannel
def test_channel_latency_and_result():
    sim = Simulator()
    ch = ControlChannel(sim, latency=0.5)
    ev = ch.call(lambda a, b: a + b, 2, 3)
    sim.run(until=ev)
    assert ev.value == 5
    assert sim.now == pytest.approx(1.0)
    assert ch.counters.get("calls") == 1


def test_channel_zero_latency():
    sim = Simulator()
    ch = ControlChannel(sim, latency=0.0)
    ev = ch.call(lambda: "x")
    sim.run(until=ev)
    assert ev.value == "x"


def test_channel_negative_latency_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        ControlChannel(sim, latency=-1.0)


# ---------------------------------------------------------------- MetricsHistory
def test_history_series_and_derivations():
    h = MetricsHistory("stage0")
    h.append(snap(time=1.0, hits=10, waits=0, requests=10, producers=2))
    h.append(snap(time=2.0, hits=10, waits=10, requests=20, producers=3))
    assert len(h) == 2
    assert h.latest.producers_allocated == 3
    assert h.previous.producers_allocated == 2
    assert h.producer_series() == [(1.0, 2), (2.0, 3)]
    (t, starv), = h.starvation_series()
    assert t == 2.0 and starv == pytest.approx(1.0)
    assert h.peak_producers() == 3
    assert h.final_settings() == (3, 64)


def test_history_max_entries():
    h = MetricsHistory("s", max_entries=3)
    for i in range(10):
        h.append(snap(time=float(i)))
    assert len(h) == 3
    assert h.latest.time == 9.0


# ---------------------------------------------------------------- Controller (integration)
def make_stack(profile=None, policy=None, period=1e-3):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, profile or sata_hdd()))
    split = tiny_dataset(streams, n_train=64, n_val=8)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    stage, prefetcher, controller = build_prisma(
        sim, posix, PrismaConfig(control_period=period, policy=policy)
    )
    return sim, stage, prefetcher, controller, split


def test_controller_collects_history():
    sim, stage, pf, ctl, split = make_stack()
    stage.load_epoch(split.train.filenames())

    def consumer():
        for path in split.train.filenames():
            yield stage.read_whole(path)

    p = sim.process(consumer())
    sim.run(until=p)
    ctl.stop()
    history = ctl.history_for(stage.name)
    assert len(history) > 0
    assert ctl.cycles > 0


def test_controller_static_policy_enforced():
    sim, stage, pf, ctl, split = make_stack(policy=StaticPolicy(3, 99))
    stage.load_epoch(split.train.filenames())

    def consumer():
        for path in split.train.filenames():
            yield stage.read_whole(path)

    p = sim.process(consumer())
    sim.run(until=p)
    ctl.stop()
    assert pf.target_producers == 3
    assert pf.buffer.capacity == 99
    assert ctl.enforcements == 1


def test_controller_register_requires_policy():
    sim = Simulator()
    ctl = Controller(sim, period=1.0)
    stage = PrismaStage(sim, backend=None, optimizations=[])
    with pytest.raises(ValueError):
        ctl.register(stage, policy=None)


def test_controller_double_start_rejected():
    sim = Simulator()
    ctl = Controller(sim, period=1.0)
    ctl.start()
    with pytest.raises(RuntimeError):
        ctl.start()
    ctl.stop()


def test_controller_invalid_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        Controller(sim, period=0.0)


def test_controller_aggregates_multi_object_stage():
    """Regression: the controller used to record only snapshots[0], silently
    dropping every other optimization object's traffic."""

    class StubObject:
        def __init__(self, name, requests, hits, level):
            self.name = name
            self._snap = dict(requests=requests, hits=hits, level=level)
            self.applied = []

        def serve(self, path):
            return None

        def snapshot(self):
            s = self._snap
            return snap(time=0.0, requests=s["requests"], hits=s["hits"],
                        waits=s["requests"] - s["hits"], level=s["level"])

        def apply_settings(self, settings):
            self.applied.append(settings)

        def on_epoch(self, paths):
            pass

    sim = Simulator()
    a = StubObject("a", requests=100, hits=90, level=10)
    b = StubObject("b", requests=60, hits=20, level=4)
    stage = PrismaStage(sim, backend=None, optimizations=[a, b])
    ctl = Controller(sim, period=1.0)
    history = ctl.register(stage, policy=StaticPolicy(producers=2, buffer_capacity=8))
    ctl.start()
    sim.run(until=2.5)
    ctl.stop()
    assert len(history) >= 1
    latest = history.latest
    # Counters summed across both objects, last-writer gauges from object b.
    assert latest.requests == 160
    assert latest.hits == 110
    assert latest.waits == 50
    assert latest.buffer_level == 4
    # Enforcement still reaches every object.
    assert a.applied and b.applied


def test_controller_stop_halts_cycles():
    sim, stage, pf, ctl, split = make_stack(period=0.1)
    ctl.stop()
    sim.run(until=2.0)
    assert ctl.cycles == 0
