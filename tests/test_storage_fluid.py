"""Unit tests for the fair-share fluid bandwidth channel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Simulator
from repro.storage import FairShareChannel, constant_capacity, saturating_capacity

from .fluid_reference import ReferenceFairShareChannel


def run_transfers(channel, sim, specs):
    """Start (nbytes, start_delay) transfers; return completion times."""
    completions = {}

    def one(tag, delay, nbytes):
        if delay:
            yield sim.timeout(delay)
        yield channel.transfer(nbytes)
        completions[tag] = sim.now

    for tag, (delay, nbytes) in enumerate(specs):
        sim.process(one(tag, delay, nbytes))
    sim.run()
    return completions


def test_single_transfer_duration():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    done = run_transfers(ch, sim, [(0.0, 500.0)])
    assert done[0] == pytest.approx(5.0)


def test_two_equal_transfers_share_rate():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    done = run_transfers(ch, sim, [(0.0, 500.0), (0.0, 500.0)])
    # Constant aggregate 100 B/s split two ways: both finish at t=10.
    assert done[0] == pytest.approx(10.0)
    assert done[1] == pytest.approx(10.0)


def test_late_arrival_slows_first_transfer():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    done = run_transfers(ch, sim, [(0.0, 500.0), (2.5, 250.0)])
    # t=0..2.5: A alone at 100 B/s -> 250 left. Then A and B split 50/50:
    # both have 250 B at 50 B/s -> 5 more seconds -> t=7.5.
    assert done[0] == pytest.approx(7.5)
    assert done[1] == pytest.approx(7.5)


def test_saturating_capacity_scales_aggregate():
    sim = Simulator()
    ch = FairShareChannel(sim, saturating_capacity(100.0, kappa=1.0))
    # One stream gets 50 B/s; two concurrent streams get 66.7 aggregate.
    done = run_transfers(ch, sim, [(0.0, 100.0)])
    assert done[0] == pytest.approx(2.0)

    sim2 = Simulator()
    ch2 = FairShareChannel(sim2, saturating_capacity(100.0, kappa=1.0))
    done2 = run_transfers(ch2, sim2, [(0.0, 100.0), (0.0, 100.0)])
    # Each gets 33.33 B/s -> 3 s.
    assert done2[0] == pytest.approx(3.0)
    assert done2[1] == pytest.approx(3.0)


def test_weighted_sharing():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    completions = {}

    def heavy():
        yield ch.transfer(300.0, weight=3.0)
        completions["heavy"] = sim.now

    def light():
        yield ch.transfer(100.0, weight=1.0)
        completions["light"] = sim.now

    sim.process(heavy())
    sim.process(light())
    sim.run()
    # Rates 75/25: both need 4 s.
    assert completions["heavy"] == pytest.approx(4.0)
    assert completions["light"] == pytest.approx(4.0)


def test_max_concurrency_queues_excess():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0), max_concurrency=1)
    done = run_transfers(ch, sim, [(0.0, 100.0), (0.0, 100.0), (0.0, 100.0)])
    assert done[0] == pytest.approx(1.0)
    assert done[1] == pytest.approx(2.0)
    assert done[2] == pytest.approx(3.0)


def test_zero_byte_transfer_completes_immediately():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    ev = ch.transfer(0.0)
    sim.run()
    assert ev.ok and ev.value == 0.0


def test_conservation_of_bytes():
    sim = Simulator()
    ch = FairShareChannel(sim, saturating_capacity(123.0, kappa=0.7))
    sizes = [10.0, 55.0, 3.0, 200.0, 77.0]
    run_transfers(ch, sim, [(i * 0.3, s) for i, s in enumerate(sizes)])
    assert ch.bytes_served == pytest.approx(sum(sizes))
    assert ch.transfers_completed == len(sizes)


def test_concurrency_gauge_tracks_active():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    run_transfers(ch, sim, [(0.0, 100.0), (0.0, 100.0)])
    hist = ch.concurrency.histogram()
    # Two transfers at level 2 for the whole 2 s.
    assert hist.get(2.0, 0.0) == pytest.approx(2.0)


def test_invalid_arguments_rejected():
    sim = Simulator()
    ch = FairShareChannel(sim, constant_capacity(100.0))
    with pytest.raises(ValueError):
        ch.transfer(-1.0)
    with pytest.raises(ValueError):
        ch.transfer(1.0, weight=0.0)
    with pytest.raises(ValueError):
        saturating_capacity(0.0, 1.0)
    with pytest.raises(ValueError):
        saturating_capacity(10.0, -1.0)
    with pytest.raises(ValueError):
        constant_capacity(0.0)
    with pytest.raises(ValueError):
        FairShareChannel(sim, constant_capacity(1.0), max_concurrency=0)


def test_throughput_matches_analytic_model():
    """Simulated per-stream throughput equals the closed-form prediction."""
    from repro.storage import KiB, intel_p4600
    from repro.storage.device import BlockDevice

    prof = intel_p4600()
    for k in (1, 2, 4):
        sim = Simulator()
        dev = BlockDevice(sim, prof)
        n_files, fsize = 200, 113 * KiB

        work = list(range(n_files))

        def reader():
            while work:
                work.pop()
                yield dev.read(fsize)

        for _ in range(k):
            sim.process(reader())
        sim.run()
        simulated = n_files * fsize / sim.now
        predicted = prof.effective_read_throughput(fsize, k) * k
        assert simulated == pytest.approx(predicted, rel=0.02)


# ---------------------------------------------------------------- bit-exact oracle
# Arrival times on a coarse grid, so transfers often start together and
# completions coincide with arrivals.
arrival_grid = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.25)
sizes = st.floats(min_value=1.0, max_value=5e3, allow_nan=False, allow_infinity=False)
mixed_weights = st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0, 3.0])


@st.composite
def fluid_schedules(draw):
    # Every production caller passes weight 1.0; half the schedules mix.
    weights = mixed_weights if draw(st.booleans()) else st.just(1.0)
    transfers = draw(
        st.lists(
            st.tuples(
                arrival_grid,
                sizes,
                weights,
                st.sampled_from([0.0, 1e-4]),  # a device's submission latency
            ),
            min_size=1,
            max_size=14,
        )
    )
    curves = st.tuples(
        st.floats(min_value=50.0, max_value=2e3), st.floats(min_value=0.0, max_value=4.0)
    )
    return {
        "transfers": transfers,
        "max_concurrency": draw(st.integers(min_value=1, max_value=4)),
        "curve": draw(curves),
        # A mid-run swap of the rate curve: at this time, to this curve.
        "swap": draw(st.one_of(st.none(), st.tuples(arrival_grid, curves))),
    }


def run_fluid_schedule(channel_cls, schedule):
    """Drive one schedule through a fresh channel; everything it produced."""
    sim = Simulator()
    channel = channel_cls(
        sim, saturating_capacity(*schedule["curve"]), max_concurrency=schedule["max_concurrency"]
    )
    settled = []

    def start(tag, nbytes, weight, elapsed):
        event = channel.transfer(nbytes, weight, elapsed=elapsed)
        event.add_callback(lambda ev: settled.append((tag, sim.now, ev.value)))

    for tag, (at, nbytes, weight, elapsed) in enumerate(schedule["transfers"]):
        sim.at(at, start, tag, nbytes, weight, elapsed)
    if schedule["swap"] is not None:
        at, curve = schedule["swap"]
        sim.at(at, channel.set_capacity_fn, saturating_capacity(*curve))
    sim.run()
    return {
        "settled": settled,
        "end": sim.now,
        "bytes_served": channel.bytes_served,
        "transfers_completed": channel.transfers_completed,
        "concurrency": channel.concurrency.histogram(),
    }


@given(fluid_schedules())
@settings(max_examples=150)
def test_channel_matches_the_per_use_reference_bit_for_bit(schedule):
    """The trimmed channel (memoised ``B(k)``, no generator expressions)
    gives the same floats as the per-use arithmetic: completion times,
    event values, bytes served and the concurrency histogram, with ``==``."""
    fast = run_fluid_schedule(FairShareChannel, schedule)
    reference = run_fluid_schedule(ReferenceFairShareChannel, schedule)
    assert fast == reference
    assert len(fast["settled"]) == len(schedule["transfers"])
