"""Tests for the lookahead schedule, Belady tiering, and clairvoyant prefetch."""

import math
import os
import tempfile
import threading
import time

import pytest

from repro.core import (
    ClairvoyantTieringObject,
    LookaheadSchedule,
    NEVER,
    ParallelPrefetcher,
    PrismaConfig,
    TieringConfig,
    TieringObject,
    TuningSettings,
    build_prisma,
)
from repro.core.live import LivePrefetcher
from repro.dataset import tiny_dataset
from repro.dataset.shuffle import EpochShuffler
from repro.faults import READ_ERROR_BURST, FaultEvent, FaultInjector, FaultPlan
from repro.simcore import RandomStreams, Simulator
from repro.storage import BlockDevice, Filesystem, PosixLayer, ramdisk, sata_hdd


def make_env(n_train=8, profile=None):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, profile or ramdisk()))
    split = tiny_dataset(streams, n_train=n_train, n_val=8)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    return sim, posix, split, fs


def make_fast_fs(sim):
    return Filesystem(sim, BlockDevice(sim, ramdisk(), name="fast"), name="fastfs")


# ---------------------------------------------------------------- LookaheadSchedule
def test_schedule_clock_and_distances():
    sched = LookaheadSchedule([["a", "b", "c"], ["c", "a", "b"]])
    assert sched.n_epochs == 2 and sched.epoch_length == 3
    assert sched.next_use_distance("a") == 0
    assert sched.next_use_distance("c") == 2
    assert sched.next_use_distance("zzz") == NEVER
    sched.start_epoch(["a", "b", "c"])
    assert sched.mark_fetched("a") is True
    assert sched.clock == 1
    # Out-of-band refetch (e.g. crash-requeued path): clock untouched.
    assert sched.mark_fetched("a") is False
    assert sched.clock == 1
    # Distances are measured from the fetch frontier.
    assert sched.next_use_distance("b") == 0
    assert sched.next_use_distance("a") == 3  # epoch-1 position 4, clock 1


def test_schedule_peek_ahead_window():
    sched = LookaheadSchedule([["a", "b"], ["b", "a"], ["a", "b"]])
    sched.start_epoch(["a", "b"])
    assert sched.peek_ahead(1) is None  # frontier still in the live epoch
    sched.mark_fetched("a")
    sched.mark_fetched("b")
    assert sched.peek_ahead(1) == "b"  # epoch 1's head
    sched.mark_fetched("b")
    sched.mark_fetched("a")
    assert sched.peek_ahead(1) is None  # epoch 2 is beyond the window
    assert sched.peek_ahead(2) == "a"
    assert sched.peek_ahead(0) is None


def test_schedule_validation():
    with pytest.raises(ValueError):
        LookaheadSchedule([])
    with pytest.raises(ValueError):
        LookaheadSchedule([["a", "a"]])
    with pytest.raises(ValueError):
        LookaheadSchedule([["a", "b"], ["a", "c"]])  # not a permutation
    sched = LookaheadSchedule([["a", "b"]])
    with pytest.raises(ValueError):
        sched.start_epoch(["b", "a"])  # diverging order
    sched.start_epoch(["a", "b"])
    with pytest.raises(ValueError):
        sched.start_epoch(["a", "b"])  # horizon exhausted


def test_schedule_from_seed_matches_epoch_shuffler():
    paths = [f"/data/{i:04d}" for i in range(16)]
    sched = LookaheadSchedule.from_seed(paths, seed=7, epochs=3)
    shuffler = EpochShuffler(len(paths), RandomStreams(7))
    for e in range(3):
        expected = [paths[int(i)] for i in shuffler.order(e)]
        assert sched.epoch_order(e) == expected


# ---------------------------------------------------------------- byte accounting
def test_capacity_validation_rejects_non_discrete_bytes():
    sim, posix, split, _ = make_env()
    fast = make_fast_fs(sim)
    for bad in (float("inf"), float("nan"), 1.5, True, 0, -1):
        with pytest.raises(ValueError):
            TieringObject(sim, posix, fast, fast_capacity_bytes=bad)
    # Integral floats are normalized, not rejected (a policy may compute them).
    tier = TieringObject(sim, posix, fast, fast_capacity_bytes=4096.0)
    assert tier.fast_capacity_bytes == 4096
    assert isinstance(tier.fast_capacity_bytes, int)
    with pytest.raises(ValueError):
        tier.apply_settings(TuningSettings(extra={"fast_capacity_bytes": float("inf")}))
    with pytest.raises(ValueError):
        tier.apply_settings(TuningSettings(extra={"fast_capacity_bytes": math.nan}))


def test_resident_bytes_stay_int():
    sim, posix, split, _ = make_env(n_train=4, profile=sata_hdd())
    fast = make_fast_fs(sim)
    tier = TieringObject(
        sim, posix, fast, fast_capacity_bytes=split.train.total_bytes(), promote_after=1
    )

    def scenario():
        for i in range(4):
            yield tier.serve(split.train.path(i))
        yield sim.timeout(2.0)

    sim.process(scenario())
    sim.run()
    assert isinstance(tier.resident_bytes, int)
    assert tier.resident_bytes == sum(tier._resident.values())
    assert tier.resident_files == 4  # capacity covers the whole dataset


# ---------------------------------------------------------------- leak / interleaving fixes
def test_access_counts_pruned_on_demotion_and_epoch():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, sata_hdd()))
    paths = [f"/d/{i}" for i in range(6)]
    fs.create_many((p, 1000) for p in paths)  # uniform: every file fits
    posix = PosixLayer(sim, fs)
    fast = make_fast_fs(sim)
    tier = TieringObject(sim, posix, fast, fast_capacity_bytes=1500, promote_after=1)

    def scenario():
        for path in paths:
            yield tier.serve(path)
            yield sim.timeout(0.5)  # let each promotion land (forces demotions)

    sim.process(scenario())
    sim.run()
    assert tier.counters.get("demotions") >= 1
    # A demoted file must re-earn its promotion: its access count is gone.
    resident = set(tier._resident)
    for path in paths:
        if path not in resident:
            assert path not in tier._access_counts
    # Epoch reset prunes bookkeeping for paths that left the dataset.
    survivors = paths[:2]
    tier.on_epoch(survivors)
    assert set(tier._access_counts) <= set(survivors)
    assert set(tier._resident) <= set(survivors)
    assert tier.tracked_access_paths <= 2


def test_promotion_completion_never_double_counts_resident_bytes():
    sim, posix, split, _ = make_env(n_train=4, profile=sata_hdd())
    fast = make_fast_fs(sim)
    path = split.train.path(0)
    nbytes = split.train.size(0)
    tier = TieringObject(
        sim, posix, fast, fast_capacity_bytes=split.train.total_bytes(), promote_after=1
    )

    def scenario():
        yield tier.serve(path)
        yield sim.timeout(1.0)
        assert tier.resident_bytes == nbytes
        # A second promotion of an already-resident path (a racing
        # promote/demote interleaving) must replace, never double-count.
        yield from tier._promote(path)

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.ok
    assert tier.resident_bytes == nbytes
    assert tier.resident_files == 1
    assert tier.promotions_in_flight == 0


def test_fault_during_promotion_clears_in_flight_state():
    sim, posix, split, fs = make_env(n_train=6, profile=sata_hdd())
    fast = make_fast_fs(sim)
    tier = TieringObject(
        sim, posix, fast, fast_capacity_bytes=split.train.total_bytes(), promote_after=1
    )
    injector = FaultInjector(sim, streams=RandomStreams(1))
    injector.attach_filesystem(fs)
    # Every backing read fails inside the window — including the background
    # promotion copies the serves below trigger.
    injector.install(
        FaultPlan([FaultEvent(READ_ERROR_BURST, time=0.0, duration=5.0, severity=1.0)])
    )
    failures = []

    def scenario():
        for i in range(6):
            try:
                yield tier.serve(split.train.path(i))
            except Exception as exc:  # noqa: BLE001 - chaos: record and move on
                failures.append(type(exc).__name__)
        yield sim.timeout(6.0)
        # After the window: promotions work again over the same paths.
        for i in range(6):
            yield tier.serve(split.train.path(i))
        yield sim.timeout(2.0)

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.ok
    assert failures  # the burst really fired
    assert tier.counters.get("promotion_failures") >= 1
    # The fix under test: no promotion is left "in flight" forever, and the
    # byte ledger matches the resident map exactly.
    assert tier.promotions_in_flight == 0
    assert tier.resident_bytes == sum(tier._resident.values())
    assert tier.counters.get("promotions") >= 1


# ---------------------------------------------------------------- Belady eviction
def test_belady_evicts_farthest_next_use():
    sim, posix, split, _ = make_env(n_train=4, profile=sata_hdd())
    fast = make_fast_fs(sim)
    a, b, c, d = (split.train.path(i) for i in range(4))
    two_files = split.train.size(0) + split.train.size(1)
    tier = ClairvoyantTieringObject(sim, posix, fast, fast_capacity_bytes=two_files)
    # Epoch 1 brings c and d back FIRST: once the frontier passes a and b,
    # they become the farthest-next-use residents.
    sched = LookaheadSchedule([[a, b, c, d], [c, d, a, b]])
    tier.install_schedule(sched)
    sched.start_epoch([a, b, c, d])

    def scenario():
        # Frontier at 0: a and b return soonest — both promoted.
        yield tier.serve(a)
        yield tier.serve(b)
        yield sim.timeout(1.0)
        assert set(tier._resident) == {a, b}
        # c's next use (distance 2) is farther than both residents': a
        # Belady cache declines the promotion rather than thrash.
        yield tier.serve(c)
        yield sim.timeout(1.0)
        assert set(tier._resident) == {a, b}
        assert tier.counters.get("promotions_declined") >= 1
        # Advance the frontier past a and b: now they return only in epoch
        # 1, farther than c (needed immediately) — c evicts the farthest.
        sched.mark_fetched(a)
        sched.mark_fetched(b)
        sched.mark_fetched(c)
        dist_a = sched.next_use_distance(a)
        dist_b = sched.next_use_distance(b)
        farthest = a if dist_a > dist_b else b
        yield tier.serve(c)
        yield sim.timeout(1.0)
        assert c in tier._resident
        assert farthest not in tier._resident

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.ok


def test_clairvoyant_without_schedule_promotes_nothing():
    sim, posix, split, _ = make_env(n_train=4)
    fast = make_fast_fs(sim)
    tier = ClairvoyantTieringObject(
        sim, posix, fast, fast_capacity_bytes=split.train.total_bytes()
    )

    def scenario():
        for _ in range(3):
            yield tier.serve(split.train.path(0))
        yield sim.timeout(1.0)

    sim.process(scenario())
    sim.run()
    assert tier.counters.get("promotions") == 0
    assert tier.resident_files == 0


# ---------------------------------------------------------------- cross-epoch lookahead
def lookahead_env(n_train=8, lookahead=1, buffer_capacity=16):
    sim, posix, split, _ = make_env(n_train=n_train, profile=sata_hdd())
    pf = ParallelPrefetcher(
        sim, posix, producers=2, buffer_capacity=buffer_capacity,
        lookahead_epochs=lookahead,
    )
    paths = split.train.filenames()
    sched = LookaheadSchedule([paths, list(reversed(paths))])
    pf.install_schedule(sched)
    return sim, pf, paths, sched


def test_lookahead_fetches_cross_epoch_boundary():
    sim, pf, paths, sched = lookahead_env()
    pf.on_epoch(paths)
    served = []

    def consumer():
        for path in paths:
            nbytes = yield pf.serve(path)
            served.append(nbytes)

    p = sim.process(consumer())
    sim.run(until=p)
    sim.run(until=sim.timeout(1.0))  # idle tail: producers fetch ahead
    assert len(served) == len(paths)
    assert pf.lookahead_fetches > 0
    # Epoch 1's head is already staged before the epoch is loaded.
    assert pf.buffer.contains(paths[-1])
    pf.on_epoch(list(reversed(paths)))
    # Prestaged paths are not re-enqueued (fetched exactly once).
    assert pf.queue.total_enqueued < 2 * len(paths)
    hits_before = pf.buffer.counters.get("hits")
    got = []

    def consumer2():
        for path in reversed(paths):
            nbytes = yield pf.serve(path)
            got.append(nbytes)

    p2 = sim.process(consumer2())
    sim.run(until=p2)
    assert len(got) == len(paths)
    assert pf.buffer.counters.get("hits") > hits_before


def test_lookahead_disabled_without_schedule():
    sim, posix, split, _ = make_env(n_train=6)
    pf = ParallelPrefetcher(sim, posix, producers=2, buffer_capacity=16, lookahead_epochs=2)
    paths = split.train.filenames()
    pf.on_epoch(paths)

    def consumer():
        for path in paths:
            yield pf.serve(path)

    p = sim.process(consumer())
    sim.run(until=p)
    sim.run(until=sim.timeout(0.5))
    assert pf.lookahead_fetches == 0


def test_lookahead_knob_validation_and_settings():
    sim, posix, split, _ = make_env(n_train=4)
    with pytest.raises(ValueError):
        ParallelPrefetcher(sim, posix, lookahead_epochs=-1)
    with pytest.raises(ValueError):
        ParallelPrefetcher(sim, posix, lookahead_epochs=True)
    pf = ParallelPrefetcher(sim, posix)
    pf.apply_settings(TuningSettings(extra={"lookahead_epochs": 3}))
    assert pf.lookahead_epochs == 3
    with pytest.raises(ValueError):
        pf.apply_settings(TuningSettings(extra={"lookahead_epochs": -2}))


def test_crashed_lookahead_fetch_is_refetched_next_epoch():
    sim, pf, paths, sched = lookahead_env()
    pf.on_epoch(paths)

    def consumer():
        for path in paths:
            yield pf.serve(path)

    p = sim.process(consumer())
    sim.run(until=p)

    def crasher():
        # Wait until a producer is mid-lookahead-fetch, then kill it.
        while not (set(pf._in_flight.values()) & pf._staged_ahead):
            yield sim.timeout(1e-5)
        pf.crash_producer()

    sim.run(until=sim.process(crasher()))
    sim.run(until=sim.timeout(1.0))
    crashed_total = pf.producer_crashes
    assert crashed_total >= 1
    # The crashed path was released (not requeued into the live epoch) so
    # the next epoch can load cleanly and still serve every sample.
    pf.on_epoch(list(reversed(paths)))
    got = []

    def consumer2():
        for path in reversed(paths):
            nbytes = yield pf.serve(path)
            got.append(nbytes)

    p2 = sim.process(consumer2())
    sim.run(until=p2)
    assert p2.ok and len(got) == len(paths)


# ---------------------------------------------------------------- config & build wiring
def test_tiering_config_validation():
    with pytest.raises(ValueError):
        TieringConfig(fast_capacity_bytes=0)
    with pytest.raises(ValueError):
        TieringConfig(fast_capacity_bytes=float("inf"))
    with pytest.raises(ValueError):
        TieringConfig(fast_capacity_bytes=1024, promote_after=0)
    with pytest.raises(ValueError):
        TieringConfig(fast_capacity_bytes=1024, fast_profile="quantum-foam")
    # Nonsense hierarchy: fast tier at least as large as the backing store.
    with pytest.raises(ValueError):
        TieringConfig(fast_capacity_bytes=4096, backing_capacity_bytes=4096)
    cfg = TieringConfig(fast_capacity_bytes=4096, backing_capacity_bytes=8192)
    assert cfg.fast_capacity_bytes == 4096


def test_prisma_config_tiering_and_lookahead_validation():
    with pytest.raises(ValueError):
        PrismaConfig(lookahead_epochs=-1)
    with pytest.raises(ValueError):
        PrismaConfig(lookahead_epochs=True)
    with pytest.raises(ValueError):
        PrismaConfig(tiering="big and fast")
    cfg = PrismaConfig(lookahead_epochs=2, tiering=TieringConfig(fast_capacity_bytes=1024))
    assert cfg.tiering.fast_capacity_bytes == 1024


def test_build_prisma_wires_tiering_hierarchy():
    sim, posix, split, _ = make_env(n_train=8, profile=sata_hdd())
    cfg = PrismaConfig(
        control_period=1e-2,
        lookahead_epochs=1,
        tiering=TieringConfig(
            fast_capacity_bytes=split.train.total_bytes() // 2, clairvoyant=True
        ),
    )
    stage, pf, ctl = build_prisma(sim, posix, cfg)
    assert isinstance(stage.tiering, ClairvoyantTieringObject)
    assert pf.backend is stage.tiering  # buffer → fast tier → backing FS
    paths = split.train.filenames()
    sched = LookaheadSchedule([paths, paths])
    pf.install_schedule(sched)
    assert stage.tiering.schedule is sched  # propagated down the stack
    stage.load_epoch(paths)
    got = []

    def consumer():
        for path in paths:
            nbytes = yield stage.read_whole(path)
            got.append(nbytes)

    p = sim.process(consumer())
    sim.run(until=p)
    ctl.stop()
    assert len(got) == len(paths)
    total = stage.tiering.counters.get("fast_hits") + stage.tiering.counters.get(
        "slow_reads"
    )
    assert total >= len(paths)  # every producer fetch went through the tier


def test_build_prisma_rejects_fast_tier_swallowing_backing_store():
    sim, posix, split, _ = make_env(n_train=8)
    cfg = PrismaConfig(
        tiering=TieringConfig(fast_capacity_bytes=split.train.total_bytes() * 4)
    )
    with pytest.raises(ValueError):
        build_prisma(sim, posix, cfg)


# ---------------------------------------------------------------- determinism
def test_clairvoyant_comparison_is_deterministic_and_wins():
    from repro.experiments import run_clairvoyant_comparison

    kwargs = dict(seed=3, n_files=48, file_size=32 * 1024, epochs=3)
    a = run_clairvoyant_comparison(**kwargs)
    b = run_clairvoyant_comparison(**kwargs)
    assert a.metrics_dict() == b.metrics_dict()  # byte-identical same-seed rerun
    assert a.reactive.completed and a.clairvoyant.completed
    assert a.clairvoyant.fast_tier_hit_rate > a.reactive.fast_tier_hit_rate


# ---------------------------------------------------------------- live plane
def test_live_prefetcher_lookahead_across_epochs():
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for i in range(6):
            path = os.path.join(root, f"{i}.bin")
            with open(path, "wb") as fh:
                fh.write(bytes([i]) * 1024)
            paths.append(path)
        sched = LookaheadSchedule([paths, list(reversed(paths))])
        with LivePrefetcher(
            producers=2, buffer_capacity=8, lookahead_epochs=1
        ) as pf:
            pf.install_schedule(sched)
            pf.load_epoch(list(paths))
            for path in paths:
                assert len(pf.read(path, timeout=10.0)) == 1024
            # Idle producers should stage the next epoch's prefix.
            deadline = time.monotonic() + 5.0
            while pf.lookahead_fetches == 0 and time.monotonic() < deadline:
                pf._spawn_up_to_target()
                time.sleep(0.01)
            assert pf.lookahead_fetches > 0
            pf.load_epoch(list(reversed(paths)))
            for path in reversed(paths):
                assert len(pf.read(path, timeout=10.0)) == 1024
            snap = pf.snapshot()
            assert snap.lookahead_fetches == pf.lookahead_fetches


def test_live_lookahead_never_claims_a_path_still_in_flight():
    """The live epoch's last read is slow; an idle producer must not claim
    the next epoch's copy of that same path, or one insert overwrites the
    other and the next epoch's read of it waits forever."""
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for i in range(6):
            path = os.path.join(root, f"{i}.bin")
            with open(path, "wb") as fh:
                fh.write(bytes([i]) * 1024)
            paths.append(path)
        last = paths[-1]
        sched = LookaheadSchedule([paths, list(reversed(paths))])
        with LivePrefetcher(
            producers=2, buffer_capacity=8, lookahead_epochs=1
        ) as pf:
            read_file = pf._read_file
            reads_of_last = []
            held, release = threading.Event(), threading.Event()

            def slow_last(path):
                if path == last:
                    reads_of_last.append(path)
                    if len(reads_of_last) == 1:
                        held.set()
                        release.wait(10.0)
                return read_file(path)

            pf._read_file = slow_last
            pf.install_schedule(sched)
            pf.load_epoch(list(paths))
            for path in paths[:-1]:
                assert len(pf.read(path, timeout=10.0)) == 1024
            assert held.wait(10.0)
            # The other producer drains the queue, finds the next epoch's
            # first path in flight, and retires instead of claiming it.
            deadline = time.monotonic() + 5.0
            while pf.live_producers > 1 and len(reads_of_last) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            pf._spawn_up_to_target()
            assert reads_of_last == [last]
            assert pf.lookahead_fetches == 0
            release.set()
            assert len(pf.read(last, timeout=10.0)) == 1024
            pf.load_epoch(list(reversed(paths)))
            for path in reversed(paths):
                assert len(pf.read(path, timeout=10.0)) == 1024


def test_live_prefetcher_lookahead_knob():
    with pytest.raises(ValueError):
        LivePrefetcher(lookahead_epochs=-1)
    with LivePrefetcher() as pf:
        pf.apply_settings(TuningSettings(extra={"lookahead_epochs": 2}))
        assert pf.lookahead_epochs == 2
        with pytest.raises(ValueError):
            pf.apply_settings(TuningSettings(extra={"lookahead_epochs": False}))
