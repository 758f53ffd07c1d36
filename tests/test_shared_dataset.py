"""Tests for shared-dataset prefetching (read-once, serve-K)."""

import pytest

from repro.core import PrismaStage, SharedDatasetPrefetcher, TuningSettings
from repro.dataset import tiny_dataset
from repro.simcore import RandomStreams, Simulator
from repro.storage import (
    BlockDevice, FileNotFound, Filesystem, PosixLayer, intel_p4600, ramdisk,
)


def make_env(n_train=32, profile=None):
    streams = RandomStreams(0)
    sim = Simulator()
    dev = BlockDevice(sim, profile or ramdisk())
    fs = Filesystem(sim, dev)
    split = tiny_dataset(streams, n_train=n_train, n_val=4)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    return sim, dev, posix, split


def run_consumers(sim, pf, paths, k):
    """K consumers each take every path once (slightly staggered)."""

    def consumer(offset):
        yield sim.timeout(offset * 1e-5)
        for path in paths:
            yield pf.serve(path)

    procs = [sim.process(consumer(i)) for i in range(k)]
    done = sim.all_of(procs)
    sim.run(until=done)


def test_shared_reads_once_serves_k():
    sim, dev, posix, split = make_env()
    pf = SharedDatasetPrefetcher(sim, posix, consumers=3, producers=2, buffer_capacity=64)
    paths = split.train.filenames()
    pf.on_epoch(paths)
    run_consumers(sim, pf, paths, 3)
    # Each file hit the backend exactly once but was served three times.
    assert pf.files_fetched == len(paths)
    assert dev.counters.get("reads") == len(paths)
    hits = pf.buffer.counters.get("hits") + pf.buffer.counters.get("waits")
    assert hits == 3 * len(paths)
    assert pf.buffer.level == 0  # everything fully consumed and evicted


def test_shared_vs_independent_device_traffic():
    """K independent jobs read K times the bytes; the shared plane once."""
    k, n = 3, 24

    def device_reads(shared: bool):
        sim, dev, posix, split = make_env(n_train=n)
        paths = split.train.filenames()
        if shared:
            pf = SharedDatasetPrefetcher(sim, posix, consumers=k, buffer_capacity=64)
            pf.on_epoch(paths)
            run_consumers(sim, pf, paths, k)
        else:
            from repro.core import ParallelPrefetcher

            pfs = []
            for _ in range(k):
                pf = ParallelPrefetcher(sim, posix, buffer_capacity=64)
                pf.on_epoch(paths)
                pfs.append(pf)

            def consumer(pf):
                for path in paths:
                    yield pf.serve(path)

            done = sim.all_of([sim.process(consumer(pf)) for pf in pfs])
            sim.run(until=done)
        return dev.counters.get("reads")

    assert device_reads(shared=False) == k * n
    assert device_reads(shared=True) == n


def test_shared_out_of_pace_consumers():
    """A slow consumer still gets every copy; fast ones are not blocked
    beyond buffer capacity."""
    sim, dev, posix, split = make_env(n_train=16)
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=8)
    paths = split.train.filenames()
    pf.on_epoch(paths)
    got = {"fast": 0, "slow": 0}

    def fast():
        for path in paths:
            yield pf.serve(path)
            got["fast"] += 1

    def slow():
        for path in paths:
            yield sim.timeout(1e-3)
            yield pf.serve(path)
            got["slow"] += 1

    done = sim.all_of([sim.process(fast()), sim.process(slow())])
    sim.run(until=done)
    assert got == {"fast": 16, "slow": 16}
    assert pf.files_fetched == 16


def test_shared_in_stage_with_fallback():
    sim, dev, posix, split = make_env()
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=32)
    stage = PrismaStage(sim, posix, [pf])
    stage.load_epoch(split.train.filenames())
    val_path = split.validation.path(0)
    ev = stage.read_whole(val_path)  # uncovered -> backend fallback
    sim.run(until=ev)
    assert ev.value == split.validation.size(0)


def test_shared_knobs_and_snapshot():
    sim, dev, posix, split = make_env()
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, producers=1, max_producers=4)
    pf.apply_settings(TuningSettings(producers=3, buffer_capacity=128))
    assert pf.target_producers == 3
    assert pf.buffer.capacity == 128
    snap = pf.snapshot()
    assert snap.buffer_capacity == 128
    assert snap.queue_remaining == 0


def test_shared_error_propagates_to_all_consumers():
    sim, dev, posix, split = make_env(n_train=4)
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=8)
    ghost = "/data/tiny/train/999"
    pf.on_epoch([ghost])
    failures = []

    def consumer():
        try:
            yield pf.serve(ghost)
        except Exception as exc:
            failures.append(type(exc).__name__)

    done = sim.all_of([sim.process(consumer()) for _ in range(2)])
    sim.run(until=done)
    assert failures == ["FileNotFound", "FileNotFound"]
    assert pf.read_errors == 1


def test_shared_validation():
    sim, dev, posix, split = make_env()
    with pytest.raises(ValueError):
        SharedDatasetPrefetcher(sim, posix, consumers=0)
    with pytest.raises(ValueError):
        SharedDatasetPrefetcher(sim, posix, consumers=1, producers=0)
    with pytest.raises(ValueError):
        SharedDatasetPrefetcher(sim, posix, consumers=1, producers=4, max_producers=2)


def test_shared_multi_epoch():
    sim, dev, posix, split = make_env(n_train=8)
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=16)
    paths = split.train.filenames()

    def epochs():
        for _ in range(2):
            pf.on_epoch(paths)

            def consumer():
                for path in paths:
                    yield pf.serve(path)

            done = sim.all_of([sim.process(consumer()) for _ in range(2)])
            yield done

    p = sim.process(epochs())
    sim.run(until=p)
    assert pf.files_fetched == 16  # 8 files x 2 epochs, once each


def test_shared_snapshot_reports_fetches_and_errors():
    """The control plane sees the shared plane's fetches and failures, so
    the degraded-mode policy can engage on it."""
    sim, dev, posix, split = make_env(n_train=4)
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=8)
    paths = split.train.filenames()[:3] + ["/data/tiny/train/999"]
    pf.on_epoch(paths)

    def consumer():
        for path in paths:
            try:
                yield pf.serve(path)
            except FileNotFound:  # the ghost path's staged error
                pass

    sim.run(until=sim.all_of([sim.process(consumer()) for _ in range(2)]))
    snap = pf.snapshot()
    assert (snap.files_fetched, snap.read_errors) == (3, 1)
    assert snap.error_rate() == 0.25


def test_shared_recovers_from_a_producer_crash():
    """A fault plan's producer crash requeues the victim's path, so every
    consumer is still served every sample."""
    from repro.faults import PRODUCER_CRASH, FaultEvent, FaultInjector, FaultPlan

    sim, dev, posix, split = make_env(n_train=16, profile=intel_p4600())
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=8)
    injector = FaultInjector(sim)
    injector.attach_prefetcher(pf)
    injector.install(FaultPlan([FaultEvent(PRODUCER_CRASH, time=1e-4)]))
    paths = split.train.filenames()
    pf.on_epoch(paths)
    served = {0: 0, 1: 0}

    def consumer(cid):
        for path in paths:
            yield pf.serve(path)
            served[cid] += 1

    sim.run(until=sim.all_of([sim.process(consumer(c)) for c in served]))
    assert served == {0: 16, 1: 16}
    assert pf.producer_crashes == 1
    assert pf.files_fetched == 16


def test_shared_consumer_an_epoch_behind():
    """Epoch 1 stages every path again while the slow consumer still owes
    its epoch-0 copy: both copies stay buffered, each path is read once
    per epoch, and the slow consumer still gets both epochs in order."""
    sim, dev, posix, split = make_env(n_train=4)
    pf = SharedDatasetPrefetcher(sim, posix, consumers=2, buffer_capacity=8)
    paths = split.train.filenames()
    got = []

    def fast():
        for _ in range(2):
            pf.on_epoch(paths)
            for path in paths:
                yield pf.serve(path)

    def slow():
        yield sim.timeout(1.0)
        for path in paths * 2:
            yield pf.serve(path)
            got.append(path)

    sim.run(until=sim.all_of([sim.process(fast()), sim.process(slow())]))
    assert pf.files_fetched == 8
    assert dev.counters.get("reads") == 8
    assert pf.buffer.level == 0
    assert got == paths * 2
