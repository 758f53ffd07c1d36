"""Tests for the extension features: sharded pipeline, sequential reads,
seek serialization, error propagation, validation prefetching."""

import pytest

from repro.core import ParallelPrefetcher
from repro.dataset import (
    DatasetCatalog,
    EpochShuffler,
    SequentialOrder,
    shard_catalog,
    tiny_dataset,
)
from repro.frameworks import GpuEnsemble, LENET, Trainer, TrainingConfig
from repro.frameworks.tensorflow import ShardedTFDataPipeline, tf_baseline
from repro.simcore import RandomStreams, Simulator
from repro.storage import (
    BlockDevice,
    DeviceProfile,
    Filesystem,
    MiB,
    PosixLayer,
    intel_p4600,
    ramdisk,
    sata_hdd,
)
from repro.telemetry import Telemetry


# ---------------------------------------------------------------- sequential reads
def test_large_reads_use_sequential_channel():
    sim = Simulator()
    dev = BlockDevice(sim, intel_p4600())
    fs = Filesystem(sim, dev)
    fs.create("/big", 64 * MiB)
    fs.create("/small", 100 * 1024)

    def scenario():
        yield fs.read_whole("/small")
        yield fs.read_whole("/big")

    p = sim.process(scenario())
    sim.run(until=p)
    assert dev.counters.get("sequential_reads") == 1
    assert dev.bytes_read() == pytest.approx(64 * MiB + 100 * 1024)


def test_sequential_bandwidth_exceeds_random():
    """64 MiB streamed must beat 64 MiB as 600 small random files."""
    prof = intel_p4600()

    def timed(sizes):
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, prof))
        for i, s in enumerate(sizes):
            fs.create(f"/f{i}", s)

        def reader():
            for i in range(len(sizes)):
                yield fs.read_whole(f"/f{i}")

        p = sim.process(reader())
        sim.run(until=p)
        return sim.now

    seq = timed([64 * MiB])
    rand = timed([112_347] * 600)  # ~64 MiB of ImageNet-sized files
    assert rand / seq > 5


def test_profile_sequential_defaults_to_random_rate():
    prof = DeviceProfile("x", 100.0, 100.0, 1.0, 1.0, 0.0, 0.0)
    assert prof.effective_sequential_bandwidth() == 100.0
    with pytest.raises(ValueError):
        DeviceProfile("x", 100.0, 100.0, 1.0, 1.0, 0.0, 0.0, sequential_read_bandwidth=-1)
    with pytest.raises(ValueError):
        DeviceProfile("x", 100.0, 100.0, 1.0, 1.0, 0.0, 0.0, large_read_threshold=0)


# ---------------------------------------------------------------- seek serialization
def test_hdd_seeks_serialize():
    """On the HDD profile, 4 readers gain little over 1 (one actuator)."""

    def timed(readers):
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, sata_hdd()))
        n = 40
        for i in range(n):
            fs.create(f"/f{i}", 100 * 1024)
        work = list(range(n))

        def reader():
            while work:
                i = work.pop()
                yield fs.read_whole(f"/f{i}")

        for _ in range(readers):
            sim.process(reader())
        sim.run()
        return sim.now

    t1, t4 = timed(1), timed(4)
    assert t4 > t1 * 0.75  # <33% gain from 4x the threads


def test_ssd_seeks_overlap():
    """On the SSD profile, 4 readers clearly beat 1."""

    def timed(readers):
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
        n = 200
        for i in range(n):
            fs.create(f"/f{i}", 113 * 1024)
        work = list(range(n))

        def reader():
            while work:
                i = work.pop()
                yield fs.read_whole(f"/f{i}")

        for _ in range(readers):
            sim.process(reader())
        sim.run()
        return sim.now

    t1, t4 = timed(1), timed(4)
    assert t1 / t4 > 1.8


def test_hdd_reads_issued_together_serialize_their_seeks():
    """Three reads at t = 0 on one actuator: the first takes the free seek
    slot in place, the other two queue for it, and each read lands one
    seek after the one before.  The floats and the slot's metering are
    the ones a grant event per read gave."""
    sim = Simulator()
    dev = BlockDevice(sim, sata_hdd())
    done = []
    for _ in range(3):
        dev.read(100 * 1024).add_callback(lambda ev: done.append((sim.now, ev.value)))
    sim.run()
    assert done == [
        (0.008623914930555556, 0.008623914930555556),
        (0.016623914930555556, 0.008623914930555556),
        (0.024623914930555556, 0.008623914930555556),
    ]
    slots = dev._seek_slots
    assert slots.total_wait_time == 0.024
    assert slots.utilization() == 0.9746622365974248
    assert sim.events_processed == 11


@pytest.mark.parametrize("traced", [False, True])
def test_free_seek_slot_costs_no_grant_event(traced):
    """``ramdisk`` has seek slots (256 of them, below its queue depth of
    4096), and a read that finds one free takes it in place: the latency
    timer, the transfer's completion and the read's own event are its
    three kernel events, one fewer than with a grant event.  Traced, the
    read still opens and closes its ``dev.seek_wait`` span."""
    sim = Simulator()
    tel = Telemetry().attach(sim) if traced else None
    dev = BlockDevice(sim, ramdisk())
    assert dev._seek_slots is not None
    done = []
    dev.read(64 * 1024).add_callback(lambda ev: done.append((sim.now, ev.value)))
    sim.run()
    assert done == [(8.612141927083333e-06, 8.612141927083333e-06)]
    assert sim.events_processed == 3
    if traced:
        spans = [(s.name, s.start, s.end) for s in tel.spans("storage")]
        assert spans == [
            ("dev.read", 0.0, 8.612141927083333e-06),
            ("dev.seek_wait", 0.0, 0.0),
            ("dev.transfer", 2e-06, 8.612141927083333e-06),
        ]


def test_seek_concurrency_validation():
    with pytest.raises(ValueError):
        DeviceProfile("x", 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, seek_concurrency=0)


# ---------------------------------------------------------------- sharded pipeline
def make_sharded_env(n_samples=64, per_shard=16):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    cat = DatasetCatalog("/d", [50_000] * n_samples)
    sharded = shard_catalog(cat, samples_per_shard=per_shard)
    sharded.shards.materialize(fs)
    posix = PosixLayer(sim, fs)
    return sim, posix, sharded, streams


def test_sharded_pipeline_delivers_all_batches():
    sim, posix, sharded, _ = make_sharded_env()
    src = ShardedTFDataPipeline(
        sim, sharded, SequentialOrder(len(sharded.shards)), 10, posix, LENET
    )
    src.begin_epoch(0)
    batches = []

    def consume():
        while True:
            b = yield src.next_batch()
            if b is None:
                return
            batches.append(b)

    p = sim.process(consume())
    sim.run(until=p)
    assert sum(batches) == 64
    assert batches[:-1] == [10] * 6
    assert src.shards_read == 4
    assert src.bytes_read == sharded.shards.total_bytes()


def test_sharded_pipeline_in_trainer():
    sim, posix, sharded, streams = make_sharded_env(n_samples=80, per_shard=20)
    split = tiny_dataset(streams, n_train=8, n_val=8)
    split.validation.materialize(posix.fs)
    src = ShardedTFDataPipeline(
        sim, sharded, EpochShuffler(len(sharded.shards), streams.spawn("s")),
        16, posix, LENET,
    )
    val = tf_baseline(sim, split.validation, SequentialOrder(8), 16, posix, LENET, name="v")
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), src, TrainingConfig(epochs=2, global_batch=16), val
    )
    result = trainer.run_to_completion()
    assert all(e.train_batches == 5 for e in result.epoch_stats)


def test_sharded_pipeline_requires_shard_granular_shuffler():
    sim, posix, sharded, _ = make_sharded_env()
    with pytest.raises(ValueError):
        ShardedTFDataPipeline(
            sim, sharded, SequentialOrder(len(sharded)), 10, posix, LENET
        )


def test_sharded_pipeline_validation():
    sim, posix, sharded, _ = make_sharded_env()
    order = SequentialOrder(len(sharded.shards))
    with pytest.raises(ValueError):
        ShardedTFDataPipeline(sim, sharded, order, 0, posix, LENET)
    with pytest.raises(ValueError):
        ShardedTFDataPipeline(sim, sharded, order, 8, posix, LENET, reader_threads=0)
    with pytest.raises(ValueError):
        ShardedTFDataPipeline(sim, sharded, order, 8, posix, LENET, prefetch_batches=0)


# ---------------------------------------------------------------- error propagation
def test_prefetcher_propagates_read_errors_to_consumer():
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    split = tiny_dataset(streams, n_train=4, n_val=2)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    pf = ParallelPrefetcher(sim, posix, producers=1, buffer_capacity=8)
    paths = split.train.filenames()
    ghost = "/data/tiny/train/999"  # not materialized
    pf.on_epoch(paths[:2] + [ghost] + paths[2:])

    def consumer():
        results = []
        for path in paths[:2]:
            results.append((yield pf.serve(path)))
        try:
            yield pf.serve(ghost)
            results.append("no-error")
        except Exception as exc:
            results.append(type(exc).__name__)
        for path in paths[2:]:
            results.append((yield pf.serve(path)))
        return results

    p = sim.process(consumer())
    sim.run(until=p)
    results = p.value
    # The ghost file errored but the epoch completed for every real sample.
    assert "FileNotFound" in str(results)
    assert pf.read_errors == 1
    assert pf.files_fetched == 4


# ---------------------------------------------------------------- validation prefetch
def test_validation_prefetch_improves_prisma():
    from repro.experiments import ExperimentScale, run_tf_trial

    scale = ExperimentScale(scale=400, epochs=1)
    plain = run_tf_trial("tf-prisma", LENET, 32, scale)
    full = run_tf_trial("tf-prisma", LENET, 32, scale, prefetch_validation=True)
    assert full.paper_equivalent_seconds < plain.paper_equivalent_seconds
