"""Unit tests for the training driver and the TF/PyTorch pipelines."""

import pytest

from repro.dataset import EpochShuffler, SequentialOrder, tiny_dataset
from repro.frameworks import GpuEnsemble, LENET, Trainer, TrainingConfig
from repro.frameworks.pytorch import TorchDataLoader
from repro.frameworks.tensorflow import (
    AutotunerMode,
    PrefetchAutotuner,
    TFDataPipeline,
    tf_baseline,
    tf_optimized,
)
from repro.simcore import ProcessError, RandomStreams, Simulator
from repro.storage import BlockDevice, Filesystem, PosixLayer, ramdisk
from repro.storage.filesystem import ReadFault, TransientReadError


def make_env(n_train=64, n_val=16):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    split = tiny_dataset(streams, n_train=n_train, n_val=n_val)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    return sim, posix, split, streams


# ---------------------------------------------------------------- TrainingConfig
def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(global_batch=0)


def test_trainer_requires_validation_source_when_validating():
    sim, posix, split, streams = make_env()
    src = tf_baseline(sim, split.train, SequentialOrder(len(split.train)), 8, posix, LENET)
    with pytest.raises(ValueError):
        Trainer(sim, LENET, GpuEnsemble(sim), src, TrainingConfig(epochs=1), None)


# ---------------------------------------------------------------- TF pipeline
def test_tf_pipeline_delivers_all_batches():
    sim, posix, split, _ = make_env(n_train=50)
    src = tf_baseline(sim, split.train, SequentialOrder(50), 8, posix, LENET)
    val = tf_baseline(sim, split.validation, SequentialOrder(16), 8, posix, LENET, name="v")
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), src, TrainingConfig(epochs=2, global_batch=8), val
    )
    result = trainer.run_to_completion()
    # 50 samples / 8 = 6 full + 1 partial = 7 train batches per epoch.
    assert all(e.train_batches == 7 for e in result.epoch_stats)
    assert all(e.validation_batches == 2 for e in result.epoch_stats)
    assert src.samples_read == 100  # 50 x 2 epochs
    assert result.total_time > 0


def test_tf_pipeline_reads_every_byte():
    sim, posix, split, _ = make_env(n_train=30)
    src = tf_baseline(sim, split.train, SequentialOrder(30), 10, posix, LENET)
    val = tf_baseline(sim, split.validation, SequentialOrder(16), 10, posix, LENET, name="v")
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), src, TrainingConfig(epochs=1, global_batch=10), val
    )
    trainer.run_to_completion()
    assert src.bytes_read == split.train.total_bytes()


def test_tf_optimized_faster_than_baseline_on_io_bound():
    def run(factory):
        sim, posix, split, _ = make_env(n_train=128)
        src = factory(sim, split.train, SequentialOrder(128), 16, posix, LENET)
        val = tf_baseline(sim, split.validation, SequentialOrder(16), 16, posix, LENET, name="v")
        trainer = Trainer(
            sim, LENET, GpuEnsemble(sim), src,
            TrainingConfig(epochs=1, global_batch=16), val,
        )
        return trainer.run_to_completion().total_time

    # On a ramdisk the gap is small but parallel reads still win.
    assert run(tf_optimized) <= run(tf_baseline)


def test_tf_pipeline_epoch_order_follows_shuffler():
    sim, posix, split, streams = make_env(n_train=20)
    shuffler = EpochShuffler(20, streams.spawn("s"))
    src = tf_baseline(sim, split.train, shuffler, 5, posix, LENET)
    src.begin_epoch(3)
    assert src._epoch_order == [int(i) for i in shuffler.order(3)]
    # Drain so no processes dangle.
    def drain():
        while True:
            batch = yield src.next_batch()
            if batch is None:
                return
    p = sim.process(drain())
    sim.run(until=p)


def test_tf_pipeline_validation_of_arguments():
    sim, posix, split, _ = make_env()
    order = SequentialOrder(len(split.train))
    with pytest.raises(ValueError):
        TFDataPipeline(sim, split.train, order, 0, posix, LENET)
    with pytest.raises(ValueError):
        TFDataPipeline(sim, split.train, order, 8, posix, LENET, reader_threads=0)
    with pytest.raises(ValueError):
        TFDataPipeline(sim, split.train, order, 8, posix, LENET, prefetch=0)
    with pytest.raises(ValueError):
        TFDataPipeline(sim, split.train, order, 8, posix, LENET, prefetch="bogus")


def test_tf_active_reader_gauge_bounded_by_thread_count():
    sim, posix, split, _ = make_env(n_train=60)
    src = TFDataPipeline(
        sim, split.train, SequentialOrder(60), 10, posix, LENET,
        reader_threads=3, map_threads=2, prefetch=2,
    )
    val = tf_baseline(sim, split.validation, SequentialOrder(16), 10, posix, LENET, name="v")
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), src, TrainingConfig(epochs=1, global_batch=10), val
    )
    trainer.run_to_completion()
    assert src.active_readers.max_seen() <= 3


def test_tf_baseline_failed_read_aborts_the_run_as_its_reader():
    """A failed sample read ends the run as a dead reader process did:
    ``sim.run`` raises the reader's ProcessError, caused by the read's
    own error, at the time the read failed."""
    sim, posix, split, _ = make_env(n_train=16)
    bad = split.train.path(5)
    posix.fs.fault_hook = lambda path, nbytes: (
        ReadFault(error=TransientReadError(path)) if path == bad else None
    )
    failed_at = []
    real_read = posix.fs.read

    def read(path, *args):
        event = real_read(path, *args)
        if path == bad:
            event.add_callback(lambda _ev: failed_at.append(sim.now))
        return event

    posix.fs.read = read
    src = tf_baseline(sim, split.train, SequentialOrder(16), 4, posix, LENET)
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), src,
        TrainingConfig(epochs=1, global_batch=4, validate=False),
    )
    with pytest.raises(ProcessError) as info:
        trainer.run_to_completion()
    assert str(info.value).startswith("process 'tf-baseline.reader0' failed: ")
    cause = info.value.__cause__
    assert isinstance(cause, ProcessError) and str(cause).startswith("process 'fsread:")
    assert isinstance(cause.__cause__, TransientReadError)
    assert failed_at == [sim.now]


# ---------------------------------------------------------------- PrefetchAutotuner
def test_autotuner_doubles_on_empty_after_full():
    tuner = PrefetchAutotuner(initial_limit=1, max_limit=16)
    assert tuner.buffer_limit == 1
    tuner.record_consumption(1)  # full -> downswing
    assert tuner.mode is AutotunerMode.DOWNSWING
    tuner.record_consumption(0)  # empty -> double
    assert tuner.buffer_limit == 2
    assert tuner.mode is AutotunerMode.UPSWING


def test_autotuner_respects_max_limit():
    tuner = PrefetchAutotuner(initial_limit=1, max_limit=4)
    for _ in range(10):
        tuner.record_consumption(tuner.buffer_limit)
        tuner.record_consumption(0)
    assert tuner.buffer_limit == 4


def test_autotuner_disabled_never_changes():
    tuner = PrefetchAutotuner(initial_limit=8, enabled=False)
    tuner.record_consumption(8)
    tuner.record_consumption(0)
    assert tuner.buffer_limit == 8
    assert tuner.mode is AutotunerMode.DISABLED


def test_autotuner_stable_buffer_keeps_limit():
    tuner = PrefetchAutotuner(initial_limit=4, max_limit=64)
    for _ in range(20):
        tuner.record_consumption(2)  # neither full nor empty
    assert tuner.buffer_limit == 4


def test_autotuner_invalid_args():
    with pytest.raises(ValueError):
        PrefetchAutotuner(initial_limit=0)
    with pytest.raises(ValueError):
        PrefetchAutotuner(initial_limit=8, max_limit=4)
    tuner = PrefetchAutotuner()
    with pytest.raises(ValueError):
        tuner.record_consumption(-1)


# ---------------------------------------------------------------- TorchDataLoader
@pytest.mark.parametrize("workers", [0, 1, 2, 4])
def test_torch_loader_delivers_all_batches(workers):
    sim, posix, split, _ = make_env(n_train=48)
    loader = TorchDataLoader(
        sim, split.train, SequentialOrder(48), 8, lambda w: posix, LENET,
        num_workers=workers,
    )
    val = TorchDataLoader(
        sim, split.validation, SequentialOrder(16), 8, lambda w: posix, LENET,
        num_workers=workers, name="val",
    )
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), loader, TrainingConfig(epochs=2, global_batch=8), val
    )
    result = trainer.run_to_completion()
    assert all(e.train_batches == 6 for e in result.epoch_stats)
    assert loader.samples_read == 96


def test_torch_loader_in_order_delivery():
    """Batch k must come from worker k mod W, preserving batch order."""
    sim, posix, split, _ = make_env(n_train=40)
    loader = TorchDataLoader(
        sim, split.train, SequentialOrder(40), 10, lambda w: posix, LENET,
        num_workers=3,
    )
    loader.begin_epoch(0)
    sizes = []

    def consume():
        while True:
            batch = yield loader.next_batch()
            if batch is None:
                return
            sizes.append(batch)

    p = sim.process(consume())
    sim.run(until=p)
    assert sizes == [10, 10, 10, 10]


def test_torch_loader_drop_last():
    sim, posix, split, _ = make_env(n_train=45)
    loader = TorchDataLoader(
        sim, split.train, SequentialOrder(45), 10, lambda w: posix, LENET,
        num_workers=0, drop_last=True,
    )
    loader.begin_epoch(0)
    count = 0

    def consume():
        nonlocal count
        while True:
            batch = yield loader.next_batch()
            if batch is None:
                return
            count += 1

    p = sim.process(consume())
    sim.run(until=p)
    assert count == 4  # the 5-sample remainder is dropped


def test_torch_loader_more_workers_faster_on_slow_storage():
    def run(workers):
        # A slow device makes the run I/O-bound, where workers matter.
        from repro.storage import sata_hdd

        streams = RandomStreams(workers)
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, sata_hdd()))
        split = tiny_dataset(streams, n_train=96, n_val=16)
        split.materialize(fs)
        posix = PosixLayer(sim, fs)
        loader = TorchDataLoader(
            sim, split.train, SequentialOrder(96), 8, lambda w: posix, LENET,
            num_workers=workers,
        )
        val = TorchDataLoader(
            sim, split.validation, SequentialOrder(16), 8, lambda w: posix, LENET,
            num_workers=workers, name="val",
        )
        trainer = Trainer(
            sim, LENET, GpuEnsemble(sim), loader,
            TrainingConfig(epochs=1, global_batch=8), val,
        )
        return trainer.run_to_completion().total_time

    assert run(4) < run(0)


def test_torch_loader_invalid_args():
    sim, posix, split, _ = make_env()
    order = SequentialOrder(len(split.train))
    with pytest.raises(ValueError):
        TorchDataLoader(sim, split.train, order, 0, lambda w: posix, LENET)
    with pytest.raises(ValueError):
        TorchDataLoader(sim, split.train, order, 8, lambda w: posix, LENET, num_workers=-1)
    with pytest.raises(ValueError):
        TorchDataLoader(sim, split.train, order, 8, lambda w: posix, LENET, prefetch_factor=0)
