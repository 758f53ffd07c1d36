"""The TF pipeline's callback engine against its reference: stage processes.

``TFDataPipeline`` runs its readers, mappers and batcher as one callback
state machine.  :class:`StagedPipeline` below runs the same pipeline as
tf.data's structure spells it out: one process per reader, per mapper and
for the batcher, joined by bounded stores.  The engine must deliver the
same batches at the same times, with the same counters: with several
readers and mappers, shallow stages, prefetch and autotune, and record
shards, on every backend kind.

Under the PRISMA binding the prefetcher's producers fill the stage's
buffer at the same instants as the reader asks it, so whether a read is
a hit or a wait depends on the order of the two.  The engine issues the
next read inside the completion callback, where a reader process issued
it one event later; the buffer's hit and wait counts must still match.

Besides the trainer and PRISMA's prefetcher and controller, nothing else
acts.  A second device user acting at the same instants, such as a
synchronous checkpoint writer on a disk with one seek slot, can see its
requests ordered differently against the engine's, whose hand-offs all
run inside the triggering event (DESIGN §15).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PrismaConfig, build_prisma
from repro.core.integrations.tf_binding import (
    PrismaTensorFlowPipeline,
    _share_filenames_seam,
)
from repro.dataset import DatasetCatalog, EpochShuffler, shard_catalog
from repro.frameworks import ALEXNET, LENET, RESNET50, GpuEnsemble, Trainer, TrainingConfig
from repro.frameworks.tensorflow import ShardedTFDataPipeline, TFDataPipeline
from repro.frameworks.training import DataSource
from repro.simcore import RandomStreams, Simulator, Store
from repro.simcore.event import Event, chain_result
from repro.storage import BackendConfig, PosixLayer, build_backend

_END = object()


class StagedPipeline(DataSource):
    """``pipeline``'s stages as processes joined by stores.

    Drives the pipeline's own read-unit hooks, counters and autotuner, so
    only the hand-offs differ from the engine.
    """

    def __init__(self, pipeline: TFDataPipeline) -> None:
        self.p = pipeline

    def begin_epoch(self, epoch):
        p = self.p
        p._epoch_order = [int(i) for i in p.shuffler.order(epoch)]
        self.cursor = 0
        self.raw = Store(p.sim, capacity=p.stage_depth)
        self.mapped = Store(p.sim, capacity=p.stage_depth)
        self.batches = Store(p.sim, capacity=p._batch_capacity)
        for _ in range(p.reader_threads):
            p.sim.process(self._reader())
        for _ in range(p.map_threads):
            p.sim.process(self._mapper())
        p.sim.process(self._batcher(p._epoch_records()))
        if isinstance(p, PrismaTensorFlowPipeline):
            _share_filenames_seam(p.stage, (p.catalog.path(i) for i in p._epoch_order))

    def _reader(self):
        p = self.p
        while self.cursor < len(p._epoch_order):
            unit = p._epoch_order[self.cursor]
            self.cursor += 1
            p.active_readers.increment()
            nbytes = yield p.posix.read_whole(p.catalog.path(unit))
            p.active_readers.decrement()
            for _ in range(p._unit_landed(unit, nbytes)):
                yield self.raw.put(unit)

    def _mapper(self):
        while True:
            item = yield self.raw.get()
            if item is _END:
                yield self.raw.put(_END)
                return
            yield self.p.sim.timeout(self.p.model.preprocess_time_per_image)
            yield self.mapped.put(item)

    def _batcher(self, remaining):
        while remaining > 0:
            take = min(self.p.batch_size, remaining)
            for _ in range(take):
                yield self.mapped.get()
            remaining -= take
            yield self.batches.put(take)
        yield self.batches.put(None)
        yield self.raw.put(_END)

    def next_batch(self):
        p = self.p
        if p.autotuner is not None:
            p.autotuner.record_consumption(self.batches.level)
            if p.autotuner.buffer_limit != p._batch_capacity:
                p._batch_capacity = p.autotuner.buffer_limit
                self.batches.set_capacity(p._batch_capacity)
        return chain_result(self.batches.get(), Event(p.sim))


BACKENDS = (
    BackendConfig(kind="posix", device_profile="intel-p4600"),
    BackendConfig(kind="posix", device_profile="sata-hdd"),
    BackendConfig(kind="posix", device_profile="ramdisk"),
    BackendConfig(kind="posix", write_penalty=0.45),
    BackendConfig(kind="object"),
)


def storage(seed, n, backend):
    """A simulator, the backend's file system and a catalog of ``n`` files."""
    streams = RandomStreams(seed)
    sim = Simulator()
    fs = build_backend(sim, backend, streams=streams)
    sizes = random.Random(seed)
    catalog = DatasetCatalog("/d", [sizes.randint(20_000, 200_000) for _ in range(n)])
    return streams, sim, fs, catalog, PosixLayer(sim, fs)


def train(pipeline, reference, model, batch):
    """Two epochs from ``pipeline``, or from its stage processes."""
    trainer = Trainer(
        pipeline.sim, model, GpuEnsemble(pipeline.sim, n_gpus=2),
        StagedPipeline(pipeline) if reference else pipeline,
        TrainingConfig(epochs=2, global_batch=batch, validate=False),
    )
    result = trainer.run_to_completion()
    counters = (pipeline.samples_read, pipeline.bytes_read, getattr(pipeline, "shards_read", 0))
    readers = sorted(pipeline.active_readers.histogram().items())
    return repr(result), counters, readers, pipeline.sim.now


def run(reference, seed, n, batch, readers, mappers, depth, prefetch, model, backend,
        per_shard):
    streams, sim, fs, catalog, posix = storage(seed, n, backend)
    if per_shard:
        sharded = shard_catalog(catalog, samples_per_shard=per_shard)
        sharded.shards.materialize(fs)
        shuffler = EpochShuffler(len(sharded.shards), streams.spawn("s"))
        pipeline = ShardedTFDataPipeline(
            sim, sharded, shuffler, batch, posix, model, reader_threads=readers,
            map_threads=mappers, prefetch_batches=prefetch if isinstance(prefetch, int) else 1,
        )
    else:
        catalog.materialize(fs)
        pipeline = TFDataPipeline(
            sim, catalog, EpochShuffler(n, streams.spawn("s")), batch, posix, model,
            reader_threads=readers, map_threads=mappers, prefetch=prefetch, stage_depth=depth,
        )
    return train(pipeline, reference, model, batch)


def run_prisma(reference, seed, n, batch, model, backend, producers, capacity, period):
    streams, sim, fs, catalog, posix = storage(seed, n, backend)
    catalog.materialize(fs)
    stage, prefetcher, controller = build_prisma(sim, posix, PrismaConfig(
        producers=producers, buffer_capacity=capacity, control_period=period,
    ))
    pipeline = PrismaTensorFlowPipeline(
        sim, catalog, EpochShuffler(n, streams.spawn("s")), batch, stage, model
    )
    trained = train(pipeline, reference, model, batch)
    buffer = prefetcher.buffer.counters
    plane = (buffer.get("hits"), buffer.get("waits"), buffer.get("inserts"),
             controller.cycles, controller.enforcements)
    controller.stop()
    return trained, plane


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(1, 60),
    batch=st.sampled_from([1, 2, 3, 7, 16, 32]),
    readers=st.sampled_from([1, 2, 4, 30]),
    mappers=st.sampled_from([1, 2, 4, 30]),
    depth=st.sampled_from([1, 2, 3, 8, 60]),
    prefetch=st.sampled_from([None, 1, 2, 5, "autotune"]),
    model=st.sampled_from([LENET, ALEXNET, RESNET50]),
    backend=st.sampled_from(BACKENDS),
    per_shard=st.sampled_from([0, 0, 3, 8, 20]),
)
def test_callback_engine_matches_the_stage_processes(**cfg):
    assert run(False, **cfg) == run(True, **cfg)


# A buffer smaller than the producers' run-ahead can fill with later
# samples while an earlier one is in flight, and the run never ends; the
# capacities stay clear of that.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(1, 60),
    batch=st.sampled_from([1, 2, 3, 7, 16, 32]),
    model=st.sampled_from([LENET, ALEXNET, RESNET50]),
    backend=st.sampled_from(BACKENDS),
    producers=st.sampled_from([1, 2, 4, 8]),
    capacity=st.sampled_from([16, 64, 256]),
    period=st.sampled_from([0.001, 0.005, 0.05]),
)
def test_callback_engine_matches_the_stage_processes_under_prisma(**cfg):
    engine, reference = run_prisma(False, **cfg), run_prisma(True, **cfg)
    assert engine == reference
    hits, waits = engine[1][:2]
    assert hits + waits == engine[0][1][0]  # every sample read went through the buffer
