"""Record-sharded input pipeline (TFRecord-style).

The paper's §II lists "optimized data formats" (TFRecord, [49]) among the
framework-intrinsic storage optimizations that motivate decoupling: packing
samples into large shard files converts millions of small random reads into
few large sequential ones, but requires converting (and re-shuffling) the
dataset offline and is TensorFlow-specific.

:class:`ShardedTFDataPipeline` models that approach: readers claim whole
*shards* (shuffling happens at shard granularity, exactly TFRecord
practice), stream each shard with one large read, then stage its samples
downstream.  The format-ablation benchmark compares it against
file-per-sample — with and without PRISMA — quantifying how much of the
format's benefit the decoupled prefetcher delivers *without* touching the
dataset.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ...dataset.formats import ShardedDataset
from ...dataset.shuffle import EpochShuffler, SequentialOrder
from ..models import ModelProfile
from .pipeline import TFDataPipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator
    from ...storage.posix import PosixLike


class ShardedTFDataPipeline(TFDataPipeline):
    """Batches from record shards: shard-granular shuffle, sequential reads.

    The :class:`TFDataPipeline` engine with a shard as the read unit: a
    landed shard stages its record count, into stage queues that hold
    four batches of records each.
    """

    def __init__(
        self,
        sim: "Simulator",
        sharded: ShardedDataset,
        shard_shuffler: EpochShuffler | SequentialOrder,
        batch_size: int,
        posix: "PosixLike",
        model: ModelProfile,
        reader_threads: int = 1,
        map_threads: int = 4,
        prefetch_batches: int = 1,
        name: str = "tfrecord",
    ) -> None:
        if shard_shuffler.n != len(sharded.shards):
            raise ValueError(
                f"shuffler covers {shard_shuffler.n} items but the dataset "
                f"has {len(sharded.shards)} shards — shuffle shards, not samples"
            )
        super().__init__(
            sim, sharded.shards, shard_shuffler, batch_size, posix, model,
            reader_threads=reader_threads, map_threads=map_threads,
            prefetch=prefetch_batches, stage_depth=4 * batch_size, name=name,
        )
        self.sharded = sharded
        self.shards_read = 0
        #: samples per shard
        self._shard_samples = Counter(entry.shard_index for entry in sharded.index)

    def _epoch_records(self) -> int:
        return len(self.sharded)

    def _unit_landed(self, unit: int, nbytes: int) -> int:
        records = self._shard_samples[unit]
        self.shards_read += 1
        self.bytes_read += nbytes
        self.samples_read += records
        return records
