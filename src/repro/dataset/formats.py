"""Storage formats: file-per-sample vs. record-sharded layouts.

TensorFlow deployments often pack samples into TFRecord shards (paper §II
cites "optimized data formats" as one of the framework-intrinsic
optimizations).  Sharding changes the I/O request profile — fewer, larger,
more sequential reads — which the format-ablation benchmark explores.

:func:`shard_catalog` converts a file-per-sample catalog into a sharded one
plus an index mapping each sample to ``(shard, offset, length)``, so
pipelines can read either layout through the same filesystem API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .catalog import DatasetCatalog


@dataclass(frozen=True)
class ShardEntry:
    """Location of one sample inside a shard file."""

    shard_index: int
    offset: int
    length: int


@dataclass(frozen=True)
class ShardedDataset:
    """A record-sharded layout of an underlying sample catalog."""

    shards: DatasetCatalog
    index: List[ShardEntry]
    samples_per_shard: int

    def locate(self, sample_index: int) -> ShardEntry:
        return self.index[sample_index]

    def shard_path(self, sample_index: int) -> str:
        return self.shards.path(self.index[sample_index].shard_index)

    def __len__(self) -> int:
        return len(self.index)


#: Per-record framing overhead of a TFRecord (length + 2×CRC32 + header).
RECORD_OVERHEAD_BYTES = 16


def shard_catalog(
    catalog: DatasetCatalog,
    samples_per_shard: int = 1024,
    prefix: str | None = None,
) -> ShardedDataset:
    """Pack ``catalog``'s samples into fixed-count shards (TFRecord-like).

    Samples are packed in catalog order; each record adds
    :data:`RECORD_OVERHEAD_BYTES` of framing, matching TFRecord's layout.
    """
    import numpy as np

    if samples_per_shard < 1:
        raise ValueError("samples_per_shard must be >= 1")
    prefix = prefix or f"{catalog.prefix}-shards"
    sizes = catalog.sizes
    n = len(sizes)
    n_shards = (n + samples_per_shard - 1) // samples_per_shard

    shard_sizes = np.zeros(n_shards, dtype=np.int64)
    index: List[ShardEntry] = []
    for shard in range(n_shards):
        lo = shard * samples_per_shard
        hi = min(lo + samples_per_shard, n)
        offset = 0
        for i in range(lo, hi):
            length = int(sizes[i]) + RECORD_OVERHEAD_BYTES
            index.append(ShardEntry(shard, offset, length))
            offset += length
        shard_sizes[shard] = offset

    shards = DatasetCatalog(prefix, shard_sizes, name=f"{catalog.name}-sharded")
    return ShardedDataset(shards=shards, index=index, samples_per_shard=samples_per_shard)


def sequentiality(requests: List[Tuple[str, int]]) -> float:
    """Fraction of consecutive requests that hit the same file.

    A crude locality metric for comparing layouts: file-per-sample random
    access scores ~0; sharded in-order access scores ~1.
    """
    if len(requests) < 2:
        return 1.0
    same = sum(1 for a, b in zip(requests, requests[1:]) if a[0] == b[0])
    return same / (len(requests) - 1)
