"""Synthetic dataset generators.

The paper trains on ImageNet ILSVRC-2012: 1,281,167 training images
(≈138 GiB) and 50,000 validation images (≈6 GiB).  We generate catalogs with
the same file count and total size; per-file sizes follow a clipped
log-normal (JPEG size distributions are right-skewed).  Only the file-size
distribution and access order touch the I/O path, so this is a faithful
substitute for the real archive.

``scale`` divides the *file counts* while keeping per-file sizes, producing
self-similar smaller workloads: every throughput-governed duration shrinks
by ``scale``, so simulated times multiply back by ``scale`` to compare with
the paper (see :mod:`repro.experiments.config`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .catalog import DatasetCatalog, TrainValSplit

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..simcore.random import RandomStreams

#: ILSVRC-2012 constants (paper §V "Dataset, models, and DL frameworks").
IMAGENET_TRAIN_FILES = 1_281_167
IMAGENET_TRAIN_BYTES = 138 * 2**30
IMAGENET_VAL_FILES = 50_000
IMAGENET_VAL_BYTES = 6 * 2**30

#: Log-normal shape for JPEG file sizes (dimensionless sigma of log-size).
_SIZE_SIGMA = 0.45
#: Clip sizes to [mean/8, mean*8] to avoid pathological tails.
_CLIP_FACTOR = 8.0


def lognormal_sizes(
    rng: np.random.Generator,
    count: int,
    total_bytes: int,
    sigma: float = _SIZE_SIGMA,
) -> np.ndarray:
    """``count`` right-skewed sizes summing (exactly) to ``total_bytes``."""
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    if total_bytes < count:
        raise ValueError("total_bytes must allow >= 1 byte per file")
    mean = total_bytes / count
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=count)
    raw = np.clip(raw * mean, mean / _CLIP_FACTOR, mean * _CLIP_FACTOR)
    # Rescale to hit the requested total exactly.  Integer rounding and the
    # 1-byte floor leave a residual; positive residual lands in the last
    # file, negative residual is shaved off the largest files (never below
    # 1 byte — solvable because total_bytes >= count).
    sizes = np.floor(raw * (total_bytes / raw.sum())).astype(np.int64)
    sizes = np.maximum(sizes, 1)
    residual = total_bytes - int(sizes.sum())
    if residual > 0:
        sizes[-1] += residual
    elif residual < 0:
        for idx in np.argsort(sizes)[::-1]:
            take = min(int(sizes[idx]) - 1, -residual)
            sizes[idx] -= take
            residual += take
            if residual == 0:
                break
    assert int(sizes.sum()) == total_bytes
    return sizes


def uniform_sizes(count: int, total_bytes: int) -> np.ndarray:
    """All files the same size (± rounding); for analytic cross-checks."""
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    base = total_bytes // count
    sizes = np.full(count, base, dtype=np.int64)
    sizes[-1] += total_bytes - base * count
    return sizes


def imagenet_like(
    streams: RandomStreams,
    scale: int = 1,
    size_distribution: str = "lognormal",
) -> TrainValSplit:
    """An ImageNet-shaped train/validation split, optionally scaled down.

    ``scale=1`` is the full 1.28 M-file dataset; ``scale=100`` keeps 1/100 of
    the files (and of the bytes) with identical per-file statistics.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    n_train = max(IMAGENET_TRAIN_FILES // scale, 1)
    n_val = max(IMAGENET_VAL_FILES // scale, 1)
    train_bytes = max(IMAGENET_TRAIN_BYTES // scale, n_train)
    val_bytes = max(IMAGENET_VAL_BYTES // scale, n_val)

    if size_distribution == "lognormal":
        train_sizes = lognormal_sizes(streams.fresh("dataset.train"), n_train, train_bytes)
        val_sizes = lognormal_sizes(streams.fresh("dataset.val"), n_val, val_bytes)
    elif size_distribution == "uniform":
        train_sizes = uniform_sizes(n_train, train_bytes)
        val_sizes = uniform_sizes(n_val, val_bytes)
    else:
        raise ValueError(f"unknown size_distribution {size_distribution!r}")

    return TrainValSplit(
        train=DatasetCatalog("/data/imagenet/train", train_sizes, name=f"imagenet-train/{scale}"),
        validation=DatasetCatalog("/data/imagenet/val", val_sizes, name=f"imagenet-val/{scale}"),
    )


def tiny_dataset(streams: RandomStreams, n_train: int = 64, n_val: int = 16, mean_size: int = 64 * 1024) -> TrainValSplit:
    """A CI-sized dataset for unit/integration tests."""
    train_sizes = lognormal_sizes(streams.fresh("dataset.tiny.train"), n_train, n_train * mean_size)
    val_sizes = lognormal_sizes(streams.fresh("dataset.tiny.val"), n_val, n_val * mean_size)
    return TrainValSplit(
        train=DatasetCatalog("/data/tiny/train", train_sizes, name="tiny-train"),
        validation=DatasetCatalog("/data/tiny/val", val_sizes, name="tiny-val"),
    )
