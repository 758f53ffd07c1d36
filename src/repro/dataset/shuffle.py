"""Per-epoch shuffling shared between the DL framework and PRISMA.

The paper requires random sample order per epoch for model accuracy (§II),
and PRISMA requires knowing that order *in advance* (§IV: the framework's
shuffled filenames list is shared with the data plane, "performed
identically to the original shuffle mechanism of the DL framework").

:class:`EpochShuffler` provides exactly that contract: given a dataset size
and a seed, ``order(epoch)`` is a deterministic permutation — the framework
consumes it to issue reads, and PRISMA consumes the *same* permutation to
enqueue prefetches, without any coordination at run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from .catalog import DatasetCatalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..simcore.random import RandomStreams


class EpochShuffler:
    """Deterministic per-epoch permutations of ``[0, n)``.

    Permutations for distinct epochs are independent streams derived from a
    single root seed, so epoch k's order never depends on whether epoch j
    was generated first.
    """

    def __init__(self, n: int, streams: RandomStreams, name: str = "shuffle") -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.name = name
        self._streams = streams

    def order(self, epoch: int) -> np.ndarray:
        """The sample-index permutation for ``epoch`` (int64 array)."""
        import numpy as np

        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        rng = self._streams.fresh(f"{self.name}.epoch{epoch}")
        return rng.permutation(self.n).astype(np.int64)


class SequentialOrder:
    """No shuffling — in-order access; for ablations and analytic checks."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def order(self, epoch: int) -> np.ndarray:
        import numpy as np

        return np.arange(self.n, dtype=np.int64)


def shuffled_filenames(catalog: DatasetCatalog, shuffler: EpochShuffler, epoch: int) -> List[str]:
    """The shuffled filenames list for one epoch (PRISMA's §IV input file)."""
    paths = catalog.paths
    return [paths[i] for i in shuffler.order(epoch)]


def batches_from_order(order: Sequence[int] | np.ndarray, batch_size: int, drop_remainder: bool = False) -> List[np.ndarray]:
    """Split a sample order into consecutive batches.

    Mirrors both frameworks' batching of the shuffled stream; with
    ``drop_remainder`` the trailing partial batch is discarded (tf.data's
    ``drop_remainder=True``).
    """
    import numpy as np

    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    arr = np.asarray(order, dtype=np.int64)
    full = len(arr) // batch_size
    batches = [arr[i * batch_size : (i + 1) * batch_size] for i in range(full)]
    tail = arr[full * batch_size :]
    if len(tail) and not drop_remainder:
        batches.append(tail)
    return batches
