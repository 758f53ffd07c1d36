"""torch.utils.data.DataLoader simulator.

Reproduces the PyTorch setups of the paper's evaluation (§V-B):

* ``num_workers=0`` — the main process loads each batch synchronously
  (read + decode per sample, one file at a time).  GPU compute still
  overlaps, because CUDA launches are asynchronous, but CPU-side loading is
  strictly serial.
* ``num_workers=W`` — W worker *processes*; batches are assigned to workers
  round-robin, each worker keeps up to ``prefetch_factor`` completed batches
  buffered, and the main process consumes batches **in order** (PyTorch's
  default deterministic behaviour: batch *k* must come from worker
  ``k mod W``, even if another worker finished later batches first).

Each worker owns its own storage session, created by ``posix_factory`` —
this is the seam the PRISMA PyTorch binding plugs into: the paper's 35-LoC
integration creates one PRISMA UDS client per worker process (§IV).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ...dataset.catalog import DatasetCatalog
from ...dataset.shuffle import EpochShuffler, SequentialOrder, batches_from_order
from ...simcore.event import Event, chain_result
from ...simcore.resources import Store
from ...telemetry import TimeWeightedGauge
from ..models import ModelProfile
from ..training import DataSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator
    from ...storage.posix import PosixLike

#: Factory producing one storage session per worker id (-1 = main process).
PosixFactory = Callable[[int], "PosixLike"]


class TorchDataLoader(DataSource):
    """DataLoader-equivalent batch source over simulated storage."""

    def __init__(
        self,
        sim: "Simulator",
        catalog: DatasetCatalog,
        shuffler: EpochShuffler | SequentialOrder,
        batch_size: int,
        posix_factory: PosixFactory,
        model: ModelProfile,
        num_workers: int = 0,
        prefetch_factor: int = 2,
        drop_last: bool = False,
        name: str = "dataloader",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if prefetch_factor < 1:
            raise ValueError("prefetch_factor must be >= 1")
        self.sim = sim
        self.catalog = catalog
        self.shuffler = shuffler
        self.batch_size = batch_size
        self.posix_factory = posix_factory
        self.model = model
        self.num_workers = num_workers
        self.prefetch_factor = prefetch_factor
        self.drop_last = drop_last
        self.name = name

        #: processes currently blocked inside a storage read
        self.active_readers = TimeWeightedGauge(sim, 0, name=f"{name}.active_readers")
        self.samples_read = 0
        self.bytes_read = 0

        # Storage sessions are created once and reused across epochs, like
        # persistent_workers=True (per-epoch re-fork would only add noise).
        self._main_posix = posix_factory(-1)
        self._worker_posix: List["PosixLike"] = [
            posix_factory(w) for w in range(num_workers)
        ]

        # Per-epoch state.
        self._batches: Optional[List[List[int]]] = None
        self._next_seq = 0
        self._worker_out: List[Store] = []

    # -- shared helpers ------------------------------------------------------------
    def _load_sample(self, posix: "PosixLike", idx: int):
        """Read + decode one sample (generator; returns bytes read)."""
        path = self.catalog.paths[idx]
        self.active_readers.increment()
        nbytes = yield posix.read_whole(path)
        self.active_readers.decrement()
        cost = self.model.preprocess_time_per_image
        if cost > 0:
            yield self.sim.timeout(cost)
        self.samples_read += 1
        self.bytes_read += nbytes
        return nbytes

    # -- epoch machinery -----------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        order = self.shuffler.order(epoch)
        self._batches = [
            [int(i) for i in b]
            for b in batches_from_order(order, self.batch_size, self.drop_last)
        ]
        self._next_seq = 0
        self._worker_out = []
        if self.num_workers > 0:
            for w in range(self.num_workers):
                out = Store(self.sim, capacity=self.prefetch_factor, name=f"{self.name}.w{w}")
                self._worker_out.append(out)
                self.sim.process(self._worker(w, out), name=f"{self.name}.worker{w}")

    def _worker(self, worker_id: int, out: Store):
        """One DataLoader worker: loads its round-robin share of batches."""
        assert self._batches is not None
        posix = self._worker_posix[worker_id]
        for seq in range(worker_id, len(self._batches), self.num_workers):
            batch = self._batches[seq]
            for idx in batch:
                yield self.sim.process(self._load_sample(posix, idx))
            yield out.put(len(batch))

    # -- DataSource API -----------------------------------------------------------
    def next_batch(self) -> Event:
        assert self._batches is not None, "begin_epoch() not called"
        done = Event(self.sim, name=f"{self.name}.next")
        if self._next_seq >= len(self._batches):
            done.succeed(None)
            return done
        seq = self._next_seq
        self._next_seq += 1

        if self.num_workers == 0:
            batch = self._batches[seq]

            def load_batch():
                for idx in batch:
                    yield self.sim.process(self._load_sample(self._main_posix, idx))
                return len(batch)

            proc = self.sim.process(load_batch(), name=f"{self.name}.load{seq}")
            return chain_result(proc, done)

        # In-order consumption: batch `seq` comes from worker `seq % W`.
        inner = self._worker_out[seq % self.num_workers].get()
        return chain_result(inner, done)

    def end_epoch(self) -> None:
        self._batches = None
        self._worker_out = []
