"""tf.data-like input pipeline simulator.

Reproduces the two TensorFlow setups of the paper's evaluation (§V-A):

* **TF baseline** — "non-optimized deployment with single-threaded disk
  operations without data prefetching": one reader thread, a sequentially
  small amount of in-flight data (stage queues of depth 1–2), no prefetch
  buffer.
* **TF optimized** — "disk I/O parallelism and prefetching optimizations,
  managed by TensorFlow's auto-tuning mechanism": a pool of reader threads
  (TF allocates its full intra-op budget — the paper observes 30 threads),
  parallel map, and a prefetch stage whose buffer limit is governed by the
  :class:`~repro.frameworks.tensorflow.autotune.PrefetchAutotuner` port.

Stages are connected by bounded queues, exactly like tf.data's internal
element queues, and run as one callback state machine::

    readers (xR) -> raw[depth] -> mappers (xM) -> mapped[depth]
                 -> batcher -> batch_store[prefetch] -> GetNext()

All file reads go through a :class:`~repro.storage.posix.PosixLike`
``read_whole`` — the single seam where PRISMA's data-plane stage is swapped
in for the storage backend (the paper's 10-LoC TensorFlow integration).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque, List, Optional

from ...dataset.catalog import DatasetCatalog
from ...dataset.shuffle import EpochShuffler, SequentialOrder
from ...simcore.errors import process_error
from ...simcore.event import Event
from ...simcore.resources import Store
from ...telemetry import TimeWeightedGauge
from ..models import ModelProfile
from ..training import DataSource
from .autotune import PrefetchAutotuner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator
    from ...storage.posix import PosixLike

#: The batcher holds nothing (a held ``None`` is the end-of-epoch marker).
_NOTHING = object()


class TFDataPipeline(DataSource):
    """A configurable tf.data-style pipeline serving batches of samples.

    Each epoch, ``reader_threads`` readers claim read units (here sample
    files of ``catalog``) in the shuffler's order, read each whole, and
    stage its records into ``raw``; ``map_threads`` mappers preprocess
    staged records, one timer each; the batcher counts mapped records
    into batches for the trainer-facing store, which ends the epoch with
    ``None``.  ``raw`` and ``mapped`` hold ``stage_depth`` records each,
    and a full queue blocks the stage that feeds it.  No stage is a
    process: only the timers and the store's gets reach the kernel.

    Within one timestamp the hand-offs keep the order of stage processes
    joined by stores: an epoch's first reads wait one kernel event after
    :meth:`begin_epoch`; a reader moves on before the mapper its last
    record wakes; a finished map is counted before its mapper takes the
    next record, and before the reader that record unblocks.  A failed
    read aborts the run as a dead reader process would, with
    ``ProcessError("process '<name>.reader<r>' failed: …")`` whose
    ``__cause__`` is the read's error.

    Parameters
    ----------
    reader_threads:
        Parallel file readers (``num_parallel_reads``); 1 for the baseline.
    map_threads:
        Parallel preprocess workers (``map(..., num_parallel_calls)``).
    prefetch:
        ``None`` disables the prefetch stage (baseline: ``GetNext`` pulls
        the next batch synchronously); an integer fixes the buffer size; the
        string ``"autotune"`` enables the :class:`PrefetchAutotuner`.
    stage_depth:
        Capacity of the inter-stage element queues; small values keep the
        baseline pull-like, larger ones let the optimized pipeline run ahead.
    """

    def __init__(
        self,
        sim: "Simulator",
        catalog: DatasetCatalog,
        shuffler: EpochShuffler | SequentialOrder,
        batch_size: int,
        posix: "PosixLike",
        model: ModelProfile,
        reader_threads: int = 1,
        map_threads: int = 4,
        prefetch: int | str | None = None,
        prefetch_max: int = 64,
        stage_depth: int = 2,
        name: str = "tfdata",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if reader_threads < 1:
            raise ValueError("reader_threads must be >= 1")
        if map_threads < 1:
            raise ValueError("map_threads must be >= 1")
        if stage_depth < 1:
            raise ValueError("stage_depth must be >= 1")
        self.sim = sim
        self.catalog = catalog
        self.shuffler = shuffler
        self.batch_size = batch_size
        self.posix = posix
        self.model = model
        self.reader_threads = reader_threads
        self.map_threads = map_threads
        self.stage_depth = stage_depth
        self.name = name

        self.autotuner: Optional[PrefetchAutotuner] = None
        if prefetch is None:
            self._batch_capacity = 1
        elif prefetch == "autotune":
            self.autotuner = PrefetchAutotuner(max_limit=prefetch_max)
            self._batch_capacity = self.autotuner.buffer_limit
        elif isinstance(prefetch, int):
            if prefetch < 1:
                raise ValueError("prefetch buffer must be >= 1 batch")
            self._batch_capacity = prefetch
        else:
            raise ValueError(f"invalid prefetch spec {prefetch!r}")

        #: threads currently blocked inside a storage read (paper Fig. 3)
        self.active_readers = TimeWeightedGauge(sim, 0, name=f"{name}.active_readers")
        self.samples_read = 0
        self.bytes_read = 0

        #: per reader: the unit it reads
        self._reading: List[int] = [0] * reader_threads

        # The rest of the per-epoch state is set by begin_epoch.
        self._epoch_order: Optional[List[int]] = None
        self._landed: Optional[List[partial]] = None
        self._batch_store: Optional[Store] = None

    # -- read units ------------------------------------------------------------------
    def _epoch_records(self) -> int:
        """How many records the epoch's read units hold."""
        return len(self._epoch_order)

    def _unit_landed(self, unit: int, nbytes: int) -> int:
        """Count a landed read; returns how many records it stages."""
        self.samples_read += 1
        self.bytes_read += nbytes
        return 1

    # -- epoch machinery -----------------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        self._epoch_order = [int(i) for i in self.shuffler.order(epoch)]
        self._cursor = 0
        #: per reader, its read-completion callback: bound to this
        #: pipeline, so they live only while the epoch has reads to issue
        self._landed = [partial(self._on_read, r) for r in range(self.reader_threads)]
        self._unbatched = self._epoch_records()
        #: staged records no mapper took; blocked readers, FIFO:
        #: [reader, records left to stage]
        self._raw = 0
        self._blocked: Deque[List[int]] = deque()
        self._idle_mappers = self.map_threads
        #: records mapped while the batcher holds a batch, and mappers
        #: holding one more while ``mapped`` is full
        self._mapped = self._stalled_mappers = 0
        self._in_batch = 0
        #: the batch (or end marker) waiting for room in the batch store
        self._held: object = _NOTHING
        self._batch_store = Store(
            self.sim, capacity=self._batch_capacity, name=f"{self.name}.batches"
        )
        self.sim.call_later(0, self._start)

    def _start(self, _arg: None) -> None:
        for r in range(self.reader_threads):
            self._read_next(r)

    def _read_next(self, r: int) -> None:
        """Reader ``r`` claims the next unit of the epoch and reads it."""
        order = self._epoch_order
        cursor = self._cursor
        if cursor == len(order):
            # Every read is issued: drop the callbacks, which would hold
            # this pipeline in a cycle with itself past its trial.
            self._landed = None
            return
        self._cursor = cursor + 1
        unit = self._reading[r] = order[cursor]
        self.active_readers.increment()
        read = self.posix.read_whole(self.catalog.paths[unit])
        callbacks = read.callbacks
        if callbacks is None:  # already processed (add_callback's rule, inline)
            self._landed[r](read)
        else:
            callbacks.append(self._landed[r])

    def _on_read(self, r: int, ev: Event) -> None:
        if not ev.ok:
            raise process_error(f"{self.name}.reader{r}", ev.exception)
        self.active_readers.decrement()
        self._stage(r, self._unit_landed(self._reading[r], ev.value))

    def _stage(self, r: int, records: int) -> None:
        """Stage reader ``r``'s ``records``, then issue its next read.

        A free mapper takes a record as it is staged; the reader blocks on
        the first record that finds ``raw`` full.  The last record's
        mapper starts once the reader has moved on.
        """
        map_last = False
        while records:
            if self._raw == self.stage_depth:
                self._blocked.append([r, records])
                return
            records -= 1
            if not self._idle_mappers:
                self._raw += 1
                continue
            self._idle_mappers -= 1
            if records:
                self._map()
            else:
                map_last = True
        self._read_next(r)
        if map_last:
            self._map()

    def _map(self) -> None:
        """A mapper preprocesses one record: one timer per record."""
        self.sim.call_later(self.model.preprocess_time_per_image, self._mapped_one)

    def _mapped_one(self, _arg: None) -> None:
        if self._held is _NOTHING:
            self._count()
        elif self._mapped < self.stage_depth:
            self._mapped += 1
        else:
            self._stalled_mappers += 1
            return
        self._take_record()

    def _take_record(self) -> None:
        """A free mapper takes the next staged record, or idles."""
        if not self._raw:
            self._idle_mappers += 1
        elif self._blocked:
            # The freed slot admits the first blocked reader's record.
            r, records = self._blocked.popleft()
            self._map()
            self._stage(r, records - 1)
        else:
            self._raw -= 1
            self._map()

    def _count(self) -> None:
        """The batcher counts one mapped record into the current batch."""
        self._in_batch += 1
        size = self._in_batch
        if size == self.batch_size or size == self._unbatched:
            self._in_batch = 0
            self._unbatched -= size
            self._emit(size)

    def _emit(self, item: Optional[int]) -> None:
        """Hand ``item`` to the batch store, or hold it while the store is
        full; the end marker follows the epoch's last batch."""
        if not self._batch_store.offer(item):
            self._held = item
        elif item is not None and not self._unbatched:
            self._emit(None)

    def _release(self) -> None:
        """Store the held item if there is room; the batcher then resumes,
        draining ``mapped``: each record it takes admits a stalled
        mapper's, and that mapper goes on to the next staged record."""
        held = self._held
        if held is _NOTHING:
            return
        self._held = _NOTHING
        self._emit(held)
        while self._mapped and self._held is _NOTHING:
            stalled = self._stalled_mappers
            if stalled:
                self._stalled_mappers = stalled - 1
            else:
                self._mapped -= 1
            self._count()
            if stalled:
                self._take_record()

    # -- DataSource API -----------------------------------------------------------
    def next_batch(self) -> Event:
        store = self._batch_store
        assert store is not None, "begin_epoch() not called"
        tuner = self.autotuner
        if tuner is not None:
            tuner.record_consumption(store.level)
            if tuner.buffer_limit != self._batch_capacity:
                self._batch_capacity = tuner.buffer_limit
                store.set_capacity(self._batch_capacity)
        batch = store.get()
        self._release()
        return batch

    def end_epoch(self) -> None:
        self._batch_store = None
        self._epoch_order = None


def tf_baseline(
    sim: "Simulator",
    catalog: DatasetCatalog,
    shuffler: EpochShuffler | SequentialOrder,
    batch_size: int,
    posix: "PosixLike",
    model: ModelProfile,
    name: str = "tf-baseline",
) -> TFDataPipeline:
    """The paper's *TF baseline*: 1 reader, no prefetch."""
    return TFDataPipeline(
        sim,
        catalog,
        shuffler,
        batch_size,
        posix,
        model,
        reader_threads=1,
        map_threads=4,
        prefetch=None,
        stage_depth=2,
        name=name,
    )


#: TF's intra-op thread budget observed by the paper (Fig. 3: "allocates the
#: maximum number of threads (i.e., 30) regardless of whether they are
#: needed").
TF_OPTIMIZED_THREADS = 30


def tf_optimized(
    sim: "Simulator",
    catalog: DatasetCatalog,
    shuffler: EpochShuffler | SequentialOrder,
    batch_size: int,
    posix: "PosixLike",
    model: ModelProfile,
    name: str = "tf-optimized",
) -> TFDataPipeline:
    """The paper's *TF optimized*: parallel I/O + autotuned prefetching."""
    return TFDataPipeline(
        sim,
        catalog,
        shuffler,
        batch_size,
        posix,
        model,
        reader_threads=TF_OPTIMIZED_THREADS,
        map_threads=TF_OPTIMIZED_THREADS,
        prefetch="autotune",
        stage_depth=2 * TF_OPTIMIZED_THREADS,
        name=name,
    )
