"""The benchmark's four canonical workloads and the checks on their outputs.

Each workload is built from a seed alone and runs one *iteration* at a
time: a fixed unit of work through the program's public entry points,
identical every time it is repeated with the same seed.  The program gets
only the generated inputs; everything the benchmark needs to judge the
outputs (expected counts, expected bytes) is derived here from the same
seed and sizes.

Timing is the caller's business.  A workload reports its timed phase
through the ``timer`` it is given (``start()``/``stop()``): the simulated
workloads never call it themselves, because the caller times each
``Simulator.run``; the live workload times each session of reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional

from repro.core.live import LivePrisma
from repro.dataset.synthetic import IMAGENET_TRAIN_FILES, IMAGENET_VAL_FILES
from repro.experiments.cluster import ClusterReport, run_cluster_serving
from repro.experiments.config import ExperimentScale, figure2_scale
from repro.experiments.runner import TrialResult, run_tf_trial
from repro.experiments.writes import (
    WRITE_CONFIGS,
    WRITE_SETUPS,
    WriteWorkloadReport,
    run_write_workloads,
)
from repro.frameworks.models import ALEXNET, LENET, RESNET50

KiB = 1024
WORKLOADS = ("cluster-read", "train-tf", "ckpt-write", "live-epoch")


@dataclass
class Outcome:
    """What one iteration served, and what the checks found wrong with it."""

    requests: int
    failed: int
    problems: List[str]
    #: modelled outcomes read from the experiment's report, by metric name
    modelled: Dict[str, float]
    #: sha256 of the report's sorted JSON (simulated workloads only)
    digest: Optional[str] = None
    #: consumer wait per read, in seconds (live workload only)
    waits: List[float] = field(default_factory=list)


def sim_digest(report_dict: object) -> str:
    """sha256 of the sorted JSON of an experiment's ``metrics_dict()``."""
    blob = json.dumps(report_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- cluster-read ---------------------------------------------------------------------
def check_cluster(report: ClusterReport, n_nodes: int, n_files: int, epochs: int) -> List[str]:
    problems = []
    expected = n_nodes * n_files * epochs
    if not report.completed:
        problems.append("cluster run did not complete")
    if report.requests != expected:
        problems.append(f"cluster served {report.requests} requests, expected {expected}")
    if report.worst_reads_per_path > 1:
        problems.append(
            f"a sample hit the backing store {report.worst_reads_per_path} times in one epoch"
        )
    return problems


class ClusterRead:
    """Every node of a cooperative cache reads the whole catalog each epoch.

    16 nodes x 256 files, an eighth of the requests of the ROADMAP's
    64 x 512, so that one iteration is a short timed segment; the
    per-request counts are within 2% of that size's.
    """

    def __init__(self, seed: int, n_nodes: int = 16, n_files: int = 256, epochs: int = 2) -> None:
        self.seed = seed
        self.n_nodes = n_nodes
        self.n_files = n_files
        self.epochs = epochs
        self.file_size = 64 * KiB

    def run_once(self, timer, spans=None) -> Outcome:
        report = run_cluster_serving(
            self.seed,
            n_nodes=self.n_nodes,
            n_files=self.n_files,
            file_size=self.file_size,
            epochs=self.epochs,
        )
        expected = self.n_nodes * self.n_files * self.epochs
        return Outcome(
            requests=expected,
            failed=max(expected - report.requests, 0),
            problems=check_cluster(report, self.n_nodes, self.n_files, self.epochs),
            modelled={
                "tiering.cluster_hit_rate": report.cluster_hit_rate,
                "cluster.peer_hit_rate": report.peer_hit_rate,
                "cluster.backing_per_unique": report.worst_backing_per_unique,
                "rpc.fallback_reads": report.fallback_reads,
                "storage.read_bytes": report.backing_reads * self.file_size,
                "simcore.sim_s": report.sim_seconds,
            },
            digest=sim_digest(report.metrics_dict()),
        )

    def close(self) -> None:
        pass


# -- train-tf ---------------------------------------------------------------------------
def check_tf(trial: TrialResult, scale: ExperimentScale, batch_size: int) -> List[str]:
    """Every epoch must have served the whole train and validation split."""
    n_train = max(IMAGENET_TRAIN_FILES // scale.scale, 1)
    n_val = max(IMAGENET_VAL_FILES // scale.scale, 1)
    expected = (math.ceil(n_train / batch_size), math.ceil(n_val / batch_size))
    stats = trial.training.epoch_stats
    problems = []
    if len(stats) != scale.epochs:
        problems.append(f"{trial.model}: {len(stats)} epochs ran, expected {scale.epochs}")
    for e in stats:
        got = (e.train_batches, e.validation_batches)
        if got != expected:
            problems.append(
                f"{trial.model} epoch {e.epoch}: (train, val) batches {got}, expected {expected}"
            )
    return problems


class TrainTF:
    """The paper's Figure-2 path: TF binding, PRISMA stage, autotuned control.

    LeNet is I/O bound, ResNet-50 compute bound, so prefetch cost and
    control cost move apart across the three trials.
    """

    MODELS = (LENET, ALEXNET, RESNET50)

    def __init__(
        self,
        seed: int,
        scale: Optional[ExperimentScale] = None,
        batch_size: int = 256,
    ) -> None:
        self.seed = seed
        self.scale = scale or figure2_scale(quick=True)
        self.batch_size = batch_size
        n_train = max(IMAGENET_TRAIN_FILES // self.scale.scale, 1)
        n_val = max(IMAGENET_VAL_FILES // self.scale.scale, 1)
        self.requests_per_trial = self.scale.epochs * (n_train + n_val)

    def run_once(self, timer, spans=None) -> Outcome:
        trials = [
            run_tf_trial("tf-prisma", model, self.batch_size, self.scale, seed=self.seed + i)
            for i, model in enumerate(self.MODELS)
        ]
        problems: List[str] = []
        served = 0
        for trial in trials:
            trial_problems = check_tf(trial, self.scale, self.batch_size)
            problems += trial_problems
            if not trial_problems:
                served += self.requests_per_trial
        expected = self.requests_per_trial * len(trials)
        return Outcome(
            requests=expected,
            failed=expected - served,
            problems=problems,
            modelled={
                "prefetch.buffer_hit_rate": sum(t.buffer_hit_rate for t in trials) / len(trials),
                "control.cycles": sum(t.control_cycles for t in trials),
                "simcore.sim_s": sum(t.sim_seconds for t in trials),
            },
            digest=sim_digest([dataclasses.asdict(t) for t in trials]),
        )

    def close(self) -> None:
        pass


# -- ckpt-write -------------------------------------------------------------------------
def check_writes(
    report: WriteWorkloadReport, batch_size: int = 32, ckpt_every: int = 8
) -> List[str]:
    """All nine cells ran; every sample was read once per epoch; every
    checkpoint wrote exactly ``ckpt_bytes``."""
    problems = []
    cells = sorted((t.config, t.setup) for t in report.trials)
    if cells != sorted(product(WRITE_CONFIGS, WRITE_SETUPS)):
        problems.append(f"write matrix ran cells {cells}")
    steps = math.ceil(report.n_files / batch_size) * report.epochs
    read_bytes = report.n_files * report.file_size * report.epochs
    for t in report.trials:
        cell = f"{t.config}/{t.setup}"
        expected_ckpts = 0 if t.config == "posix-read" else steps // ckpt_every
        if t.sim_seconds <= 0:
            problems.append(f"{cell} did not run")
        if t.checkpoints != expected_ckpts:
            problems.append(f"{cell} wrote {t.checkpoints} checkpoints, expected {expected_ckpts}")
        if t.write_bytes != t.checkpoints * report.ckpt_bytes:
            problems.append(
                f"{cell} wrote {t.write_bytes} bytes for {t.checkpoints} checkpoints"
                f" of {report.ckpt_bytes}"
            )
        if t.read_bytes != read_bytes:
            problems.append(f"{cell} read {t.read_bytes} bytes, expected {read_bytes}")
    return problems


class CkptWrite:
    """Checkpoint writes beside sample reads, on posix and on the object store."""

    def __init__(self, seed: int, n_files: int = 320, epochs: int = 4) -> None:
        self.seed = seed
        self.n_files = n_files
        self.epochs = epochs

    def run_once(self, timer, spans=None) -> Outcome:
        report = run_write_workloads(self.seed, n_files=self.n_files, epochs=self.epochs)
        problems = check_writes(report)
        expected = len(WRITE_CONFIGS) * len(WRITE_SETUPS) * self.n_files * self.epochs
        served = len(report.trials) * self.n_files * self.epochs
        return Outcome(
            requests=expected,
            failed=max(expected - served, 0),
            problems=problems,
            modelled={
                "frameworks.ckpt_stall_s": sum(t.ckpt_stall_time for t in report.trials),
                "storage.read_bytes": sum(t.read_bytes for t in report.trials),
                "storage.write_bytes": sum(t.write_bytes for t in report.trials),
                "simcore.sim_s": sum(t.sim_seconds for t in report.trials),
            },
            digest=sim_digest(report.metrics_dict()),
        )

    def close(self) -> None:
        pass


# -- live-epoch -------------------------------------------------------------------------
#: every sample file starts with (magic, file index, seed)
HEADER = struct.Struct("<8sIQ")
MAGIC = b"PRSMBNCH"


class LiveEpoch:
    """Real threads and real files: one producer thread, one consumer.

    Sample files are written under ``root`` (inside the benchmark's
    checkout) and removed by :meth:`close`.  Each iteration is one
    ``LivePrisma`` session of ``epochs`` shuffled epochs with no consumer
    compute beyond the checks.
    """

    def __init__(
        self,
        seed: int,
        root: str,
        n_files: int = 512,
        file_size: int = 64 * KiB,
        epochs: int = 3,
    ) -> None:
        self.seed = seed
        self.n_files = n_files
        self.file_size = file_size
        self.epochs = epochs
        rng = random.Random(seed)
        self._body = rng.randbytes(file_size - HEADER.size)
        #: the seeded 1-in-64 subset whose bytes are compared in full
        self.full_check = frozenset(rng.sample(range(n_files), max(1, n_files // 64)))
        self.orders = []
        for epoch in range(epochs):
            order = list(range(n_files))
            random.Random(seed * 1000 + epoch).shuffle(order)
            self.orders.append(order)
        os.makedirs(root, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="live-", dir=root)
        self.paths = [os.path.join(self.dir, f"{i:06d}.bin") for i in range(n_files)]
        for i, path in enumerate(self.paths):
            with open(path, "wb") as fh:
                fh.write(self.expected(i))

    def expected(self, index: int) -> bytes:
        body = self._body
        k = (index * 4099) % len(body)
        return HEADER.pack(MAGIC, index, self.seed) + body[k:] + body[:k]

    def check_sample(self, index: int, data: bytes) -> Optional[str]:
        if len(data) != self.file_size:
            return f"sample {index}: {len(data)} bytes, expected {self.file_size}"
        if data[: HEADER.size] != HEADER.pack(MAGIC, index, self.seed):
            return f"sample {index}: wrong header {data[:HEADER.size]!r}"
        if index in self.full_check and data != self.expected(index):
            return f"sample {index}: content differs from what was written"
        return None

    def run_once(self, timer, spans=None) -> Outcome:
        problems: List[str] = []
        waits: List[float] = []
        failed = 0
        clock = time.monotonic
        with LivePrisma(
            producers=1, buffer_capacity=64, max_producers=1, autotune=False
        ) as prisma:
            timer.start()
            for epoch, order in enumerate(self.orders):
                prisma.load_epoch(self.paths[i] for i in order)
                for n, index in enumerate(order):
                    span = None
                    if spans is not None and n % 16 == 0:
                        span = spans.begin("LivePrisma.read")
                    t0 = clock()
                    try:
                        data = prisma.read(self.paths[index], timeout=30.0)
                    except OSError as exc:
                        failed += 1
                        problems.append(f"sample {index}: {exc!r}")
                        continue
                    finally:
                        waits.append(clock() - t0)
                        if span is not None:
                            spans.end(span)
                    problem = self.check_sample(index, data)
                    if problem is not None:
                        problems.append(problem)
                pending = prisma.prefetcher.queue_remaining, prisma.prefetcher.buffer.level
                if pending != (0, 0):
                    problems.append(f"epoch {epoch}: (queued, buffered) {pending} left over")
            timer.stop()
            hit_rate = prisma.hit_rate
        # close() joined the producer, so the fetch count is final.
        fetched = prisma.prefetcher.files_fetched
        expected = self.n_files * self.epochs
        if fetched != expected:
            problems.append(
                f"{fetched} files fetched, expected one per sample per epoch ({expected})"
            )
        return Outcome(
            requests=expected,
            failed=failed,
            problems=problems,
            modelled={
                "live.hit_rate": hit_rate,
                "live.files_fetched": fetched,
                "live.read_errors": prisma.prefetcher.read_errors,
            },
            waits=waits,
        )

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def make_workload(name: str, seed: int, root: str, **size):
    """The workload called ``name``; ``size`` overrides its default sizes."""
    if name == "cluster-read":
        return ClusterRead(seed, **size)
    if name == "train-tf":
        if "scale" in size:
            size["scale"] = ExperimentScale(**size["scale"])
        return TrainTF(seed, **size)
    if name == "ckpt-write":
        return CkptWrite(seed, **size)
    if name == "live-epoch":
        return LiveEpoch(seed, root, **size)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
