"""The repository's benchmark gates: one table of rows and one runner.

Each row runs one workload, a paper figure, an extension's claim or a
measurement of the implementation, and judges the values it returns with
named checks.  Each bound is written once, in its check::

    PYTHONPATH=src python benchmarks/gates.py [ROW ...]

With no names every row runs.  The runner prints each row's values as one
JSON line and each check as PASS or FAIL with the values the check read.  It
exits non-zero on any failed check, any row that raises and any unknown row
name.

* A ``deterministic`` row is simulated: it runs twice and must return the
  same values, since a difference is a bug, never host noise.  The runner
  rewrites its report on every run, so a moved outcome shows in
  ``git diff``.
* A row that names a report but is not deterministic measures wall time.
  Its report is a baseline recorded on one machine: the runner reads it,
  the checks see it as ``committed``, and nothing writes it.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core import (
    ParallelPrefetcher,
    PrefetchBuffer,
    PrismaConfig,
    SharedDatasetPrefetcher,
    build_prisma,
)
from repro.core.integrations import (
    PrismaTensorFlowPipeline,
    tf_integration_loc,
    torch_integration_loc,
)
from repro.core.live import LivePrefetcher, LivePrisma
from repro.dataset import EpochShuffler, imagenet_like, lognormal_sizes, shard_catalog
from repro.experiments import (
    ExperimentScale,
    figure2_scale,
    run_clairvoyant_comparison,
    run_tf_trial,
)
from repro.experiments.ablation import (
    DEVICE_SWEEP,
    autotune_point,
    best_static,
    control_period_sensitivity,
    device_sensitivity,
    static_grid,
)
from repro.experiments.cluster import run_cluster_serving
from repro.experiments.extensions import run_distributed_sweep, run_multitenant_comparison
from repro.experiments.figure2 import paper_reference
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.paper import FIG4_LENET_NATIVE_SECONDS, INTEGRATION_LOC
from repro.experiments.predictive import run_predictive_comparison
from repro.experiments.runner import TF_SETUPS, TrialResult
from repro.experiments.writes import run_write_workloads
from repro.frameworks import GpuEnsemble, LENET, Trainer, TrainingConfig
from repro.frameworks.models import ALEXNET, get_model
from repro.frameworks.tensorflow import ShardedTFDataPipeline, tf_baseline
from repro.metrics import reduction_percent
from repro.simcore import Event, FilterStore, RandomStreams, Simulator, Store
from repro.simcore._heapkernel import HeapSimulator
from repro.simcore.workloads import canonical_mixed_workload
from repro.storage import (
    BlockDevice,
    DistributedFilesystem,
    FairShareChannel,
    Filesystem,
    PosixLayer,
    constant_capacity,
    intel_p4600,
)
from repro.telemetry import CounterSet, Telemetry
from repro.traces import TraceReplayer, TracingPosix

ROOT = Path(__file__).resolve().parents[1]

Check = Callable[[dict], bool]


@dataclass(frozen=True)
class Row:
    """One gate: a workload, the checks on its values, and its report."""

    name: str
    #: runs the workload once and returns its values (JSON-serialisable)
    workload: Callable[[], dict]
    #: label -> predicate over the values
    checks: Dict[str, Check]
    #: simulated: run twice, require the same values, rewrite ``report``
    deterministic: bool = False
    #: report file, relative to the repository root
    report: Optional[str] = None


# -- runner ---------------------------------------------------------------------------
class _Reads(dict):
    """A row's values that record what a check reads, for its PASS/FAIL line."""

    def __init__(self, values: dict, read: dict, prefix: str = "") -> None:
        super().__init__(values)
        self._read = read
        self._prefix = prefix

    def __getitem__(self, key):
        value = super().__getitem__(key)
        name = f"{self._prefix}{key}"
        self._read[name] = value
        return _Reads(value, self._read, f"{name}.") if isinstance(value, dict) else value


def _judged(read: dict) -> str:
    """The innermost values a check read: a dict it indexed into is left out."""
    return " ".join(
        f"{name}={json.dumps(value)}"
        for name, value in read.items()
        if not any(other.startswith(f"{name}.") for other in read)
    )


def run_row(row: Row) -> bool:
    """Run one row, print its values and checks; True if every check passed."""
    values = row.workload()
    outcomes = []
    if row.deterministic:
        outcomes.append(("deterministic", values == row.workload(), "two runs, same values"))
    seen = values
    if row.report:
        path = ROOT / row.report
        if row.deterministic:
            path.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
        else:
            seen = {**values, "committed": json.loads(path.read_text())}
    print(json.dumps({"row": row.name, **values}, sort_keys=True))
    for label, check in row.checks.items():
        read: dict = {}
        outcomes.append((label, bool(check(_Reads(seen, read))), _judged(read)))
    for label, passed, judged in outcomes:
        print(f"{'PASS' if passed else 'FAIL'}  {row.name}: {label}  {judged}")
    return all(passed for _, passed, _ in outcomes)


def run(names: Sequence[str], rows: Sequence[Row]) -> int:
    """Run the named rows (every row when none are named); 0 if all passed."""
    table = {row.name: row for row in rows}
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"FAIL  unknown rows {unknown}; the rows are: {' '.join(table)}")
        return 2
    failed = []
    for name in names or list(table):
        start = time.perf_counter()
        try:
            passed = run_row(table[name])
        except Exception:  # a broken row must not hide the other rows' results
            traceback.print_exc()
            print(f"FAIL  {name}: raised")
            passed = False
        print(f"-- {name}: {time.perf_counter() - start:.1f} s")
        if not passed:
            failed.append(name)
    print(f"FAILED rows: {' '.join(failed)}" if failed else "every check passed")
    return 1 if failed else 0


def _each(label: str, params: Iterable, check: Callable[[dict, object], bool]) -> Dict[str, Check]:
    """One check per parameter, labelled with it, so a failure names the cell."""
    return {f"{label} [{p}]": (lambda v, p=p: check(v, p)) for p in params}


def _call(fn, **kwargs):
    """``fn(**kwargs)`` and the call spelled out, which names a report's workload."""
    args = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
    return fn(**kwargs), f"{fn.__name__}({args})"


# -- simulated gates: CI diffs their reports ---------------------------------------------
def prefetch() -> dict:
    """Cold-cache multi-epoch scan through RAM buffer -> fast tier -> backing
    SSD: reactive (promote on Nth access, LRU) vs clairvoyant (Belady tiering
    and cross-epoch lookahead) over identical seeded shuffles."""
    report, workload = _call(
        run_clairvoyant_comparison, seed=0, n_files=200, file_size=96 * 1024,
        epochs=3, lookahead_epochs=2,
    )
    r, c = report.reactive, report.clairvoyant
    return {
        "workload": workload,
        "completed": r.completed and c.completed,
        "throughput_ratio": report.speedup,
        "hit_rate_ratio": (
            c.fast_tier_hit_rate / r.fast_tier_hit_rate
            if r.fast_tier_hit_rate > 0
            else float(c.fast_tier_hit_rate > 0)
        ),
        "report": report.metrics_dict(),
    }


def cluster() -> dict:
    """128 nodes each scan the full catalog every epoch through the sharded
    peer-to-peer cluster store."""
    report, workload = _call(
        run_cluster_serving, seed=0, n_nodes=128, n_files=192,
        file_size=64 * 1024, epochs=2,
    )
    return {
        "workload": workload,
        "completed": report.completed,
        "sim_seconds": report.sim_seconds,
        "requests": report.requests,
        "backing_reads": report.backing_reads,
        "cluster_hit_rate": report.cluster_hit_rate,
        "peer_hit_rate": report.peer_hit_rate,
        "reads_per_unique_sample": report.worst_backing_per_unique,
        "max_reads_per_path": report.worst_reads_per_path,
        "report": report.metrics_dict(),
    }


WRITE_CONFIGS = ("posix-read", "posix-mixed", "object-mixed")
#: the configs where checkpoints fire, so a burst-window ratio exists
MIXED_CONFIGS = WRITE_CONFIGS[1:]


def writes() -> dict:
    """Checkpoint bursts beside prefetch reads on read-only POSIX, POSIX with
    read/write interference, and an object store."""
    report, workload = _call(
        run_write_workloads, seed=0, n_files=640, file_size=112 * 1024, epochs=2,
        ckpt_every=8, ckpt_bytes=96_000_000,
    )
    speedups, burst_ratios = {}, {}
    for config in report.configs():
        base = report.trial(config, "baseline-sync")
        sync = report.trial(config, "prisma-sync")
        async_ = report.trial(config, "prisma-async")
        speedups[config] = (
            base.sim_seconds / async_.sim_seconds if async_.sim_seconds > 0 else 0.0
        )
        if config in MIXED_CONFIGS and sync.burst_read_throughput > 0:
            burst_ratios[config] = async_.burst_read_throughput / sync.burst_read_throughput
    return {
        "workload": workload,
        "speedups": speedups,
        "burst_read_ratios": burst_ratios,
        "report": report.metrics_dict(),
    }


BACKEND_KINDS = ("posix", "object")


def predict() -> dict:
    """PredictivePolicy (a ridge model fitted on an offline (t, N) sweep)
    against the reactive auto-tuner and the oracle-best static setting, from
    one cold start on each backend kind."""
    report, workload = _call(
        run_predictive_comparison, seed=0, backend_kinds=list(BACKEND_KINDS)
    )
    kinds = {r.backend_kind: r for r in report.results}
    return {
        "workload": workload,
        "convergence_ratios": {k: r.convergence_ratio for k, r in kinds.items()},
        "steady_fractions": {
            k: (
                r.predictive.steady_throughput / r.oracle.steady_throughput
                if r.oracle.steady_throughput > 0
                else 0.0
            )
            for k, r in kinds.items()
        },
        "live_parity": {k: r.live_parity for k, r in kinds.items()},
        "fell_back": {k: r.fell_back for k, r in kinds.items()},
        "model_rmse_rel": report.model_rmse_rel,
        "report": report.metrics_dict(),
    }


# -- wall-clock measurements of the implementation ---------------------------------------
def simcore() -> dict:
    """Kernel events/s on the canonical mixed workload: the slot-scheduled
    kernel against the in-tree replica of the heap kernel it replaced.  Both
    run in one process on one interpreter, so the ratio does not depend on
    the machine; the two kernels must also fire events in the same order."""
    rounds = 5

    def once(kernel):
        sim = kernel()
        log = canonical_mixed_workload(sim, scale=4)
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start, sim.events_processed, log

    slot_rates, heap_rates, slot_logs, heap_logs = [], [], [], []
    for _ in range(rounds):
        # Interleave so cache/allocator state drift hits both kernels alike.
        elapsed, events, log = once(Simulator)
        slot_rates.append(events / elapsed)
        slot_logs.append(log)
        elapsed, heap_events, log = once(HeapSimulator)
        # Same numerator for both kernels: the heap kernel burns extra
        # events on process bootstraps and interrupt wakes, so dividing
        # its own (larger) count by its wall time would flatter it.
        heap_rates.append(events / elapsed)
        heap_logs.append(log)
    slot_median = statistics.median(slot_rates)
    heap_median = statistics.median(heap_rates)
    return {
        "workload": "canonical_mixed_workload(scale=4)",
        "rounds": rounds,
        "events_per_run": events,
        "events_per_run_heap": heap_events,
        "slot_events_per_s": slot_rates,
        "heap_events_per_s": heap_rates,
        "slot_median_events_per_s": slot_median,
        "heap_median_events_per_s": heap_median,
        "speedup": slot_median / heap_median,
        "deterministic_across_runs": all(log == slot_logs[0] for log in slot_logs[1:]),
        "order_matches_heap_kernel": all(log == slot_logs[0] for log in heap_logs),
    }


class FilterStoreBuffer:
    """The seed's PrefetchBuffer verbatim: FilterStore + predicate getters.

    Kept here (not in ``repro.core``) purely as the regression baseline:
    ``contains`` is a linear scan and every dispatch re-walks the full
    getter queue against the full item deque.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "baseline.buffer") -> None:
        self.sim = sim
        self.name = name
        self._store = FilterStore(sim, capacity=capacity, name=name)
        self.counters = CounterSet()

    def insert(self, path: str, payload) -> Event:
        self.counters.add("inserts")
        done = Event(self.sim, name=f"{self.name}.insert")
        inner = self._store.put((path, payload))
        inner.add_callback(
            lambda ev: done.succeed() if ev.ok else done.fail(ev.exception)
        )
        return done

    def contains(self, path: str) -> bool:
        return any(item[0] == path for item in self._store.items)

    def request(self, path: str):
        hit = self.contains(path)
        self.counters.add("hits" if hit else "waits")
        done = Event(self.sim, name=f"{self.name}.req")
        inner = self._store.get(lambda item: item[0] == path)
        inner.add_callback(
            lambda ev: done.succeed(ev.value[1]) if ev.ok else done.fail(ev.exception)
        )
        return hit, done


BUFFER_BACKENDS = {"filterstore": FilterStoreBuffer, "keyedstore": PrefetchBuffer}
#: resident cold items -> measured rounds of 64 parked consumers each
BUFFER_ROUNDS = {64: 6, 256: 4, 1024: 2}
BUFFER_CELLS = [f"{b} N={n}" for n in BUFFER_ROUNDS for b in BUFFER_BACKENDS]


def _buffer_cell(make_buffer, n_items: int, rounds: int, waiters: int = 64) -> dict:
    """Wall-time ``rounds x waiters`` requests against ``n_items`` cold samples.

    The buffer holds ``n_items`` samples that are never requested (the
    resident population a real epoch carries), while ``waiters`` consumers
    park on not-yet-produced paths and a producer staggers them in: the
    miss-then-deliver pattern that dispatches waiters on every insert.
    """
    sim = Simulator()
    buf = make_buffer(sim, n_items + waiters + 1)

    def prefill():
        for i in range(n_items):
            yield buf.insert(f"/cold/{i}", i)

    p = sim.process(prefill())
    sim.run(until=p)
    progress = {"served": 0}

    def consumer(path):
        _, ev = buf.request(path)
        yield ev
        progress["served"] += 1

    def producer(paths):
        for path in paths:
            yield buf.insert(path, 1)

    def run_rounds():
        for r in range(rounds):
            paths = [f"/round{r}/w{i}" for i in range(waiters)]
            consumers = [sim.process(consumer(path)) for path in paths]
            yield sim.process(producer(paths))
            for c in consumers:
                yield c

    d = sim.process(run_rounds())
    wall0 = time.perf_counter()
    sim.run(until=d)
    seconds = time.perf_counter() - wall0
    requests = rounds * waiters
    return {
        "prefilled": p.ok,
        "requests": requests,
        "served": progress["served"],
        "seconds": seconds,
        "throughput_req_per_s": requests / seconds if seconds > 0 else float("inf"),
    }


def buffer() -> dict:
    """Prefetch-buffer request throughput (completed requests per wall
    second) with N resident samples and 64 parked consumers: the KeyedStore
    backing against the seed's FilterStore backing, in one process."""
    cells = {
        f"{backend} N={n}": _buffer_cell(make, n, rounds)
        for n, rounds in BUFFER_ROUNDS.items()
        for backend, make in BUFFER_BACKENDS.items()
    }
    speedups = {
        str(n): cells[f"keyedstore N={n}"]["throughput_req_per_s"]
        / cells[f"filterstore N={n}"]["throughput_req_per_s"]
        for n in BUFFER_ROUNDS
    }
    return {"cells": cells, "speedup_by_size": speedups, "speedup_at_1024": speedups["1024"]}


def telemetry() -> dict:
    """Wall time of one quick-scale Figure-2 tf-prisma trial with the
    telemetry hooks compiled in and no hub attached (disabled), and with a
    hub recording every span (enabled)."""
    rounds = 5

    def trial(hub: Optional[Telemetry]) -> float:
        start = time.perf_counter()
        run_tf_trial(
            "tf-prisma", LENET, 256, figure2_scale(quick=True), seed=0, telemetry=hub
        )
        return time.perf_counter() - start

    disabled, enabled = [], []
    for _ in range(rounds):
        disabled.append(trial(None))
        hub = Telemetry()
        enabled.append(trial(hub))
        events = len(hub.events) + len(hub.counter_samples)
    return {
        "workload": "run_tf_trial('tf-prisma', lenet, bs=256, figure2_scale(quick=True))",
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_median_s": statistics.median(disabled),
        "enabled_median_s": statistics.median(enabled),
        "events_per_enabled_run": events,
    }


def micro() -> dict:
    """Substrate guardrails, each run once: kernel timeouts, store hand-offs,
    fluid-channel churn, device reads, keyed-buffer requests, and shuffle and
    size generation."""
    out = {}
    sim = Simulator()

    def ticker():
        for _ in range(50_000):
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run()
    out["timeouts_clock"] = sim.now

    sim = Simulator()
    store = Store(sim, capacity=16)

    def put():
        for i in range(20_000):
            yield store.put(i)

    def get():
        for _ in range(20_000):
            yield store.get()

    sim.process(put())
    sim.process(get())
    sim.run()
    out["store_peak_items"] = store.peak_items

    sim = Simulator()
    channel = FairShareChannel(sim, constant_capacity(1e6))

    def client(offset):
        yield sim.timeout(offset * 1e-4)
        for _ in range(500):
            yield channel.transfer(1000.0)

    for c in range(10):
        sim.process(client(c))
    sim.run()
    out["channel_transfers"] = channel.transfers_completed

    sim = Simulator()
    device = BlockDevice(sim, intel_p4600())

    def reader():
        for _ in range(500):
            yield device.read(113 * 1024)

    for _ in range(4):
        sim.process(reader())
    sim.run()
    out["device_reads"] = device.counters.get("reads")

    sim = Simulator()
    buf = PrefetchBuffer(sim, capacity=64)

    def produce():
        for i in range(10_000):
            yield buf.insert(f"/f{i}", i)

    def consume():
        for i in range(10_000):
            _, ev = buf.request(f"/f{i}")
            yield ev

    sim.process(produce())
    sim.process(consume())
    sim.run()
    out["buffer_requests"] = buf.counters.get("hits") + buf.counters.get("waits")
    out["shuffle_length"] = len(EpochShuffler(100_000, RandomStreams(0)).order(1))
    sizes = lognormal_sizes(np.random.default_rng(0), 100_000, 11_000_000_000)
    out["sizes_total"] = int(sizes.sum())
    return out


LIVE_FILES, LIVE_FILE_SIZE = 300, 64 * 1024


def live() -> dict:
    """Real threads over 300 real 64 KiB files: one epoch through the live
    prefetcher, the same epoch read serially, and three epochs under the
    live control loop.  The checks are on mechanism, not speed, since the
    page cache decides what storage costs here."""
    with tempfile.TemporaryDirectory(prefix="gates-live-") as directory:
        payload = os.urandom(LIVE_FILE_SIZE)
        paths = []
        for i in range(LIVE_FILES):
            path = os.path.join(directory, f"s{i:05d}.bin")
            with open(path, "wb") as fh:
                fh.write(payload)
            paths.append(path)
        order = list(paths)
        random.Random(0).shuffle(order)
        with LivePrefetcher(producers=4, buffer_capacity=64) as pf:
            pf.load_epoch(order)
            prefetched = sum(len(pf.read(path, timeout=30.0)) for path in order)
        serial = 0
        for path in order:
            with open(path, "rb") as fh:
                serial += len(fh.read())
        rng = random.Random(1)
        orders = []
        for _ in range(3):
            epoch = list(paths)
            rng.shuffle(epoch)
            orders.append(epoch)
        with LivePrisma(
            producers=2, buffer_capacity=32, max_producers=8, control_period=0.02
        ) as prisma:
            tuned = sum(
                len(data) for epoch in orders for _path, data in prisma.iter_epoch(epoch)
            )
            stats = prisma.stats()
    return {
        "prefetched_bytes": prefetched,
        "serial_bytes": serial,
        "tuned_bytes": tuned,
        "tuned_hit_rate": stats["hit_rate"],
        "tuned_final_buffer": stats["buffer_capacity"],
    }


# -- the paper's figures --------------------------------------------------------------
#: Figure 2, Figure 3 and validation-prefetch run at this scale and share
#: their cells: 12.8k train files, 200 batches per epoch at bs 64.
FIG_SCALE = ExperimentScale(scale=100, epochs=2)
FIG_MODELS = ("lenet", "alexnet", "resnet50")


@functools.cache  # one run per cell per process, shared by every row that needs it
def tf_trial(setup: str, model: str, batch: int, prefetch_validation: bool = False) -> TrialResult:
    return run_tf_trial(
        setup, get_model(model), batch, FIG_SCALE, prefetch_validation=prefetch_validation
    )


FIG2_CELLS = (
    [f"lenet/{setup}/{batch}" for setup in TF_SETUPS for batch in (64, 128, 256)]
    + [f"alexnet/{setup}/256" for setup in TF_SETUPS]
    + ["resnet50/tf-baseline/256", "resnet50/tf-prisma/256"]
)
#: the LeNet cells the paper quotes (bs 128 it does not)
FIG2_PAPER_S = {
    f"lenet/{setup}/{batch}": paper_reference("lenet", batch, setup)
    for setup in TF_SETUPS
    for batch in (64, 256)
}


def figure2() -> dict:
    """Figure 2: paper-equivalent seconds of every LeNet cell, and of
    AlexNet and ResNet-50 at bs 256, with the reductions the paper quotes."""
    s = {}
    for cell in FIG2_CELLS:
        model, setup, batch = cell.split("/")
        s[cell] = tf_trial(setup, model, int(batch)).paper_equivalent_seconds
    lenet_base = s["lenet/tf-baseline/256"]
    return {
        "paper_equivalent_s": s,
        "lenet_prisma_cut": reduction_percent(lenet_base, s["lenet/tf-prisma/256"]),
        "lenet_tfopt_cut": reduction_percent(lenet_base, s["lenet/tf-optimized/256"]),
        "alexnet_prisma_cut": reduction_percent(
            s["alexnet/tf-baseline/256"], s["alexnet/tf-prisma/256"]
        ),
        "resnet_prisma_over_baseline": s["resnet50/tf-prisma/256"] / s["resnet50/tf-baseline/256"],
    }


def figure3() -> dict:
    """Figure 3: CDFs of how many reader threads are active, PRISMA against
    TF-optimized, over Figure 2's bs-256 trials."""
    fig = run_figure3(
        FIG_SCALE,
        trials={
            (m, s): tf_trial(s, m, 256) for m in FIG_MODELS for s in ("tf-optimized", "tf-prisma")
        },
    )
    prisma = {m: fig.curve(m, "tf-prisma").cdf for m in FIG_MODELS}
    return {
        "prisma_max_threads": {m: cdf.maximum for m, cdf in prisma.items()},
        "prisma_median_threads": {m: cdf.quantile(0.5) for m, cdf in prisma.items()},
        "prisma_cdf": {
            m: {int(v): round(c, 3) for v, c in cdf.points()} for m, cdf in prisma.items()
        },
        "tf_optimized_max_threads": {
            m: fig.curve(m, "tf-optimized").cdf.maximum for m in ("lenet", "resnet50")
        },
        "lenet_thread_ratios": {
            f"p{int(q * 100)}": r for q, r in fig.thread_ratio("lenet").items()
        },
    }


#: 16 workers need >= 96 batches per epoch at bs 256: scale 50.
FIG4_SCALE = ExperimentScale(scale=50, epochs=1)
WORKERS = (0, 2, 4, 8, 16)


def figure4() -> dict:
    """Figure 4: PyTorch DataLoader workers against PRISMA, LeNet at every
    worker count and AlexNet at 0, 4 and 16."""
    lenet = run_figure4(FIG4_SCALE, models=(LENET,))
    alexnet = run_figure4(FIG4_SCALE, models=(ALEXNET,), worker_counts=(0, 4, 16))
    return {
        "lenet_native_s": {w: lenet.cell("lenet", "torch-native", w).seconds for w in WORKERS},
        "lenet_prisma_s": {w: lenet.cell("lenet", "torch-prisma", w).seconds for w in WORKERS},
        "alexnet_native_s": {
            w: alexnet.cell("alexnet", "torch-native", w).seconds for w in (0, 4, 16)
        },
        "alexnet_prisma_s": {
            w: alexnet.cell("alexnet", "torch-prisma", w).seconds for w in (0, 4, 16)
        },
        "lenet_advantage_s": {w: lenet.advantage("lenet", w) for w in WORKERS},
        "lenet_prisma_spread": lenet.prisma_spread("lenet"),
    }


ABLATION_SCALE = ExperimentScale(scale=200, epochs=1)


def ablation_autotune() -> dict:
    """The feedback auto-tuner against a static (t, N) grid, LeNet bs 256."""
    points = static_grid(producers=(1, 2, 4, 8), buffers=(64, 512), scale=ABLATION_SCALE)
    auto = autotune_point(scale=ABLATION_SCALE)
    best = best_static(points)
    worst = max(points, key=lambda p: p.paper_equivalent_seconds)
    tuned = auto.detail["final_producers"]
    return {
        "grid_s": {p.label: p.paper_equivalent_seconds for p in points},
        "n512_s_by_producers": {
            p.detail["producers"]: p.paper_equivalent_seconds
            for p in points
            if p.detail["buffer"] == 512
        },
        "autotune_s": auto.paper_equivalent_seconds,
        "autotune_producers": tuned,
        "best_static": best.label,
        "best_static_producers": best.detail["producers"],
        "autotune_over_best_static": auto.paper_equivalent_seconds / best.paper_equivalent_seconds,
        "best_same_class_s": min(
            p.paper_equivalent_seconds for p in points if p.detail["producers"] <= tuned
        ),
        "worst_static_over_autotune": (
            worst.paper_equivalent_seconds / auto.paper_equivalent_seconds
        ),
    }


def ablation_storage() -> dict:
    """The same data plane over an HDD, the paper's SSD and a gen4 NVMe, and
    under slower control periods."""
    devices = device_sensitivity(scale=ABLATION_SCALE)
    periods = {
        p.detail["period_unscaled"]: p.paper_equivalent_seconds
        for p in control_period_sensitivity(periods_unscaled=(0.5, 2.0, 8.0), scale=ABLATION_SCALE)
    }
    return {
        "device_s": {p.detail["device"]: p.paper_equivalent_seconds for p in devices},
        "final_producers": {p.detail["device"]: p.detail["final_producers"] for p in devices},
        "period_s": {str(k): v for k, v in periods.items()},
        "slowest_over_fastest_period": max(periods.values()) / min(periods.values()),
    }


def validation_prefetch() -> dict:
    """Paper §V-A's "feasible adjustment": PRISMA also prefetching the
    validation files, LeNet bs 256, against plain PRISMA and TF-optimized."""
    s = {
        "prisma": tf_trial("tf-prisma", "lenet", 256).paper_equivalent_seconds,
        "prisma-valprefetch": tf_trial("tf-prisma", "lenet", 256, True).paper_equivalent_seconds,
        "tf-optimized": tf_trial("tf-optimized", "lenet", 256).paper_equivalent_seconds,
    }
    return {
        "paper_equivalent_s": s,
        "gap_closed": (s["prisma"] - s["prisma-valprefetch"]) / (s["prisma"] - s["tf-optimized"]),
    }


def integration_loc() -> dict:
    """Lines of code in the framework integration seams (paper §IV)."""
    return {"tensorflow": tf_integration_loc(), "pytorch": torch_integration_loc()}


# -- the extensions' claims ---------------------------------------------------------------
def _lenet_training(sim, posix, split, streams, train_src, batch, scale, setup) -> float:
    """Paper-equivalent seconds of one epoch of LeNet over ``train_src``."""
    va_sh = EpochShuffler(len(split.validation), streams.spawn("v"))
    val_src = tf_baseline(sim, split.validation, va_sh, batch, posix, LENET, name="val")
    trainer = Trainer(
        sim, LENET, GpuEnsemble(sim), train_src,
        TrainingConfig(epochs=1, global_batch=batch), val_src, setup=setup,
    )
    return trainer.run_to_completion().total_time * scale * 10


def _pfs_run(setup: str, rpc_latency: float) -> float:
    scale, batch = 400, 32
    streams = RandomStreams(0)
    sim = Simulator()
    pfs = DistributedFilesystem(
        sim, n_targets=4, target_profile=intel_p4600(), rpc_latency=rpc_latency
    )
    split = imagenet_like(streams, scale=scale)
    split.materialize(pfs)
    posix = PosixLayer(sim, pfs)  # duck-typed: the PFS speaks Filesystem
    tr_sh = EpochShuffler(len(split.train), streams.spawn("t"))
    controller = None
    if setup == "prisma":
        stage, _, controller = build_prisma(sim, posix, PrismaConfig(control_period=1.0 / scale))
        train_src = PrismaTensorFlowPipeline(sim, split.train, tr_sh, batch, stage, LENET)
    else:
        train_src = tf_baseline(sim, split.train, tr_sh, batch, posix, LENET)
    seconds = _lenet_training(sim, posix, split, streams, train_src, batch, scale, setup)
    if controller is not None:
        controller.stop()
    return seconds


def distributed() -> dict:
    """PRISMA over a Lustre-like PFS: 4 hash-placed targets behind a shared
    link with RPC latency (paper §VII)."""
    s = {
        f"{setup} {latency * 1e6:.0f}us": _pfs_run(setup, latency)
        for latency in (100e-6, 400e-6, 800e-6)
        for setup in ("baseline", "prisma")
    }
    return {
        "paper_equivalent_s": s,
        "reduction_pct": 100.0 * (1.0 - s["prisma 400us"] / s["baseline 400us"]),
        "gap_growth": (s["baseline 800us"] - s["prisma 800us"])
        / (s["baseline 100us"] - s["prisma 100us"]),
    }


def distributed_training() -> dict:
    """Strong-scaling sweep of synchronous LeNet training over a shared PFS,
    baseline pipelines against per-node PRISMA stages."""
    sweep = run_distributed_sweep()
    runs = {
        f"{side} x{row.n_nodes}": getattr(row, side)
        for row in sweep
        for side in ("baseline", "prisma")
    }
    return {
        "steps": {k: r.steps for k, r in runs.items()},
        "total_s": {k: r.total_time for k, r in runs.items()},
        "barrier_wait_s": {k: r.mean_barrier_wait for k, r in runs.items()},
        "speedup": {row.n_nodes: row.speedup for row in sweep},
        "baseline4_over_prisma1": runs["baseline x4"].total_time / runs["prisma x1"].total_time,
    }


MT_MODES = ("none", "independent", "global")


def multitenant() -> dict:
    """Three jobs on one device under no PRISMA, independent controllers,
    and one global controller with a fair-share producer budget."""
    rows = {row.mode: row for row in run_multitenant_comparison()}
    return {
        "job_times": {m: r.job_times for m, r in rows.items()},
        "makespan": {m: r.makespan for m, r in rows.items()},
        "mean_job_s": {m: r.mean_job_time for m, r in rows.items()},
        "fairness": {m: r.fairness for m, r in rows.items()},
        "independent_speedup": rows["none"].mean_job_time / rows["independent"].mean_job_time,
        "global_peak_producers": rows["global"].peak_producers,
    }


FORMAT_LAYOUTS = ("file-per-sample", "sharded", "prisma")


def _format_run(layout: str) -> float:
    scale, batch = 200, 64
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    split = imagenet_like(streams, scale=scale)
    posix = PosixLayer(sim, fs)
    split.validation.materialize(fs)
    controller = None
    if layout == "sharded":
        sharded = shard_catalog(split.train, samples_per_shard=512)
        sharded.shards.materialize(fs)
        train_src = ShardedTFDataPipeline(
            sim, sharded, EpochShuffler(len(sharded.shards), streams.spawn("s")),
            batch, posix, LENET, reader_threads=1, prefetch_batches=2,
        )
    else:
        split.train.materialize(fs)
        tr_sh = EpochShuffler(len(split.train), streams.spawn("t"))
        if layout == "prisma":
            stage, _, controller = build_prisma(
                sim, posix, PrismaConfig(control_period=1.0 / scale)
            )
            train_src = PrismaTensorFlowPipeline(sim, split.train, tr_sh, batch, stage, LENET)
        else:
            train_src = tf_baseline(sim, split.train, tr_sh, batch, posix, LENET)
    seconds = _lenet_training(sim, posix, split, streams, train_src, batch, scale, layout)
    if controller is not None:
        controller.stop()
    return seconds


def data_format() -> dict:
    """File-per-sample against 512-sample record shards (paper §II's
    "optimized data formats") and PRISMA over the unconverted files."""
    s = {layout: _format_run(layout) for layout in FORMAT_LAYOUTS}
    base = s["file-per-sample"]
    return {
        "paper_equivalent_s": s,
        "sharding_speedup": base / s["sharded"],
        "prisma_benefit_recovered": (base - s["prisma"]) / (base - s["sharded"]),
    }


SHARED_JOBS = 3


def _shared_run(shared: bool) -> dict:
    streams = RandomStreams(0)
    sim = Simulator()
    device = BlockDevice(sim, intel_p4600())
    fs = Filesystem(sim, device)
    split = imagenet_like(streams, scale=800)
    split.train.materialize(fs)
    posix = PosixLayer(sim, fs)
    order = EpochShuffler(len(split.train), streams.spawn("sh")).order(0)
    paths = [split.train.path(int(i)) for i in order]

    def consumer(pf):
        for path in paths:
            yield pf.serve(path)
            yield sim.timeout(5e-5)  # preprocess/compute between samples

    if shared:
        pf = SharedDatasetPrefetcher(
            sim, posix, consumers=SHARED_JOBS, producers=4, buffer_capacity=512
        )
        pf.on_epoch(paths)
        pfs = [pf] * SHARED_JOBS
    else:
        pfs = []
        for _ in range(SHARED_JOBS):
            pf = ParallelPrefetcher(sim, posix, producers=4, buffer_capacity=512)
            pf.on_epoch(paths)
            pfs.append(pf)
    sim.run(until=sim.all_of([sim.process(consumer(pf)) for pf in pfs]))
    return {
        "seconds": sim.now,
        "device_reads": device.counters.get("reads"),
        "device_bytes": device.counters.get("read_bytes"),
    }


def shared_dataset() -> dict:
    """Three jobs read one dataset over one device: independent PRISMA
    stages against one SharedDatasetPrefetcher that reads once and serves
    three (paper §VII)."""
    runs = {"independent": _shared_run(False), "shared": _shared_run(True)}
    return {
        **runs,
        "traffic_ratio": runs["independent"]["device_reads"] / runs["shared"]["device_reads"],
        "speedup": runs["independent"]["seconds"] / runs["shared"]["seconds"],
    }


def trace_replay() -> dict:
    """Record the framework-side and backend-side traffic of a PRISMA epoch,
    then replay the backend trace on each device, closed-loop at 4 deep and
    open-loop at the recorded arrival times."""
    scale = 800
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    split = imagenet_like(streams, scale=scale)
    split.train.materialize(fs)
    below = TracingPosix(sim, PosixLayer(sim, fs))
    stage, _, controller = build_prisma(sim, below, PrismaConfig(control_period=1.0 / scale))
    above = TracingPosix(sim, stage)
    paths = split.train.filenames()
    stage.load_epoch(paths)

    def consumer():
        for path in paths:
            yield above.read_whole(path)

    sim.run(until=sim.process(consumer()))
    controller.stop()
    above.trace.finalize()
    below.trace.finalize()

    def replay(device: str, **kwargs):
        sim = Simulator()
        fs = Filesystem(sim, BlockDevice(sim, DEVICE_SWEEP[device]))
        imagenet_like(RandomStreams(0), scale=scale).train.materialize(fs)
        return TraceReplayer(sim, PosixLayer(sim, fs)).replay(below.trace, **kwargs)

    closed = {d: replay(d, timed=False, concurrency=4) for d in DEVICE_SWEEP}
    return {
        "framework_reads": len(above.trace),
        "backend_reads": len(below.trace),
        "framework_bytes": above.trace.total_bytes(),
        "backend_bytes": below.trace.total_bytes(),
        "framework_mean_latency_s": above.trace.mean_latency(),
        "backend_mean_latency_s": below.trace.mean_latency(),
        "replay_errors": {d: r.errors for d, r in closed.items()},
        "replay_duration_s": {d: r.duration for d, r in closed.items()},
        "replay_MiBps": {d: r.throughput() / 2**20 for d, r in closed.items()},
        "replay_p99_s": {d: r.p99_latency for d, r in closed.items()},
        "open_loop_mean_latency_s": {
            d: replay(d, timed=True).mean_latency for d in ("intel-p4600", "sata-hdd")
        },
    }


# -- the table ----------------------------------------------------------------------------
ROWS = [
    Row("prefetch", prefetch, deterministic=True, report="BENCH_prefetch.json", checks={
        "both stacks complete": lambda v: v["completed"],
        "clairvoyant out-reads reactive": lambda v: v["throughput_ratio"] > 1.0,
        "clairvoyant hits the fast tier more": lambda v: v["hit_rate_ratio"] > 1.0,
    }),
    Row("cluster", cluster, deterministic=True, report="BENCH_cluster.json", checks={
        "the epochs finish": lambda v: v["completed"],
        "backing store reads each sample about once":
            lambda v: v["reads_per_unique_sample"] <= 1.05,
        "the cluster tiers absorb the request storm": lambda v: v["cluster_hit_rate"] >= 0.95,
    }),
    Row("writes", writes, deterministic=True, report="BENCH_writes.json", checks={
        "every config reports": lambda v: len(v["speedups"]) == 3,
        **_each("prisma-async beats baseline-sync", WRITE_CONFIGS,
                lambda v, c: v["speedups"][c] >= 1.1),
        "every mixed config reports": lambda v: len(v["burst_read_ratios"]) == len(MIXED_CONFIGS),
        **_each("async checkpoints keep burst-window reads", MIXED_CONFIGS,
                lambda v, c: v["burst_read_ratios"][c] >= 1.2),
    }),
    Row("predict", predict, deterministic=True, report="BENCH_predict.json", checks={
        "every backend kind reports": lambda v: len(v["convergence_ratios"]) == len(BACKEND_KINDS),
        **_each("converges in half the reactive periods", BACKEND_KINDS,
                lambda v, k: v["convergence_ratios"][k] <= 0.5),
        **_each("steady rate near the oracle's", BACKEND_KINDS,
                lambda v, k: v["steady_fractions"][k] >= 0.95),
        **_each("sim/live decision parity", BACKEND_KINDS, lambda v, k: v["live_parity"][k]),
        **_each("never falls back", BACKEND_KINDS, lambda v, k: not v["fell_back"][k]),
    }),
    Row("simcore", simcore, report="BENCH_simcore.json", checks={
        "same firing order on every run": lambda v: v["deterministic_across_runs"],
        "same firing order as the heap kernel": lambda v: v["order_matches_heap_kernel"],
        "slot kernel beats the heap kernel": lambda v: v["speedup"] >= 1.5,
        "speedup within 5% of the committed one":
            lambda v: v["speedup"] * 1.05 >= v["committed"]["speedup"],
    }),
    Row("buffer", buffer, report="BENCH_buffer.json", checks={
        **_each("prefill completes", BUFFER_CELLS, lambda v, c: v["cells"][c]["prefilled"]),
        **_each("every request served", BUFFER_CELLS,
                lambda v, c: v["cells"][c]["served"] == v["cells"][c]["requests"]),
        "keyed buffer beats the FilterStore scan at N=1024":
            lambda v: v["speedup_at_1024"] >= 10.0,
    }),
    Row("telemetry", telemetry, report="BENCH_telemetry.json", checks={
        # The baseline is a wall time recorded on another machine, so this
        # holds only where that machine's speed is matched.
        "disabled median within 5% of the committed baseline wall time":
            lambda v: v["disabled_median_s"] / v["committed"]["pre_pr_baseline_s"] <= 1.05,
        # Both medians come from this process, so the ratio holds on any
        # machine: 1.62 committed, 2.16-2.22 on a 2-vCPU container.
        "enabled median at most 3x the disabled one":
            lambda v: v["enabled_median_s"] / v["disabled_median_s"] <= 3.0,
    }),
    Row("micro", micro, checks={
        "50k timeouts advance the clock": lambda v: v["timeouts_clock"] == 50_000.0,
        "bounded store stays bounded": lambda v: v["store_peak_items"] <= 16,
        "every channel transfer completes": lambda v: v["channel_transfers"] == 5000,
        "every device read completes": lambda v: v["device_reads"] == 2000,
        "every buffer request counted": lambda v: v["buffer_requests"] == 10_000,
        "shuffle covers the epoch": lambda v: v["shuffle_length"] == 100_000,
        "sizes sum to the total": lambda v: v["sizes_total"] == 11_000_000_000,
    }),
    Row("live", live, checks={
        "prefetcher delivers every byte":
            lambda v: v["prefetched_bytes"] == LIVE_FILES * LIVE_FILE_SIZE,
        "serial reads deliver every byte":
            lambda v: v["serial_bytes"] == LIVE_FILES * LIVE_FILE_SIZE,
        "tuned control loop delivers every byte":
            lambda v: v["tuned_bytes"] == 3 * LIVE_FILES * LIVE_FILE_SIZE,
        "tuned control loop hits the buffer": lambda v: v["tuned_hit_rate"] > 0.2,
    }),
    Row("figure2", figure2, checks={
        **_each("within 20% of the paper", FIG2_PAPER_S,
                lambda v, c: abs(v["paper_equivalent_s"][c] - FIG2_PAPER_S[c])
                <= 0.20 * abs(FIG2_PAPER_S[c])),
        # Paper: 54 % (PRISMA) and 67 % (TF-optimized) at bs 256.
        "PRISMA cuts LeNet by over 45%": lambda v: v["lenet_prisma_cut"] > 45.0,
        "TF-optimized cuts LeNet more": lambda v: v["lenet_tfopt_cut"] > v["lenet_prisma_cut"],
        # Paper: about 20 % for AlexNet.
        "PRISMA cuts AlexNet by 10-35%": lambda v: 10.0 < v["alexnet_prisma_cut"] < 35.0,
        # Paper: "no impact on training time".
        "ResNet-50 unaffected": lambda v: 0.93 < v["resnet_prisma_over_baseline"] < 1.07,
    }),
    Row("figure3", figure3, checks={
        # Paper: at most 4 (3 for ResNet-50); +2 allows for warm-up transients.
        **_each("PRISMA peaks at 6 threads", FIG_MODELS,
                lambda v, m: v["prisma_max_threads"][m] <= 6),
        **_each("PRISMA's median is at most 4 threads", FIG_MODELS,
                lambda v, m: v["prisma_median_threads"][m] <= 4),
        # Paper: TF allocates 30 threads; active counts range far above PRISMA's.
        **_each("TF-optimized spreads past 8 threads", ("lenet", "resnet50"),
                lambda v, m: v["tf_optimized_max_threads"][m] > 8),
        # Paper: "TF optimized uses 2-7x more threads".
        "TF-optimized uses 2x PRISMA's threads at some quantile [lenet]":
            lambda v: max(v["lenet_thread_ratios"].values()) >= 2.0,
        "TF-optimized never uses fewer [lenet]":
            lambda v: min(v["lenet_thread_ratios"].values()) >= 1.0,
    }),
    Row("figure4", figure4, checks={
        # Derived paper anchors.
        **_each("native LeNet within 25% of the paper", WORKERS,
                lambda v, w: abs(v["lenet_native_s"][w] - FIG4_LENET_NATIVE_SECONDS[w])
                <= 0.25 * abs(FIG4_LENET_NATIVE_SECONDS[w])),
        # Paper: PRISMA-PyTorch around 1.9-2.1 ks for LeNet bs 256.
        **_each("PRISMA LeNet in 1.5-2.6 ks", WORKERS,
                lambda v, w: 1500 < v["lenet_prisma_s"][w] < 2600),
        # Paper: PRISMA saves 2,710 s at 0 workers.
        "PRISMA beats native AlexNet [0]":
            lambda v: v["alexnet_prisma_s"][0] < v["alexnet_native_s"][0],
        # The paper's crossover: PRISMA wins at 0/2/4 workers, loses at 8/16.
        "PRISMA's LeNet advantage [0]": lambda v: v["lenet_advantage_s"][0] > 1000,
        "PRISMA's LeNet advantage [2]": lambda v: v["lenet_advantage_s"][2] > 0,
        "PRISMA roughly breaks even [4]": lambda v: v["lenet_advantage_s"][4] > -150,
        "native LeNet wins [8]": lambda v: v["lenet_advantage_s"][8] < 0,
        "native LeNet wins [16]": lambda v: v["lenet_advantage_s"][16] < 0,
        "PRISMA flat across worker counts": lambda v: v["lenet_prisma_spread"] < 1.20,
    }),
    Row("ablation-autotune", ablation_autotune, checks={
        "more producers help at N=512": lambda v: (
            v["n512_s_by_producers"][1] > v["n512_s_by_producers"][2] > v["n512_s_by_producers"][4]
        ),
        # The claim is balance: a bounded concession to the most
        # resource-hungry static point, at no more than half its threads.
        "bounded concession to the best static point":
            lambda v: v["autotune_over_best_static"] < 1.35,
        "at most half the best static point's threads":
            lambda v: v["autotune_producers"] * 2 <= v["best_static_producers"],
        "matches the best static point of its class":
            lambda v: v["autotune_s"] <= v["best_same_class_s"] * 1.05,
        "far ahead of a bad static choice": lambda v: v["worst_static_over_autotune"] > 1.5,
    }),
    Row("ablation-storage", ablation_storage, checks={
        "faster devices train faster": lambda v: (
            v["device_s"]["sata-hdd"] > v["device_s"]["intel-p4600"]
            >= v["device_s"]["nvme-gen4"] * 0.95
        ),
        # HDD: extra threads barely help (kappa 0.15); the paper's SSD: about 4.
        "tuner stays low on the HDD": lambda v: v["final_producers"]["sata-hdd"] <= 3,
        "tuner lands near 4 on the SSD": lambda v: 3 <= v["final_producers"]["intel-p4600"] <= 5,
        "slower control loops still train": lambda v: v["slowest_over_fastest_period"] < 1.4,
    }),
    Row("distributed", distributed, checks={
        **_each("trains", ("baseline 400us", "prisma 400us"),
                lambda v, k: v["paper_equivalent_s"][k] > 0),
        # RPC latency amplifies the serial reader's penalty.
        "PRISMA cuts over 50% on the PFS": lambda v: v["reduction_pct"] > 50.0,
        "more RPC latency widens PRISMA's lead": lambda v: v["gap_growth"] > 1.0,
    }),
    Row("distributed-training", distributed_training, checks={
        **_each("trains", [f"{s} x{n}" for s in ("baseline", "prisma") for n in (1, 2, 4)],
                lambda v, k: v["steps"][k] > 0),
        **_each("PRISMA wins", (1, 2, 4), lambda v, n: v["speedup"][n] > 1.2),
        "PRISMA smooths step jitter [4]":
            lambda v: v["barrier_wait_s"]["prisma x4"] < v["barrier_wait_s"]["baseline x4"],
        "one PRISMA node matches four baseline nodes":
            lambda v: v["baseline4_over_prisma1"] > 0.7,
    }),
    Row("multitenant", multitenant, checks={
        **_each("every job finishes", MT_MODES,
                lambda v, m: all(t > 0 for t in v["job_times"][m])),
        "PRISMA accelerates shared jobs": lambda v: v["independent_speedup"] > 1.3,
        "global budget caps each job at 4 producers": lambda v: v["global_peak_producers"] <= 4,
        "coordination is as fair as independent tuning":
            lambda v: v["fairness"]["global"] >= v["fairness"]["independent"] - 0.02,
    }),
    Row("format", data_format, checks={
        **_each("trains", FORMAT_LAYOUTS, lambda v, k: v["paper_equivalent_s"][k] > 0),
        "shards beat file-per-sample": lambda v: v["sharding_speedup"] > 1.5,
        "PRISMA recovers most of the shards' win": lambda v: v["prisma_benefit_recovered"] > 0.6,
    }),
    Row("integration-loc", integration_loc, checks={
        "TensorFlow seam within the paper's LoC":
            lambda v: v["tensorflow"] <= INTEGRATION_LOC["tensorflow"],
        "PyTorch seam within 5 of the paper's LoC":
            lambda v: v["pytorch"] <= INTEGRATION_LOC["pytorch"] + 5,
    }),
    Row("shared-dataset", shared_dataset, checks={
        **_each("finishes", ("independent", "shared"), lambda v, m: v[m]["seconds"] > 0),
        "shared plane reads each file once for all jobs":
            lambda v: abs(v["traffic_ratio"] - SHARED_JOBS) <= 0.01 * abs(SHARED_JOBS),
        "shared plane finishes the epoch faster": lambda v: v["speedup"] > 1.2,
    }),
    Row("trace-replay", trace_replay, checks={
        "both sides see every read": lambda v: v["framework_reads"] == v["backend_reads"],
        "both sides see every byte": lambda v: v["framework_bytes"] == v["backend_bytes"],
        "the buffer hides device latency":
            lambda v: v["framework_mean_latency_s"] < v["backend_mean_latency_s"] / 2,
        **_each("replays without errors", DEVICE_SWEEP, lambda v, d: v["replay_errors"][d] == 0),
        "replays order the devices": lambda v: (
            v["replay_duration_s"]["sata-hdd"] > v["replay_duration_s"]["intel-p4600"]
            > v["replay_duration_s"]["nvme-gen4"]
        ),
        "the HDD queues under the recorded arrivals": lambda v: (
            v["open_loop_mean_latency_s"]["sata-hdd"]
            > v["open_loop_mean_latency_s"]["intel-p4600"] * 10
        ),
    }),
    Row("validation-prefetch", validation_prefetch, checks={
        **_each("trains", ("prisma", "prisma-valprefetch", "tf-optimized"),
                lambda v, k: v["paper_equivalent_s"][k] > 0),
        # The rest of the gap is the train-phase thread budget (4 vs 30).
        "closes part of the gap to TF-optimized": lambda v: 0.05 < v["gap_closed"] < 0.9,
        "validation prefetching helps":
            lambda v: v["paper_equivalent_s"]["prisma-valprefetch"]
            < v["paper_equivalent_s"]["prisma"],
    }),
]


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], ROWS))
