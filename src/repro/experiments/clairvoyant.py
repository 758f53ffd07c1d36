"""Reactive vs clairvoyant PRISMA on a cold-cache multi-epoch run.

ROADMAP item 1 made measurable: the moment the shuffle seed is fixed, the
access order of every future epoch is known, so a prefetcher can plan
against a :class:`~repro.core.schedule.LookaheadSchedule` instead of
rediscovering each epoch from the FIFO filenames list.  This experiment
runs the *same* multi-epoch training scan twice over an identical stack —
RAM buffer → node-local fast tier (ramdisk) → backing store (datacenter
SSD, page cache disabled, i.e. cold) — differing only in policy:

* **reactive** — promote-on-Nth-access tiering, LRU demotion, no
  cross-epoch prefetch (the PR-1 baseline);
* **clairvoyant** — Belady-style tiering (promote what the schedule says
  returns soonest, evict what returns farthest) plus cross-epoch lookahead
  in the prefetcher.

Both runs consume identical per-epoch shuffles (derived from the same
seed), so every difference in throughput and fast-tier hit rate is the
policy's doing.  The report is deterministic: same seed → byte-identical
``metrics_dict()`` — the benchmark's determinism gate relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core import (
    LookaheadSchedule,
    PrismaConfig,
    StaticPolicy,
    TieringConfig,
    build_prisma,
)
from ..simcore import AllOf, AnyOf, Simulator
from ..simcore.random import RandomStreams
from ..storage.device import BlockDevice, intel_p4600
from ..storage.filesystem import Filesystem
from ..storage.posix import PosixLayer

KiB = 1024


@dataclass
class ClairvoyantRun:
    """Everything one (reactive or clairvoyant) run produces."""

    setup: str
    completed: bool
    sim_seconds: float
    files_served: int
    throughput: float
    fast_tier_hit_rate: float
    tier_hits: int
    tier_misses: int
    promotions: int
    demotions: int
    lookahead_fetches: int
    buffer_hit_rate: float
    per_epoch_seconds: List[float] = field(default_factory=list)

    def metrics_dict(self) -> Dict[str, object]:
        return {
            "setup": self.setup,
            "completed": self.completed,
            "sim_seconds": self.sim_seconds,
            "files_served": self.files_served,
            "throughput": self.throughput,
            "fast_tier_hit_rate": self.fast_tier_hit_rate,
            "tier_hits": self.tier_hits,
            "tier_misses": self.tier_misses,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "lookahead_fetches": self.lookahead_fetches,
            "buffer_hit_rate": self.buffer_hit_rate,
            "per_epoch_seconds": list(self.per_epoch_seconds),
        }


@dataclass
class ClairvoyantReport:
    """The paired comparison the ``repro clairvoyant`` command prints."""

    seed: int
    n_files: int
    file_size: int
    epochs: int
    fast_capacity_bytes: int
    lookahead_epochs: int
    reactive: ClairvoyantRun
    clairvoyant: ClairvoyantRun

    @property
    def speedup(self) -> float:
        if self.reactive.throughput <= 0:
            return 0.0
        return self.clairvoyant.throughput / self.reactive.throughput

    def metrics_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (the determinism-gate surface)."""
        return {
            "seed": self.seed,
            "n_files": self.n_files,
            "file_size": self.file_size,
            "epochs": self.epochs,
            "fast_capacity_bytes": self.fast_capacity_bytes,
            "lookahead_epochs": self.lookahead_epochs,
            "speedup": self.speedup,
            "reactive": self.reactive.metrics_dict(),
            "clairvoyant": self.clairvoyant.metrics_dict(),
        }


def run_clairvoyant_comparison(
    seed: int = 0,
    n_files: int = 200,
    file_size: int = 96 * KiB,
    epochs: int = 3,
    fast_fraction: float = 0.5,
    lookahead_epochs: int = 2,
    consumers: int = 2,
    consume_time: float = 0.0,
    producers: int = 2,
    buffer_capacity: int = 32,
    control_period: float = 10e-3,
    time_limit: float = 120.0,
    telemetry=None,
) -> ClairvoyantReport:
    """Run the reactive and clairvoyant stacks over identical epoch shuffles.

    ``fast_fraction`` sizes the fast tier relative to the dataset (the
    interesting regime is *partial* residency — a tier that holds
    everything makes every policy look clairvoyant).  ``time_limit`` is the
    per-run hang watchdog in simulated seconds.
    """
    if n_files < consumers or consumers < 1:
        raise ValueError("need at least one file per consumer")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not 0 < fast_fraction < 1:
        raise ValueError("fast_fraction must be in (0, 1)")
    paths = [f"/data/train/{i:06d}" for i in range(n_files)]
    fast_capacity = max(int(n_files * file_size * fast_fraction), file_size)
    # Both runs consume the same seeded shuffles; the clairvoyant run
    # additionally *plans* against them via an installed schedule.
    orders = [
        LookaheadSchedule.from_seed(paths, seed=seed, epochs=epochs).epoch_order(e)
        for e in range(epochs)
    ]

    def run_one(clairvoyant: bool) -> ClairvoyantRun:
        setup = "clairvoyant" if clairvoyant else "reactive"
        streams = RandomStreams(seed)
        sim = Simulator()
        if telemetry is not None:
            telemetry.attach(sim, process=f"clairvoyant/{setup}/seed{seed}")
        device = BlockDevice(sim, intel_p4600(), streams=streams)
        fs = Filesystem(sim, device)  # page cache off: every backing read is cold
        fs.create_many((p, file_size) for p in paths)
        posix = PosixLayer(sim, fs)
        config = PrismaConfig(
            control_period=control_period,
            policy=StaticPolicy(producers, buffer_capacity),
            producers=producers,
            buffer_capacity=buffer_capacity,
            lookahead_epochs=lookahead_epochs if clairvoyant else 0,
            tiering=TieringConfig(
                fast_capacity_bytes=fast_capacity,
                clairvoyant=clairvoyant,
                promote_after=2,
            ),
            name=f"prisma.{setup}",
        )
        stage, prefetcher, controller = build_prisma(sim, posix, config)
        if clairvoyant:
            schedule = LookaheadSchedule.from_seed(paths, seed=seed, epochs=epochs)
            prefetcher.install_schedule(schedule)

        served: List[float] = []
        epoch_seconds: List[float] = []

        def consumer(my_paths: List[str]):
            for path in my_paths:
                yield stage.read_whole(path)
                served.append(sim.now)
                if consume_time > 0:
                    yield sim.timeout(consume_time)

        def driver():
            for e in range(epochs):
                start = sim.now
                stage.load_epoch(orders[e])
                procs = [
                    sim.process(
                        consumer(orders[e][c::consumers]), name=f"{setup}.c{c}.e{e}"
                    )
                    for c in range(consumers)
                ]
                yield AllOf(sim, procs)
                epoch_seconds.append(sim.now - start)

        run = sim.process(driver(), name=f"{setup}.driver")
        sim.run(until=AnyOf(sim, [run, sim.timeout(time_limit)]))
        completed = run.triggered and run.ok
        controller.stop()
        tiering = stage.tiering
        end = sim.now
        result = ClairvoyantRun(
            setup=setup,
            completed=completed,
            sim_seconds=end,
            files_served=len(served),
            throughput=len(served) / end if end > 0 else 0.0,
            fast_tier_hit_rate=tiering.fast_tier_hit_rate(),
            tier_hits=int(tiering.counters.get("fast_hits")),
            tier_misses=int(tiering.counters.get("slow_reads")),
            promotions=int(tiering.counters.get("promotions")),
            demotions=int(tiering.counters.get("demotions")),
            lookahead_fetches=prefetcher.lookahead_fetches,
            buffer_hit_rate=prefetcher.buffer.hit_rate(),
            per_epoch_seconds=epoch_seconds,
        )
        if telemetry is not None:
            telemetry.detach()
        sim.close()
        return result

    return ClairvoyantReport(
        seed=seed,
        n_files=n_files,
        file_size=file_size,
        epochs=epochs,
        fast_capacity_bytes=fast_capacity,
        lookahead_epochs=lookahead_epochs,
        reactive=run_one(clairvoyant=False),
        clairvoyant=run_one(clairvoyant=True),
    )


def format_clairvoyant(report: ClairvoyantReport) -> str:
    """ASCII rendering for the ``repro clairvoyant`` CLI command."""
    lines = [
        "clairvoyant vs reactive (seed=%d, %d files × %d epochs, fast tier %.1f MiB)"
        % (
            report.seed,
            report.n_files,
            report.epochs,
            report.fast_capacity_bytes / (1024 * 1024),
        ),
        "  %-24s %14s %14s" % ("", "reactive", "clairvoyant"),
    ]

    def row(label: str, fmt: str, a: object, b: object) -> None:
        lines.append("  %-24s %14s %14s" % (label, fmt % a, fmt % b))

    r, c = report.reactive, report.clairvoyant
    row("completed", "%s", "yes" if r.completed else "NO", "yes" if c.completed else "NO")
    row("sim seconds", "%.4f", r.sim_seconds, c.sim_seconds)
    row("throughput (files/s)", "%.0f", r.throughput, c.throughput)
    row("fast-tier hit rate", "%.1f%%", r.fast_tier_hit_rate * 100, c.fast_tier_hit_rate * 100)
    row("tier hits / misses", "%s", f"{r.tier_hits}/{r.tier_misses}", f"{c.tier_hits}/{c.tier_misses}")
    row("promotions", "%d", r.promotions, c.promotions)
    row("demotions", "%d", r.demotions, c.demotions)
    row("lookahead fetches", "%d", r.lookahead_fetches, c.lookahead_fetches)
    row("buffer hit rate", "%.1f%%", r.buffer_hit_rate * 100, c.buffer_hit_rate * 100)
    lines.append("  speedup (clairvoyant/reactive): %.2fx" % report.speedup)
    return "\n".join(lines)
