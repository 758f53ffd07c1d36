"""Predictive vs reactive control: jump to the optimum instead of climbing.

ROADMAP item 1's deliverable.  For each backend kind the harness

1. runs the seeded **offline sweep** (:mod:`repro.perfmodel.sweep`) over
   the (t, N) grid and fits one :class:`~repro.perfmodel.model.
   ThroughputModel` across all kinds;
2. replays the *same* comparison workload under three policies from the
   same cold start — **oracle-best-static** (the sweep's winning (t, N)
   pinned from period one: the upper bound), **reactive**
   (:class:`~repro.core.PrismaAutotunePolicy` hill-climbing), and
   **predictive** (:class:`~repro.core.PredictivePolicy` jumping to the
   model's argmax, then refining locally);
3. measures, from each trial's per-control-period
   :class:`~repro.core.control.monitor.MetricsHistory`, the **convergence
   time**: the first control period whose trailing-window fetch
   throughput reaches 95 % of the oracle's steady-state rate — the
   paper-style headline is the ratio of reactive to predictive periods;
4. checks **sim/live decision parity**: the predictive trial's recorded
   snapshot series replayed through a fresh simulated
   :class:`~repro.core.control.Controller` and a fresh wall-clock
   :class:`~repro.core.live.LiveController` must produce identical
   applied-settings sequences (one kernel, two drivers).

Everything is seeded and simulation-timed, so the full report is
byte-deterministic — the ``predict`` row of ``benchmarks/gates.py`` gates the
convergence ratio and the determinism of a double run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import (
    PredictivePolicy,
    PrismaAutotunePolicy,
    PrismaConfig,
    StaticPolicy,
    build_prisma,
)
from ..core.control import Controller
from ..core.integrations import PrismaTensorFlowPipeline
from ..core.live import LiveController
from ..dataset.catalog import DatasetCatalog
from ..dataset.shuffle import EpochShuffler
from ..dataset.synthetic import uniform_sizes
from ..frameworks.models import LENET, GpuEnsemble, ModelProfile
from ..frameworks.training import Trainer, TrainingConfig
from ..perfmodel import (
    PerfSample,
    ThroughputModel,
    WorkloadContext,
    sorted_samples,
)
from ..perfmodel.sweep import DEFAULT_DEPTHS, run_offline_sweep
from ..simcore.kernel import Simulator
from ..simcore.random import RandomStreams
from ..storage.backend import BackendConfig, build_backend
from ..storage.posix import PosixLayer

KiB = 1024

#: trailing control periods the convergence metric's throughput window spans
RATE_WINDOW = 3
#: "converged" = windowed throughput within this fraction of oracle steady
CONVERGENCE_FRACTION = 0.95

#: Per-kind feasible thread grids for the sweep.  The POSIX SSD's
#: concurrency curve knees at t≈4 (the paper's Fig. 3 operating point), so
#: its feasible grid stops there; the object store's high-latency link
#: keeps paying for concurrency up to the t=8 producer ceiling.
SWEEP_THREADS_BY_KIND: Dict[str, Tuple[int, ...]] = {
    "posix": (1, 2, 3, 4),
    "object": (1, 2, 3, 4, 6, 8),
}


# ---------------------------------------------------------------- measurement
def windowed_rates(snapshots: Sequence, window: int = RATE_WINDOW) -> List[float]:
    """Per-period trailing-window fetch throughput (bytes/s).

    Entry ``i`` is the rate over periods ``[i - window, i]``; the first
    ``window`` periods have no full window and report 0 — a policy cannot
    "converge" before there is anything to measure.
    """
    rates: List[float] = []
    for i, cur in enumerate(snapshots):
        if i < window:
            rates.append(0.0)
            continue
        base = snapshots[i - window]
        dt = cur.time - base.time
        rates.append((cur.bytes_fetched - base.bytes_fetched) / dt if dt > 0 else 0.0)
    return rates


def steady_rate(rates: Sequence[float]) -> float:
    """Mean windowed throughput over the last half of the run."""
    tail = list(rates)[len(rates) // 2 :]
    return sum(tail) / len(tail) if tail else 0.0


def convergence_period(rates: Sequence[float], target: float) -> Optional[int]:
    """First 1-based control period whose windowed rate reaches ``target``."""
    for i, rate in enumerate(rates):
        if rate >= target:
            return i + 1
    return None


# ---------------------------------------------------------------- trials
@dataclass
class PolicyTrial:
    """One policy's run of the comparison workload."""

    policy: str
    total_periods: int
    steady_throughput: float
    final_producers: int
    final_buffer: int
    sim_seconds: float
    #: filled in once the oracle's steady rate is known
    convergence_periods: Optional[int] = None
    converged: bool = False
    #: the recorded per-period snapshot series (parity replay input; not
    #: part of the deterministic metrics surface)
    snapshots: List = field(default_factory=list, repr=False)

    def metrics_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "total_periods": self.total_periods,
            "steady_throughput": self.steady_throughput,
            "final_producers": self.final_producers,
            "final_buffer": self.final_buffer,
            "sim_seconds": self.sim_seconds,
            "convergence_periods": self.convergence_periods,
            "converged": self.converged,
        }


def run_policy_trial(
    backend_config: BackendConfig,
    policy,
    label: str,
    *,
    seed: int = 0,
    n_files: int = 128,
    file_size: int = 256 * KiB,
    batch_size: int = 32,
    epochs: int = 3,
    control_period: float = 10e-3,
    producers: int = 2,
    buffer_capacity: int = 256,
    model: ModelProfile = LENET,
) -> PolicyTrial:
    """The comparison workload under one policy, from the shared cold start."""
    streams = RandomStreams(seed)
    sim = Simulator()
    backend = build_backend(sim, backend_config, streams=streams)
    catalog = DatasetCatalog("/data/predict", uniform_sizes(n_files, n_files * file_size))
    catalog.materialize(backend)
    posix = PosixLayer(sim, backend)
    stage, prefetcher, controller = build_prisma(
        sim,
        posix,
        PrismaConfig(
            control_period=control_period,
            policy=policy,
            producers=producers,
            buffer_capacity=buffer_capacity,
        ),
    )
    train_src = PrismaTensorFlowPipeline(
        sim, catalog, EpochShuffler(n_files, streams.spawn("shuffle")),
        batch_size, stage, model,
    )
    trainer = Trainer(
        sim, model, GpuEnsemble(sim), train_src,
        TrainingConfig(epochs=epochs, global_batch=batch_size, validate=False),
        setup=f"predict/{backend_config.kind}/{label}",
    )
    result = trainer.run_to_completion()
    controller.stop()
    snapshots = controller.history_for(stage.name).snapshots()
    rates = windowed_rates(snapshots)
    trial = PolicyTrial(
        policy=label,
        total_periods=len(snapshots),
        steady_throughput=steady_rate(rates),
        final_producers=prefetcher.target_producers,
        final_buffer=prefetcher.buffer.capacity,
        sim_seconds=result.total_time,
        snapshots=snapshots,
    )
    sim.close()
    return trial


# ---------------------------------------------------------------- parity
class _ScriptedPort:
    """A StagePort replaying a recorded snapshot series (parity harness)."""

    def __init__(self, name: str, snapshots: Sequence) -> None:
        self.name = name
        self._script = list(snapshots)
        self._calls = 0
        self.applied: List = []

    def control_snapshot(self):
        snap = self._script[min(self._calls, len(self._script) - 1)]
        self._calls += 1
        return [snap]

    def control_apply(self, settings) -> None:
        self.applied.append(settings)


def check_live_parity(snapshots: Sequence, make_policy) -> bool:
    """Replay one recorded run through both control drivers.

    ``make_policy`` builds a *fresh* policy instance per driver (policies
    are stateful).  Parity holds when both drivers apply the identical
    settings sequence — the acceptance criterion that predictive control
    rides the shared kernel rather than forking sim from live.
    """
    if not snapshots:
        return False
    sim = Simulator()
    sim_port = _ScriptedPort("stage", snapshots)
    sim_ctl = Controller(sim, period=1.0)
    sim_ctl.register(sim_port, make_policy())
    sim_ctl.start()
    sim.run(until=len(snapshots) + 0.5)
    sim_ctl.stop()
    sim.close()

    live_port = _ScriptedPort("stage", snapshots)
    live_ctl = LiveController()
    live_ctl.register(live_port, make_policy())
    for _ in range(len(snapshots)):
        live_ctl.run_cycle()

    return bool(sim_port.applied) and sim_port.applied == live_port.applied


# ---------------------------------------------------------------- the report
@dataclass
class PredictiveKindResult:
    """The reactive/predictive/oracle triple for one backend kind."""

    backend_kind: str
    oracle_producers: int
    oracle_buffer: int
    oracle: PolicyTrial
    reactive: PolicyTrial
    predictive: PolicyTrial
    #: (t, N, predicted bytes/s) the predictive policy jumped to
    jumped_to: Optional[Tuple[int, int, float]]
    fell_back: bool
    live_parity: bool

    @property
    def convergence_ratio(self) -> float:
        """Predictive convergence periods / reactive's (lower is better)."""
        if self.reactive.convergence_periods and self.predictive.convergence_periods:
            return self.predictive.convergence_periods / self.reactive.convergence_periods
        return float("inf")

    def metrics_dict(self) -> Dict[str, object]:
        return {
            "backend_kind": self.backend_kind,
            "oracle_producers": self.oracle_producers,
            "oracle_buffer": self.oracle_buffer,
            "oracle": self.oracle.metrics_dict(),
            "reactive": self.reactive.metrics_dict(),
            "predictive": self.predictive.metrics_dict(),
            "jumped_to": list(self.jumped_to) if self.jumped_to else None,
            "fell_back": self.fell_back,
            "live_parity": self.live_parity,
        }


@dataclass
class PredictiveReport:
    """Everything one ``repro predict`` invocation produced."""

    seed: int
    n_files: int
    file_size: int
    batch_size: int
    epochs: int
    control_period: float
    model_rmse_rel: float
    model_samples: int
    results: List[PredictiveKindResult] = field(default_factory=list)
    #: the sweep's training rows (for JSONL export; sorted, deterministic)
    samples: List[PerfSample] = field(default_factory=list, repr=False)
    #: the fitted model (for JSON export)
    model: Optional[ThroughputModel] = field(default=None, repr=False)

    def metrics_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-ready summary (the determinism-gate surface)."""
        return {
            "seed": self.seed,
            "n_files": self.n_files,
            "file_size": self.file_size,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "control_period": self.control_period,
            "model_rmse_rel": self.model_rmse_rel,
            "model_samples": self.model_samples,
            "results": [r.metrics_dict() for r in self.results],
        }


def _best_static(samples: Sequence[PerfSample], kind: str) -> Tuple[int, int]:
    """The sweep's winning (t, N) for one kind — max throughput, lean ties."""
    best: Optional[PerfSample] = None
    for s in sorted_samples(samples):  # ascending (t, N): lean wins ties
        if s.backend_kind != kind:
            continue
        if best is None or s.throughput > best.throughput:
            best = s
    if best is None:
        raise ValueError(f"no sweep samples for backend kind {kind!r}")
    return best.threads, best.prefetch_depth


def run_predictive_comparison(
    seed: int = 0,
    backend_kinds: Sequence[str] = ("posix", "object"),
    *,
    n_files: int = 128,
    file_size: int = 256 * KiB,
    batch_size: int = 32,
    epochs: int = 3,
    control_period: float = 10e-3,
    sweep_threads_by_kind: Optional[Dict[str, Sequence[int]]] = None,
    sweep_depths: Sequence[int] = DEFAULT_DEPTHS,
    sweep_n_files: int = 64,
    sweep_epochs: int = 2,
) -> PredictiveReport:
    """The full head-to-head: sweep → fit → oracle/reactive/predictive.

    The sweep runs on a *smaller* dataset than the comparison workload —
    deliberately: the model must transfer across run sizes, exercising the
    claim that the (t, N) surface is a property of the storage stack, not
    of one run's length.  Thread grids are per backend kind
    (:data:`SWEEP_THREADS_BY_KIND`): each deployment sweeps its own
    feasible range, and the model's per-kind envelope keeps predictions
    inside it.  The 10 ms default control period keeps each measurement
    window longer than an object-store GET (~15 ms service time per
    request, amortized across producers) — shorter windows read bursty
    zero-rates on the high-latency backend and convergence never latches.
    """
    grids = dict(SWEEP_THREADS_BY_KIND)
    grids.update(sweep_threads_by_kind or {})
    configs = [BackendConfig(kind=k) for k in backend_kinds]
    samples: List[PerfSample] = []
    for config in configs:
        samples.extend(
            run_offline_sweep(
                [config],
                threads_grid=grids.get(config.kind, SWEEP_THREADS_BY_KIND["object"]),
                depths_grid=sweep_depths,
                seed=seed,
                n_files=sweep_n_files,
                file_size=file_size,
                batch_size=batch_size,
                epochs=sweep_epochs,
            )
        )
    model = ThroughputModel().fit(samples)

    report = PredictiveReport(
        seed=seed,
        n_files=n_files,
        file_size=file_size,
        batch_size=batch_size,
        epochs=epochs,
        control_period=control_period,
        model_rmse_rel=model.fit_rmse_rel,
        model_samples=model.n_samples,
        samples=sorted_samples(samples),
        model=model,
    )

    trial_kwargs = dict(
        seed=seed, n_files=n_files, file_size=file_size,
        batch_size=batch_size, epochs=epochs, control_period=control_period,
    )
    for config in configs:
        context = WorkloadContext(backend_kind=config.kind, batch_size=batch_size)
        t_star, n_star = _best_static(samples, config.kind)
        oracle = run_policy_trial(
            config, StaticPolicy(producers=t_star, buffer_capacity=n_star),
            "oracle", producers=t_star, buffer_capacity=n_star, **trial_kwargs,
        )
        reactive = run_policy_trial(
            config, PrismaAutotunePolicy(), "reactive", **trial_kwargs
        )
        predictive_policy = PredictivePolicy(model, context)
        predictive = run_policy_trial(
            config, predictive_policy, "predictive", **trial_kwargs
        )

        target = CONVERGENCE_FRACTION * oracle.steady_throughput
        for trial in (oracle, reactive, predictive):
            rates = windowed_rates(trial.snapshots)
            trial.convergence_periods = convergence_period(rates, target)
            trial.converged = trial.convergence_periods is not None
            if trial.convergence_periods is None:
                trial.convergence_periods = trial.total_periods

        parity = check_live_parity(
            predictive.snapshots, lambda: PredictivePolicy(model, context)
        )
        report.results.append(
            PredictiveKindResult(
                backend_kind=config.kind,
                oracle_producers=t_star,
                oracle_buffer=n_star,
                oracle=oracle,
                reactive=reactive,
                predictive=predictive,
                jumped_to=predictive_policy.jumped_to,
                fell_back=predictive_policy.fell_back,
                live_parity=parity,
            )
        )
    return report


def format_predictive(report: PredictiveReport) -> str:
    """ASCII rendering for the ``repro predict`` CLI command."""
    MiB = 1024.0 * 1024.0
    lines = [
        "predictive control (seed=%d, %d files x %d B, %d epoch(s), "
        "model rmse=%.1f%% over %d samples)"
        % (
            report.seed, report.n_files, report.file_size, report.epochs,
            100 * report.model_rmse_rel, report.model_samples,
        ),
        "  %-8s %-11s %9s %7s %11s %7s %7s"
        % ("backend", "policy", "conv", "", "steady", "final", ""),
        "  %-8s %-11s %9s %7s %11s %7s %7s"
        % ("", "", "periods", "conv?", "MiB/s", "t", "N"),
    ]
    for r in report.results:
        for trial in (r.oracle, r.reactive, r.predictive):
            lines.append(
                "  %-8s %-11s %9d %7s %11.1f %7d %7d"
                % (
                    r.backend_kind, trial.policy, trial.convergence_periods or 0,
                    "yes" if trial.converged else "no",
                    trial.steady_throughput / MiB,
                    trial.final_producers, trial.final_buffer,
                )
            )
        jumped = (
            "t=%d N=%d" % (r.jumped_to[0], r.jumped_to[1]) if r.jumped_to else "-"
        )
        lines.append(
            "  %-8s predictive jumped to %s; %.2fx reactive's convergence "
            "periods; live parity %s"
            % (
                r.backend_kind, jumped, r.convergence_ratio,
                "ok" if r.live_parity else "BROKEN",
            )
        )
    return "\n".join(lines)


__all__ = [
    "CONVERGENCE_FRACTION",
    "RATE_WINDOW",
    "SWEEP_THREADS_BY_KIND",
    "PolicyTrial",
    "PredictiveKindResult",
    "PredictiveReport",
    "check_live_parity",
    "convergence_period",
    "format_predictive",
    "run_policy_trial",
    "run_predictive_comparison",
    "steady_rate",
    "windowed_rates",
]
