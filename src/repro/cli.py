"""Command-line interface: regenerate the paper's figures.

Usage::

    python -m repro figure2 [--quick] [--models lenet alexnet] [--batches 64 256]
    python -m repro figure3 [--quick]
    python -m repro figure4 [--quick] [--workers 0 2 4 8 16]
    python -m repro ablation {autotune,device,period}
    python -m repro faults-demo [--seed N] [--files N]
    python -m repro writes [--quick] [--files N] [--epochs N]
    python -m repro clairvoyant [--files N] [--epochs N] [--lookahead N]
    python -m repro cluster [--quick] [--nodes 128 256 512 1024] [--files N]
    python -m repro predict [--quick] [--samples FILE] [--model-out FILE]
    python -m repro live-demo [--jobs N] [--files N] [--budget N]
    python -m repro trace --experiment figure2 --out trace.json
    python -m repro profile simcore [--top N] [--sort cumulative|tottime|ncalls]
    python -m repro demo

(or the installed ``prisma-repro`` script).

Each experiment is one entry of :data:`EXPERIMENTS`: its flags, its run,
the shared flags it rejects and its representative trial.  One handler
serves every entry; ``trace`` runs an entry's trial with a telemetry hub
and ``profile`` runs it under cProfile.

The shared flags are ``--seed N``, ``--out FILE`` (results as JSON;
``--json`` is a deprecated spelling), ``--trace FILE`` (Chrome-trace of
the run, load in ``chrome://tracing`` or Perfetto), and ``--quiet``
(suppress charts and progress chatter).  A command exits with status 2
when given one of the first three that it rejects.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: The shared flags a command may reject, in the order they are checked.
_SHARED = ("trace", "seed", "out")

#: ``writes --quick``: the smaller matrix, also the profiled trial.
_WRITES_QUICK = dict(n_files=320, epochs=1, ckpt_every=4, ckpt_bytes=48_000_000)
#: ``predict --quick``: the smaller sweep and workload, also the profiled trial.
_PREDICT_QUICK = dict(n_files=64, epochs=2, sweep_n_files=32)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _progress(args):
    """The per-trial progress callback under ``--verbose``, else ``None``."""
    if not args.verbose or args.quiet:
        return None

    def report(trial) -> None:
        workers = f" w={trial.num_workers}" if trial.num_workers is not None else ""
        print(
            f"  ran {trial.model}/{trial.setup} bs={trial.batch_size}{workers}: "
            f"{trial.paper_equivalent_seconds:.0f}s (paper-equivalent)",
            file=sys.stderr,
            flush=True,
        )

    return report


def _unsupported(args, command: str, rejects) -> Optional[int]:
    """Fail fast when a shared flag that ``command`` rejects was given."""
    for flag in _SHARED:
        if flag in rejects and getattr(args, flag, None):
            print(f"error: --{flag} is not supported for {command!r}", file=sys.stderr)
            return 2
    return None


def _sizes(args, quick: Dict[str, int]) -> Dict[str, int]:
    """Runner sizes: ``quick`` under ``--quick``, then ``--files``/``--epochs``."""
    sizes = dict(quick) if args.quick else {}
    if args.files is not None:
        sizes["n_files"] = args.files
    if args.epochs is not None:
        sizes["epochs"] = args.epochs
    return sizes


def _served(report) -> str:
    """One cluster-serving run in a line."""
    return (
        f"n={report.n_nodes}: {report.requests} requests, "
        f"{report.backing_reads} backing reads, "
        f"hit rate {report.cluster_hit_rate:.1%}"
    )


# -- experiment runs: (args, telemetry) -> (text, --out document, exit status) ------
def _figure2(args, telemetry):
    from .experiments import figure2_scale, run_figure2
    from .experiments.export import figure2_to_dict
    from .experiments.figure2 import DEFAULT_MODELS
    from .experiments.report import figure2_chart, format_figure2
    from .frameworks.models import get_model

    models = tuple(get_model(m) for m in args.models) if args.models else DEFAULT_MODELS
    batches = tuple(args.batches) if args.batches else (64, 128, 256)
    scale = figure2_scale(quick=args.quick)
    result = run_figure2(
        scale=scale,
        models=models,
        batch_sizes=batches,
        progress=_progress(args),
        base_seed=args.seed,
        telemetry=telemetry,
    )
    text = format_figure2(result)
    if not args.quiet:
        text += "\n\n" + figure2_chart(result, batch_size=batches[-1])
    return text, figure2_to_dict(result, scale), 0


def _figure3(args, telemetry):
    from .experiments import figure2_scale, run_figure3
    from .experiments.export import figure3_to_dict
    from .experiments.report import figure3_chart, format_figure3

    scale = figure2_scale(quick=args.quick)
    result = run_figure3(
        scale=scale, progress=_progress(args), base_seed=args.seed, telemetry=telemetry
    )
    text = format_figure3(result)
    if not args.quiet:
        text += "\n\n" + figure3_chart(result)
    return text, figure3_to_dict(result, scale), 0


def _figure4(args, telemetry):
    from .experiments import figure4_scale, run_figure4
    from .experiments.export import figure4_to_dict
    from .experiments.report import figure4_chart, format_figure4

    scale = figure4_scale(quick=args.quick)
    result = run_figure4(
        scale=scale,
        worker_counts=tuple(args.workers) if args.workers else (0, 2, 4, 8, 16),
        progress=_progress(args),
        base_seed=args.seed,
        telemetry=telemetry,
    )
    text = format_figure4(result)
    if not args.quiet:
        text += "\n\n" + figure4_chart(result)
    return text, figure4_to_dict(result, scale), 0


def _ablation(args, telemetry):
    from .experiments.ablation import (
        autotune_point,
        best_static,
        control_period_sensitivity,
        device_sensitivity,
        static_grid,
    )
    from .experiments.report import format_ablation

    if args.which == "autotune":
        auto = autotune_point()
        grid = static_grid()
        text = format_ablation(
            "Auto-tune vs static grid", [auto] + grid, baseline=best_static(grid)
        )
    elif args.which == "device":
        text = format_ablation("Device sensitivity", device_sensitivity())
    else:
        text = format_ablation("Control-period sensitivity", control_period_sensitivity())
    return text, None, 0


def _distributed(args, telemetry):
    from .experiments.extensions import format_distributed_sweep, run_distributed_sweep

    nodes = tuple(args.nodes) if args.nodes else (1, 2, 4)
    return format_distributed_sweep(run_distributed_sweep(node_counts=nodes)), None, 0


def _multitenant(args, telemetry):
    from .experiments.extensions import format_multitenant, run_multitenant_comparison

    return format_multitenant(run_multitenant_comparison(n_jobs=args.jobs)), None, 0


def _latency(args, telemetry):
    from .experiments.extensions import format_latency, run_latency_comparison

    return format_latency(run_latency_comparison()), None, 0


def _faults_demo(args, telemetry):
    from .experiments.faults import format_fault_sweep, run_fault_sweep

    report = run_fault_sweep(seed=args.seed, n_files=args.files, telemetry=telemetry)
    return format_fault_sweep(report), report.metrics_dict(), 0 if report.completed else 1


def _writes(args, telemetry):
    from .experiments.writes import format_writes, run_write_workloads

    report = run_write_workloads(
        seed=args.seed, telemetry=telemetry, **_sizes(args, _WRITES_QUICK)
    )
    return format_writes(report), report.metrics_dict(), 0


def _cluster(args, telemetry):
    from .experiments.cluster import format_cluster_sweep, run_cluster_sweep

    nodes = (16, 32, 64) if args.quick else (128, 256, 512, 1024)
    reports = run_cluster_sweep(
        node_counts=tuple(args.nodes) if args.nodes else nodes,
        seed=args.seed,
        n_files=args.files if args.files is not None else (256 if args.quick else 1024),
        epochs=args.epochs,
        telemetry=telemetry,
        progress=None if args.quiet else lambda r: _note(args, f"  ran {_served(r)}"),
    )
    status = 0 if all(r.completed for r in reports) else 1
    return format_cluster_sweep(reports), [r.metrics_dict() for r in reports], status


def _clairvoyant(args, telemetry):
    from .experiments.clairvoyant import format_clairvoyant, run_clairvoyant_comparison

    report = run_clairvoyant_comparison(
        seed=args.seed,
        n_files=args.files,
        epochs=args.epochs,
        lookahead_epochs=args.lookahead,
        telemetry=telemetry,
    )
    status = 0 if report.reactive.completed and report.clairvoyant.completed else 1
    return format_clairvoyant(report), report.metrics_dict(), status


def _predict(args, telemetry):
    """Predictive vs reactive control head-to-head (sweep → fit → jump)."""
    from .experiments.predictive import format_predictive, run_predictive_comparison

    report = run_predictive_comparison(seed=args.seed, **_sizes(args, _PREDICT_QUICK))
    if args.samples:
        from .perfmodel import write_samples_jsonl

        write_samples_jsonl(report.samples, args.samples)
        _note(args, f"wrote {args.samples} ({len(report.samples)} sweep samples)")
    if args.model_out and report.model is not None:
        report.model.save(args.model_out)
        _note(args, f"wrote {args.model_out}")
    ok = all(r.live_parity and not r.fell_back for r in report.results)
    return format_predictive(report), report.metrics_dict(), 0 if ok else 1


def _live_demo(args, telemetry):
    """Live PRISMA with global coordination: real threads, real files.

    Builds ``--jobs`` prefetcher pools over temporary on-disk datasets and
    registers them all with ONE live controller running a
    :class:`FairShareGlobalPolicy` — the same kernel, policies, and
    telemetry as the simulated control plane, driving actual I/O.  Control
    cycles are stepped deterministically between reads so the printed
    allocation is reproducible.
    """
    import os
    import tempfile

    from .core.live import LiveController, LivePrefetcher
    from .multitenant.fairness import FairShareGlobalPolicy

    policy = FairShareGlobalPolicy(
        total_producer_budget=args.budget, per_job_cap=max(args.budget - 1, 1)
    )
    controller = LiveController(global_policy=policy, telemetry=telemetry)
    prefetchers = [
        LivePrefetcher(producers=1, buffer_capacity=8, max_producers=args.budget,
                       name=f"job{j}.pf")
        for j in range(args.jobs)
    ]
    for pf in prefetchers:
        controller.register(pf)

    with tempfile.TemporaryDirectory(prefix="prisma-live-") as root:
        datasets = []
        for job, pf in enumerate(prefetchers):
            paths = []
            for i in range(args.files):
                path = os.path.join(root, f"job{job}_{i:05d}.bin")
                with open(path, "wb") as fh:
                    fh.write(b"\x5a" * 4096)
                paths.append(path)
            datasets.append(paths)
            pf.load_epoch(paths)
        try:
            # Interleave the tenants' reads, running one control cycle per
            # round — the global policy reallocates the thread budget as
            # every tenant's demand becomes visible.
            for i in range(args.files):
                for pf, paths in zip(prefetchers, datasets):
                    pf.read(paths[i], timeout=30.0)
                if (i + 1) % 4 == 0:
                    controller.run_cycle()
            controller.run_cycle()
        finally:
            for pf in prefetchers:
                pf.close()

    summary = {
        "jobs": [
            {
                "name": pf.name,
                "files": pf.files_fetched,
                "hit_rate": pf.buffer.hit_rate(),
                "producers": pf.target_producers,
            }
            for pf in prefetchers
        ],
        "control": {
            "cycles": controller.cycles,
            "enforcements": controller.enforcements,
            "rpc_failures": controller.rpc_failures,
        },
    }
    lines = [
        f"live PRISMA, {args.jobs} tenants under one global controller "
        f"(budget={args.budget} producer threads):"
    ]
    for job in summary["jobs"]:
        lines.append(
            f"  {job['name']}: {job['files']} files prefetched, "
            f"hit rate {job['hit_rate']:.0%}, final producers {job['producers']}"
        )
    ctl = summary["control"]
    lines.append(
        f"  control: {ctl['cycles']} cycles, {ctl['enforcements']} enforcements, "
        f"{ctl['rpc_failures']} rpc failures"
    )
    return "\n".join(lines), summary, 0


# -- representative trials: (seed, telemetry) -> the headline ``trace`` prints ------
def _tf_trial(seed, telemetry):
    from .experiments import figure2_scale
    from .experiments.runner import run_tf_trial
    from .frameworks.models import LENET

    trial = run_tf_trial(
        "tf-prisma", LENET, 256, figure2_scale(quick=True), seed=seed, telemetry=telemetry
    )
    return (
        f"traced tf-prisma/lenet bs=256: "
        f"{trial.paper_equivalent_seconds:.0f}s (paper-equivalent)"
    )


def _torch_trial(seed, telemetry):
    from .experiments import figure4_scale
    from .experiments.runner import run_torch_trial
    from .frameworks.models import LENET

    trial = run_torch_trial(
        "torch-prisma", LENET, 256, 2, figure4_scale(quick=True),
        seed=seed, telemetry=telemetry,
    )
    return (
        f"traced torch-prisma/lenet bs=256 w=2: "
        f"{trial.paper_equivalent_seconds:.0f}s (paper-equivalent)"
    )


def _fault_trial(seed, telemetry):
    from .experiments.faults import run_fault_sweep

    report = run_fault_sweep(seed=seed, telemetry=telemetry)
    return (
        f"traced fault sweep: served {report.files_served} files, "
        f"{report.serve_failures} failures"
    )


def _writes_trial(seed, telemetry):
    from .experiments.writes import run_write_workloads

    report = run_write_workloads(seed=seed, telemetry=telemetry, **_WRITES_QUICK)
    checkpoints = sum(t.checkpoints for t in report.trials)
    return f"traced write matrix: {len(report.trials)} trials, {checkpoints} checkpoints"


def _cluster_trial(seed, telemetry):
    from .experiments.cluster import run_cluster_serving

    report = run_cluster_serving(
        seed, n_nodes=64, n_files=512, epochs=2, telemetry=telemetry
    )
    return f"traced cluster serving {_served(report)}"


def _clairvoyant_trial(seed, telemetry):
    from .experiments.clairvoyant import run_clairvoyant_comparison

    report = run_clairvoyant_comparison(seed=seed, telemetry=telemetry)
    return (
        f"traced clairvoyant comparison: reactive {report.reactive.sim_seconds:.3f}s, "
        f"clairvoyant {report.clairvoyant.sim_seconds:.3f}s (simulated)"
    )


def _predict_trial(seed, telemetry) -> None:
    # Profiled only: predict rejects --trace, and so ``trace`` rejects it.
    from .experiments.predictive import run_predictive_comparison

    run_predictive_comparison(seed=seed, **_PREDICT_QUICK)


def _simcore_trial(seed, telemetry) -> None:
    from .simcore import Simulator
    from .simcore.workloads import canonical_mixed_workload

    sim = Simulator()
    canonical_mixed_workload(sim, scale=8)
    sim.run()


# -- the table ------------------------------------------------------------------------
#: ``(description, fn(seed, telemetry) -> headline)``
_Trial = Tuple[str, Callable[[int, Any], Optional[str]]]


class _Experiment(NamedTuple):
    """One experiment subcommand, declared once (keyed by its name)."""

    help: str
    #: ``run(args, telemetry)`` -> (text for stdout, ``--out`` document, exit
    #: status); ``telemetry`` is a hub under ``--trace``, else ``None``
    run: Callable[[argparse.Namespace, Any], Tuple[str, Any, int]]
    #: its own argparse arguments, each ``(names, keywords)``
    flags: Tuple[Tuple[Tuple[str, ...], Dict[str, Any]], ...] = ()
    #: the shared flags it rejects, from ``_SHARED``
    rejects: Tuple[str, ...] = ()
    #: what ``trace`` runs with a hub and ``profile`` under cProfile
    trial: Optional[_Trial] = None


def _flag(*names: str, **keywords: Any):
    return names, keywords


_QUICK = _flag("--quick", action="store_true")
_TF_TRIAL: _Trial = ("one quick-scale tf-prisma trial", _tf_trial)

EXPERIMENTS: Dict[str, _Experiment] = {
    "figure2": _Experiment(
        "TF baseline/optimized/PRISMA training times", _figure2,
        flags=(
            _flag("--quick", action="store_true", help="coarser scale, 1 epoch"),
            _flag("--models", nargs="+", choices=["lenet", "alexnet", "resnet50"]),
            _flag("--batches", nargs="+", type=int),
        ),
        trial=_TF_TRIAL,
    ),
    "figure3": _Experiment(
        "concurrent-reader-thread CDFs", _figure3, flags=(_QUICK,), trial=_TF_TRIAL
    ),
    "figure4": _Experiment(
        "PyTorch worker sweep vs PRISMA", _figure4,
        flags=(_QUICK, _flag("--workers", nargs="+", type=int)),
        trial=("one quick-scale torch-prisma trial, 2 workers", _torch_trial),
    ),
    "ablation": _Experiment(
        "design-choice ablations", _ablation,
        flags=(_flag("which", choices=["autotune", "device", "period"]),),
        rejects=_SHARED,
    ),
    "distributed": _Experiment(
        "multi-node training over a shared PFS", _distributed,
        flags=(_flag("--nodes", nargs="+", type=int),), rejects=_SHARED,
    ),
    "multitenant": _Experiment(
        "N jobs on shared storage, 3 control modes", _multitenant,
        flags=(_flag("--jobs", type=int, default=3),), rejects=_SHARED,
    ),
    "latency": _Experiment(
        "per-read latency distribution, baseline vs PRISMA", _latency, rejects=_SHARED
    ),
    "faults-demo": _Experiment(
        "PRISMA under an injected fault storm", _faults_demo,
        flags=(_flag("--files", type=int, default=600),),
        trial=("the default fault storm over 600 files", _fault_trial),
    ),
    "writes": _Experiment(
        "checkpoint write traffic vs the read path, POSIX and object store", _writes,
        flags=(
            _flag("--files", type=int, help="training files (default 640)"),
            _flag("--epochs", type=int, help="epochs (default 2)"),
            _flag("--quick", action="store_true", help="smaller matrix for a fast look"),
        ),
        trial=("checkpoint write workloads, 320 files", _writes_trial),
    ),
    "cluster": _Experiment(
        "sharded peer-to-peer sample serving, cooperative-cache sweep", _cluster,
        flags=(
            _flag(
                "--nodes", nargs="+", type=int,
                help="cluster sizes to sweep (default 128 256 512 1024)",
            ),
            _flag(
                "--files", type=int, help="catalog size (default 1024; 256 with --quick)"
            ),
            _flag("--epochs", type=int, default=2),
            _flag(
                "--quick", action="store_true", help="small node counts for a fast look"
            ),
        ),
        trial=("peer-to-peer serving, 64 nodes / 512 files", _cluster_trial),
    ),
    "clairvoyant": _Experiment(
        "reactive vs clairvoyant prefetching over the tier hierarchy", _clairvoyant,
        flags=(
            _flag("--files", type=int, default=200),
            _flag("--epochs", type=int, default=3),
            _flag(
                "--lookahead", type=int, default=2,
                help="epochs of cross-epoch prefetch for the clairvoyant run",
            ),
        ),
        trial=("reactive vs clairvoyant tiering comparison", _clairvoyant_trial),
    ),
    "predict": _Experiment(
        "predictive vs reactive control: sweep, fit, jump to the optimum", _predict,
        flags=(
            _flag("--files", type=int, help="comparison files (default 128)"),
            _flag("--epochs", type=int, help="comparison epochs (default 3)"),
            _flag(
                "--quick", action="store_true",
                help="smaller sweep and workload for a fast look",
            ),
            _flag(
                "--samples", metavar="FILE",
                help="also write the sweep's training samples as JSONL",
            ),
            _flag(
                "--model-out", metavar="FILE",
                help="also write the fitted throughput model as JSON",
            ),
        ),
        rejects=("trace",),
        trial=("predictive-control sweep + head-to-head comparison", _predict_trial),
    ),
    "live-demo": _Experiment(
        "live PRISMA: N real prefetcher pools under one global controller", _live_demo,
        flags=(
            _flag("--files", type=int, default=32, help="files per tenant"),
            _flag("--jobs", type=int, default=2, help="tenant count"),
            _flag(
                "--budget", type=int, default=6,
                help="cluster-wide producer-thread budget",
            ),
        ),
        rejects=("seed",),
    ),
}

#: ``trace``'s experiments: every entry with a representative trial.
_TRIALS: Dict[str, _Trial] = {
    name: entry.trial for name, entry in EXPERIMENTS.items() if entry.trial is not None
}
#: ``profile``'s workloads: the kernel alone, then every experiment's trial.
_PROFILES: Dict[str, _Trial] = {
    "simcore": ("canonical mixed kernel workload (scale=8)", _simcore_trial),
    **_TRIALS,
}


# -- handlers -------------------------------------------------------------------------
def _run_experiment(name: str, entry: _Experiment, args) -> int:
    """Run one entry: the hub, the trace file, ``--out``, the text, the status."""
    code = _unsupported(args, name, entry.rejects)
    if code is not None:
        return code
    from .telemetry import Telemetry, write_chrome_trace

    telemetry = Telemetry() if args.trace else None
    text, document, status = entry.run(args, telemetry)
    if telemetry is not None:
        stats = write_chrome_trace(telemetry, args.trace)
        _note(args, f"wrote {args.trace} ({stats['events']} trace events)")
    if args.out:
        from .experiments.export import dump_json

        dump_json(document, args.out)
        _note(args, f"wrote {args.out}")
    print(text)
    return status


def _cmd_trace(args) -> int:
    """One experiment's representative trial, traced to a Chrome-trace file."""
    code = _unsupported(args, "trace", ("trace",))
    if code is None:
        # The traced trial stands in for the experiment's own --trace.
        rejects = EXPERIMENTS[args.experiment].rejects
        code = _unsupported(argparse.Namespace(trace=True), args.experiment, rejects)
    if code is not None:
        return code
    from .telemetry import Telemetry, write_chrome_trace

    _, trial = _TRIALS[args.experiment]
    out = args.out or "trace.json"
    telemetry = Telemetry()
    headline = trial(args.seed, telemetry)
    stats = write_chrome_trace(telemetry, out)
    if not args.quiet:
        print(headline)
        print(
            f"wrote {out}: {stats['events']} trace events "
            f"({stats['unfinished_spans']} unfinished, "
            f"{stats['dropped_events']} dropped)"
        )
    return 0


def _cmd_demo(_args) -> int:
    from . import quick_demo

    print(quick_demo())
    return 0


def _cmd_profile(args) -> int:
    """cProfile a named benchmark workload; print the hottest functions."""
    code = _unsupported(args, "profile", _SHARED)
    if code is not None:
        return code
    import cProfile
    import importlib
    import pkgutil
    import pstats

    import repro

    # Load numpy and every module first, so the report shows the workload
    # rather than the lazy imports its first run would make.
    names = ["numpy", "numpy.random"] + [
        module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")
        if not module.name.endswith("__main__")
    ]
    for name in names:
        importlib.import_module(name)
    description, trial = _PROFILES[args.workload]
    _note(args, f"profiling {args.workload!r}: {description}")
    profiler = cProfile.Profile()
    profiler.enable()
    trial(0, None)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


def _shared_flags() -> argparse.ArgumentParser:
    """Parent parser carried by every experiment subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument(
        "--out", "--json", dest="out", metavar="FILE",
        help="also write results as JSON (--json is the deprecated spelling)",
    )
    common.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome-trace (chrome://tracing / Perfetto) of the run",
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress charts and progress chatter"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prisma-repro",
        description="Reproduce the PRISMA (CLUSTER 2021) evaluation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="per-trial progress")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _shared_flags()

    for name, entry in EXPERIMENTS.items():
        p = sub.add_parser(name, parents=[common], help=entry.help)
        for names, keywords in entry.flags:
            p.add_argument(*names, **keywords)
        p.set_defaults(func=partial(_run_experiment, name, entry))

    pt = sub.add_parser(
        "trace", parents=[common],
        help="run one representative traced trial, write a Chrome-trace",
    )
    pt.add_argument(
        "--experiment",
        choices=list(_TRIALS),
        default=next(iter(_TRIALS)),  # the Figure-2 trial
        help="which experiment family to trace",
    )
    pt.set_defaults(func=_cmd_trace)

    pd = sub.add_parser("demo", help="tiny PRISMA-vs-baseline smoke demo")
    pd.set_defaults(func=_cmd_demo)

    pp = sub.add_parser(
        "profile", parents=[common],
        help="cProfile a named benchmark workload, dump the hottest functions",
    )
    pp.add_argument(
        "workload",
        choices=list(_PROFILES),
        help="which canonical workload to profile",
    )
    pp.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="number of functions to print (default 25)",
    )
    pp.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"],
        default="cumulative", help="pstats sort key (default cumulative)",
    )
    pp.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.time()
    code = args.func(args)
    if args.verbose and not getattr(args, "quiet", False):
        print(f"[done in {time.time() - start:.1f}s wall]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
