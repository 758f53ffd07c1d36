"""Host cost per sample request, end to end and per layer.

Runs the canonical workloads, checks each one's outputs, and prints every
metric by name and unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/suite/run.py --workload cluster-read --seed 1 --seconds 24 --trace 0
    python3 benchmarks/suite/run.py --seed 0 --out a.jsonl     # all four workloads
    python3 benchmarks/suite/run.py --compare a.jsonl b.jsonl

Untraced (``--trace 0``), each workload runs ``REPEATS`` repeats, one
after another, each in a fresh process (``measure.py``) that spends a
third of ``--seconds`` on iterations; the end-to-end metrics are medians
over iterations (``requests_per_s``) or over repeats (``setup_s``,
``peak_rss_mb``).  Traced (``--trace 1``), one repeat profiles an
iteration and reports the per-layer metrics, and ``layers.json`` and a
Chrome trace of the benchmark's spans are written to ``--trace-dir``.

Every load is a closed loop from one process: the simulated workloads are
single-threaded, the live one uses a consumer and one producer thread.

Metric names, units and bounds come from ``BENCHMARK.json`` at the root
of the checkout.  The script exits non-zero, without a result line, when
the program's sources are missing or a repeat fails, and with
``"correct": false`` when an output check fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("cluster-read", "train-tf", "ckpt-write", "live-epoch")
#: fresh-process repeats per untraced workload run
REPEATS = 3
#: wall-clock allowance for one workload run, all its repeats included
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A repeat failed to produce a result."""


def run_repeat(cfg: dict, deadline: float) -> dict:
    """One ``measure.py`` process; returns its parsed result."""
    cfg = dict(cfg, spawned_at=time.monotonic())
    # A fixed hash seed keeps set iteration, and so the profiled call
    # counts, identical across runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['workload']}: repeat ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cfg['workload']}: repeat exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check(workload: str, seed: int, repeats: List[dict], pinned: Dict[str, str]) -> List[str]:
    """Output problems the repeats found, plus the determinism checks."""
    problems = [p for r in repeats for p in r["problems"]]
    digests = sorted({d for r in repeats for d in r["digests"]})
    if len(digests) > 1:
        problems.append(f"iterations of one seed gave {len(digests)} different reports")
    if seed == 0 and workload in pinned and digests != [pinned[workload]]:
        problems.append(
            f"seed-0 report digest {digests} differs from the pinned {pinned[workload]}"
        )
    return problems


def end_to_end(repeats: List[dict], raw: bool = False) -> Dict[str, List[float]]:
    """Per-sample values of each end-to-end metric; the metric is their median.

    Times are at the reference speed unless ``raw``, which gives them as
    the clock read them.
    """
    timed, setup = ("raw_s", "setup_raw_s") if raw else ("timed_s", "setup_s")
    return {
        "requests_per_s": [
            it["requests"] / it[timed] for r in repeats for it in r["iterations"]
        ],
        "setup_s": [r[setup] for r in repeats],
        "peak_rss_mb": [r["peak_rss_mb"] for r in repeats],
    }


def per_layer(repeat: dict, names: List[str]) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload has no such layer."""
    values = dict.fromkeys(names, 0.0)
    values.update(repeat["layers"])
    return {name: values[name] for name in names}


def chrome_trace(spans: List[dict]) -> dict:
    events = [
        {
            "name": s["name"], "ph": "X", "pid": s["pid"], "tid": 0,
            "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
            "args": {"id": s["id"], "parent": s["parent"], "trace_id": s["trace_id"]},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def run_workload(name: str, args, spec: dict, pinned: Dict[str, str]) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    trace_id = f"{name}-seed{args.seed}"
    workload_span = {"name": f"workload {name}", "id": f"{trace_id}.w", "parent": None,
                     "trace_id": trace_id, "pid": os.getpid(), "start": time.monotonic()}
    cfg = {"workload": name, "seed": args.seed, "trace": bool(args.trace),
           "trace_id": trace_id}
    repeats, spans = [], []
    for i in range(1 if args.trace else REPEATS):
        span_id = f"{trace_id}.r{i}"
        start = time.monotonic()
        budget = args.seconds if args.trace else args.seconds / REPEATS
        repeats.append(run_repeat(dict(cfg, budget_s=budget, parent_span=span_id), deadline))
        spans.append({"name": f"repeat {i}", "id": span_id, "parent": workload_span["id"],
                      "trace_id": trace_id, "pid": os.getpid(), "start": start,
                      "end": time.monotonic()})
        spans += repeats[-1]["spans"]
    spans.insert(0, dict(workload_span, end=time.monotonic()))

    problems = check(name, args.seed, repeats, pinned)
    samples: Dict[str, List[float]] = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(repeats[0], names)
    else:
        samples = end_to_end(repeats)
        names = [m["name"] for m in spec["end_to_end"]]
        values = {n: statistics.median(samples[n]) for n in names}
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}")
    for n in names:
        spread = ""
        if n in samples:
            values_n = samples[n]
            spread = f"  [min {min(values_n):.6g}, max {max(values_n):.6g}, n={len(values_n)}]"
        print(f"{name:<12} {n:<34} {values[n]:>14.6g} {units[n]}{spread}")
    raw: Dict[str, List[float]] = {}
    if samples:
        raw = end_to_end(repeats, raw=True)
        print(f"{name:<12} as measured:"
              f" requests_per_s {statistics.median(raw['requests_per_s']):.6g} 1/s,"
              f" setup_s {statistics.median(raw['setup_s']):.6g} s")
    iterations = [it for r in repeats for it in r["iterations"]]
    return {
        "workload": name, "seed": args.seed, "trace": bool(args.trace),
        "correct": not problems,
        "attempted": sum(it["requests"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        "samples": samples, "samples_as_measured": raw, "spans": spans,
    }


# -- comparing two sets of runs ----------------------------------------------------------
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Label set ``b`` against set ``a`` for one metric with a regression bound.

    Worse only by more than the bound counts; when either set's spread
    (interquartile range over median) is wider than the bound the result
    is unresolved, unless every run of ``b`` reads better than every run
    of ``a``.
    """
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    lower = better == "lower"
    worse_by = (qb[1] - qa[1]) / abs(qa[1]) * (1 if lower else -1)
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "within bound"


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    runs: Dict[Tuple[str, str], List[float]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                for metric, m in run["metrics"].items():
                    runs.setdefault((run["workload"], metric), []).append(m["value"])
    return runs


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print both sets per workload and metric; 1 if any bound is not met."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_runs(path_a), load_runs(path_b)
    print(f"{'workload':<12} {'metric':<34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32}  verdict")
    status = 0
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        verdict = "no bound"
        if "bound" in metrics[metric]:
            verdict = judge(a[key], b[key], metrics[metric]["better"], metrics[metric]["bound"])
            status |= verdict != "within bound"
        print(f"{workload:<12} {metric:<34} "
              f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] "
              f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {verdict}"
              f" (n={len(a[key])}/{len(b[key])})")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<12} {key[1]:<34} only in {'A' if key in a else 'B'}")
    return status


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one profiled repeat reporting the per-layer metrics")
    parser.add_argument("--trace-dir", default=str(ROOT / ".bench_trace"),
                        help="where a traced run writes layers.json and trace.json")
    parser.add_argument("--out", help="append each workload's result as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # set-up should not include byte-compiling

    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    try:
        results = [run_workload(w, args, spec, pinned) for w in args.workload or WORKLOADS]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "a") as fh:
            for r in results:
                fh.write(json.dumps({k: v for k, v in r.items() if k != "spans"}) + "\n")
    if args.trace:
        out = Path(args.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        layers = {r["workload"]: {n: m["value"] for n, m in r["metrics"].items()} for r in results}
        (out / "layers.json").write_text(json.dumps(layers, indent=1, sort_keys=True) + "\n")
        spans = [s for r in results for s in r["spans"]]
        (out / "trace.json").write_text(json.dumps(chrome_trace(spans)) + "\n")

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
