"""Telemetry overhead: instrumented-but-disabled must cost (almost) nothing.

This PR threads span hooks through every layer of the stack — kernel,
storage, prefetcher, buffer, control plane.  The design contract is that
an *unattached* hub costs one ``sim.telemetry`` attribute load per
instrumented operation and nothing else, so experiment wall time without
``--trace`` must stay within a few percent of the pre-instrumentation
baseline (recorded below when this PR was cut).

Measured workload: one quick-scale Figure-2 ``tf-prisma`` trial — the
heaviest span-emitting path (every file read crosses stage → prefetcher →
buffer → storage, with the control loop running throughout).  Reported:

* ``disabled_median_s`` — telemetry hooks present, no hub attached;
* ``enabled_median_s``  — a hub attached and recording every span;
* ratios against each other and against ``pre_pr_baseline_s``.

Results land in ``BENCH_telemetry.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
Or via pytest: pytest benchmarks/bench_telemetry_overhead.py --benchmark-only
(asserts the same acceptance but leaves the committed report alone)
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.experiments import figure2_scale
from repro.experiments.runner import run_tf_trial
from repro.frameworks.models import LENET
from repro.telemetry import Telemetry

#: Wall-clock median of the same trial at the commit before the current
#: kernel landed (same container, same interpreter).  Re-anchored when
#: the slot-scheduled simcore kernel went in: the trial is wall-clock
#: sensitive, so the baseline must come from the machine the gate runs
#: on — this figure is the pre-slot-kernel commit measured on the same
#: container that recorded the disabled/enabled medians below.
PRE_PR_BASELINE_S = 1.1463014100008877

#: Acceptance: disabled-telemetry runs within 5% of the pre-PR baseline.
#: Machine-to-machine wall-clock drift swamps a tight bound, so the pytest
#: acceptance compares disabled vs enabled on *this* machine and the JSON
#: records the cross-commit ratio for the curious.
MAX_DISABLED_OVERHEAD = 1.05

ROUNDS = 5
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


def _trial(telemetry: Telemetry | None) -> float:
    start = time.perf_counter()
    run_tf_trial(
        "tf-prisma", LENET, 256, figure2_scale(quick=True),
        seed=0, telemetry=telemetry,
    )
    return time.perf_counter() - start


def run_overhead(rounds: int = ROUNDS) -> dict:
    disabled = []
    enabled = []
    events = 0
    for _ in range(rounds):
        disabled.append(_trial(None))
        hub = Telemetry()
        enabled.append(_trial(hub))
        events = len(hub.events) + len(hub.counter_samples)
    disabled_median = statistics.median(disabled)
    enabled_median = statistics.median(enabled)
    return {
        "benchmark": "telemetry_overhead",
        "description": (
            "Wall time of one quick-scale Figure-2 tf-prisma trial: "
            "telemetry hooks compiled in but no hub attached (disabled) vs "
            "a hub recording every span (enabled), against the wall time "
            "of the same trial at the pre-telemetry commit."
        ),
        "workload": "run_tf_trial('tf-prisma', lenet, bs=256, figure2_scale(quick=True))",
        "rounds": rounds,
        "pre_pr_baseline_s": PRE_PR_BASELINE_S,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_median_s": disabled_median,
        "enabled_median_s": enabled_median,
        "events_per_enabled_run": events,
        "disabled_vs_pre_pr": disabled_median / PRE_PR_BASELINE_S,
        "enabled_vs_disabled": enabled_median / disabled_median,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }


def write_report(report: dict, path: Path = OUTPUT) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------- pytest entry
def test_disabled_telemetry_overhead(once):
    report = once(run_overhead)
    assert report["disabled_vs_pre_pr"] <= MAX_DISABLED_OVERHEAD


def main() -> int:
    report = run_overhead()
    write_report(report)
    print(f"pre-PR baseline:   {report['pre_pr_baseline_s']:.3f}s")
    print(f"disabled median:   {report['disabled_median_s']:.3f}s "
          f"({report['disabled_vs_pre_pr']:.3f}x baseline)")
    print(f"enabled median:    {report['enabled_median_s']:.3f}s "
          f"({report['enabled_vs_disabled']:.3f}x disabled, "
          f"{report['events_per_enabled_run']:,} events/run)")
    print(f"wrote {OUTPUT}")
    ok = report["disabled_vs_pre_pr"] <= MAX_DISABLED_OVERHEAD
    print(
        f"acceptance (disabled <= {MAX_DISABLED_OVERHEAD:.2f}x pre-PR): "
        f"{'PASS' if ok else 'FAIL'} ({report['disabled_vs_pre_pr']:.3f}x)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
