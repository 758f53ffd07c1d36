"""One repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat, so set-up time and peak
memory belong to a single workload::

    python3 benchmarks/suite/measure.py '{"workload": "cluster-read", "seed": 0,
        "budget_s": 6.0, "trace": false, "spawned_at": <time.monotonic()>}'

It prints one JSON object on its last line of standard output.

The timed phase is the time spent inside ``Simulator.run`` (simulated
workloads) or in each session of reads (live workload); set-up is
everything from the parent's spawn until the first timed segment begins.
Both are reported at a reference interpreter speed (see :class:`Timer`).
Iterations repeat until the budget is spent, at least one.

A traced repeat (``"trace": true``) records spans throughout, profiles its
second iteration under cProfile, and counts the processes each layer
spawns and the kernel events it runs in that iteration; the unprofiled
iterations give ``trace.overhead`` its denominator.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import threading
import time
from collections import Counter, deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: where the live workload writes its sample files, inside the checkout
WORK_DIR = ROOT / ".bench_work"

#: this repository's modules, as the benchmark groups them
LAYERS = (
    "simcore", "storage", "prefetch", "tiering", "cluster", "rpc", "control",
    "live", "frameworks", "telemetry", "harness", "python",
)
_PREFETCH_FILES = {
    "__init__.py", "prefetcher.py", "buffer.py", "filename_queue.py", "stage.py",
    "optimization.py", "schedule.py", "shared.py",
}
_TOP_LEVEL = {
    "simcore": "simcore", "storage": "storage", "cluster": "cluster",
    "frameworks": "frameworks", "telemetry": "telemetry", "metrics": "telemetry",
}


def layer_of(filename: str, package_dir: str) -> str:
    """The layer that owns a source file; ``python`` outside the package."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return "python"
    parts = filename[len(prefix):].split(os.sep)
    if parts[0] in _TOP_LEVEL:
        return _TOP_LEVEL[parts[0]]
    if parts[0] != "core" or len(parts) < 2:
        return "harness"
    if parts[1] == "control":
        return "rpc" if parts[-1] == "rpc.py" else "control"
    if parts[1] == "live":
        return "live"
    if parts[1] == "integrations":
        return "frameworks"
    if parts[1] == "tiering.py":
        return "tiering"
    return "prefetch" if parts[1] in _PREFETCH_FILES else "harness"


#: seconds ``calibration_loop`` takes at the reference speed (a quiet
#: 2-vCPU container); timed phases are reported at this speed
CALIBRATION_REF_S = 0.005
#: the simulated workloads slow down by about this power of the
#: calibration loop's slowdown: fitted over 880 segments of cluster-read
#: and ckpt-write while the host's speed varied 2x, where it halved the
#: over-correction of full rescaling when the host is heavily loaded
CALIBRATION_EXPONENT = 0.8


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _accumulate():
    total = 0
    while True:
        total += yield total


def calibration_pool(size: int = 1 << 15) -> List[_Item]:
    """Objects for the calibration loop to walk: a working set of ~1.5 MB."""
    return [_Item(i & 511, i) for i in range(size)]


def _calibration_work(pool: List[_Item], steps: int) -> float:
    start = time.monotonic()
    acc = _accumulate()
    next(acc)
    table: Dict[int, int] = {}
    queue: deque = deque()
    mask = len(pool) - 1
    j = 0
    for _ in range(steps):
        j = (5 * j + 1) & mask  # visits the whole pool, out of address order
        item = pool[j]
        table[item.key] = table.get(item.key, 0) + item.value
        queue.append(item)
        if len(queue) > 64:
            acc.send(queue.popleft().value)
    acc.close()
    return time.monotonic() - start


def calibration_loop(pool: List[_Item], steps: int = 20_000, runs: int = 3) -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The mix (object loads scattered over a 1.5 MB working set, dict
    updates, a deque, generator resumption) is the simulated workloads'
    own, so it slows down with them when the host is busy.  The
    fastest of a few runs, with the cyclic collector paused, so that a
    collection of the previous iteration's garbage or a moment off the CPU
    does not pass for a slow machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return min(_calibration_work(pool, steps) for _ in range(runs))
    finally:
        if collecting:
            gc.enable()


class Timer:
    """Records the timed segments and the machine's speed around each.

    On a shared host the interpreter's speed drifts by tens of percent over
    minutes, more than the regressions the benchmark must catch.  So the
    calibration loop runs before the first timed segment and after every
    segment, and :meth:`speed` rescales a segment to the reference speed by
    the median of the ``WINDOW`` readings on each side of it, raised to
    ``CALIBRATION_EXPONENT``: drift slower than a few segments cancels, and
    a burst that slows one short reading far more than the segment beside
    it does not.  The calibration is not timed, and is skipped while
    ``calibrating`` is off (under the profiler).
    """

    WINDOW = 3

    def __init__(self) -> None:
        #: when set-up ended: the start of the first timed segment
        self.setup_end: Optional[float] = None
        self.calibrating = True
        #: calibration readings, in seconds, in the order taken
        self.readings: List[float] = []
        #: (seconds as measured, index of the reading taken before it)
        self.segments: List[Tuple[float, int]] = []
        self._pool: List[_Item] = []
        self._started = 0.0

    def start(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.monotonic()
            self._pool = calibration_pool()
            self.readings.append(calibration_loop(self._pool))
        self._started = time.monotonic()

    def stop(self) -> None:
        self.segments.append((time.monotonic() - self._started, len(self.readings) - 1))
        if self.calibrating:
            self.readings.append(calibration_loop(self._pool))

    def speed(self, before: int) -> float:
        """Reference seconds per measured second, after reading ``before``.

        ``before = -1`` is set-up, which ends where the first reading starts.
        """
        window = self.readings[max(0, before - self.WINDOW + 1): before + self.WINDOW + 1]
        return (CALIBRATION_REF_S / statistics.median(window)) ** CALIBRATION_EXPONENT


class Spans:
    """Benchmark-side spans, kept in memory and returned at exit."""

    def __init__(self, trace_id: str, prefix: str, parent: Optional[str]) -> None:
        self.trace_id = trace_id
        self.prefix = prefix
        self.records: List[dict] = []
        self._stack: List[Optional[str]] = [parent]
        self._open: Dict[str, tuple] = {}
        self._next = 0

    def begin(self, name: str) -> str:
        span_id = f"{self.prefix}.{self._next}"
        self._next += 1
        self._open[span_id] = (name, self._stack[-1], time.monotonic())
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: str) -> None:
        name, parent, start = self._open.pop(span_id)
        self._stack.remove(span_id)
        self.records.append({
            "name": name, "id": span_id, "parent": parent, "trace_id": self.trace_id,
            "start": start, "end": time.monotonic(), "pid": os.getpid(),
        })


class Probe:
    """Wraps ``Simulator.run`` (always) and ``Simulator.process`` (traced).

    Untraced, the ``run`` wrapper only feeds the timer.  Traced, it also
    records a span per run and, while counting, the kernel events each
    run processed; the ``process`` wrapper buckets every spawned generator
    by the layer that defines it.
    """

    def __init__(self, timer: Timer, spans: Optional[Spans], package_dir: str) -> None:
        from repro.simcore.kernel import Simulator

        self.timer = timer
        self.spans = spans
        self.package_dir = package_dir
        self.counting = False
        self.events = 0
        self.procs: Counter = Counter()
        self._layers: Dict[str, str] = {}
        self._sim = Simulator
        self._run = Simulator.run
        self._process = Simulator.process
        Simulator.run = self._traced_run() if spans is not None else self._timed_run()

    def _timed_run(self):
        run, timer = self._run, self.timer

        def timed_run(sim, until=None):
            timer.start()
            try:
                return run(sim, until)
            finally:
                timer.stop()

        return timed_run

    def _traced_run(self):
        run, timer, spans, probe = self._run, self.timer, self.spans, self

        def traced_run(sim, until=None):
            timer.start()
            span = spans.begin("Simulator.run")
            before = sim.events_processed
            try:
                return run(sim, until)
            finally:
                if probe.counting:
                    probe.events += sim.events_processed - before
                spans.end(span)
                timer.stop()

        return traced_run

    def layer(self, filename: str) -> str:
        layer = self._layers.get(filename)
        if layer is None:
            layer = self._layers[filename] = layer_of(filename, self.package_dir)
        return layer

    def count_processes(self, on: bool) -> None:
        self.counting = on
        if not on:
            self._sim.process = self._process
            return
        process, procs, layer = self._process, self.procs, self.layer

        def counted_process(sim, generator, name=""):
            code = getattr(generator, "gi_code", None)
            procs[layer(code.co_filename) if code is not None else "python"] += 1
            return process(sim, generator, name)

        self._sim.process = counted_process

    def remove(self) -> None:
        self._sim.run = self._run
        self._sim.process = self._process


class ThreadProfiles:
    """cProfile on this thread and on every thread started while enabled."""

    def __init__(self) -> None:
        self.profiles = [cProfile.Profile()]

    def _adopt(self, frame, event, arg) -> None:
        profile = cProfile.Profile()
        self.profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadProfiles":
        threading.setprofile(self._adopt)
        self.profiles[0].enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiles[0].disable()
        threading.setprofile(None)

    def stats(self) -> dict:
        merged = pstats.Stats(self.profiles[0])
        for profile in self.profiles[1:]:
            merged.add(profile)
        return merged.stats


def layer_profile(stats: dict, layer) -> tuple:
    """Self seconds and call counts per layer from cProfile's stats.

    A C built-in has no source file of its own, so its self time and calls
    are charged to the layers of the functions that called it.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (filename, _, _), (_, nc, tt, _, callers) in stats.items():
        if filename == "~" and callers:
            for (caller_file, _, _), (c_nc, _, c_tt, _) in callers.items():
                owner = "python" if caller_file == "~" else layer(caller_file)
                self_s[owner] += c_tt
                calls[owner] += c_nc
        else:
            owner = "python" if filename == "~" else layer(filename)
            self_s[owner] += tt
            calls[owner] += nc
    return self_s, calls


def profile_layers(stats: dict, probe: Probe, requests: int) -> Dict[str, float]:
    """The per-layer shares and per-request counts of one profiled iteration."""
    self_s, calls = layer_profile(stats, probe.layer)
    total_self = sum(self_s.values()) or 1.0
    layers = {"simcore.events_per_request": probe.events / requests}
    for name in LAYERS:
        layers[f"{name}.self_frac"] = self_s[name] / total_self
        layers[f"{name}.calls_per_request"] = calls[name] / requests
        layers[f"{name}.procs_per_request"] = probe.procs[name] / requests
    return layers


def measure(cfg: dict) -> dict:
    """Run one repeat as ``cfg`` describes; returns the JSON-ready result."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"measure.py: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    package_dir = str(Path(repro.__file__).resolve().parent)
    if package_dir != str(SRC / "repro"):
        raise SystemExit(f"measure.py: imported repro from {package_dir}, not {SRC}")
    from workloads import make_workload

    trace = bool(cfg.get("trace"))
    timer = Timer()
    spans = None
    if trace:
        spans = Spans(cfg.get("trace_id", "bench"), str(os.getpid()), cfg.get("parent_span"))
    probe = Probe(timer, spans, package_dir)
    workload = make_workload(cfg["workload"], cfg["seed"], str(WORK_DIR), **cfg.get("size", {}))
    iterations: List[dict] = []
    problems, digests = set(), set()
    layers: Dict[str, float] = {}
    # Traced only: the modelled outcomes and waits of unprofiled iterations.
    modelled: List[Dict[str, float]] = []
    waits: List[float] = []
    started = time.monotonic()
    try:
        while True:
            # A traced repeat profiles its second iteration: the first has
            # filled lazy caches and taken the initial calibration.
            profiled = trace and len(iterations) == 1
            # Each iteration starts from the heap a fresh run would have:
            # the last one's garbage is not collected on this one's clock.
            gc.collect()
            span = spans.begin("iteration") if spans is not None else None
            first_segment = len(timer.segments)
            t0 = time.monotonic()
            if profiled:
                timer.calibrating = False
                probe.count_processes(True)
                with ThreadProfiles() as profiles:
                    outcome = workload.run_once(timer, spans)
                probe.count_processes(False)
                timer.calibrating = True
            else:
                outcome = workload.run_once(timer, spans)
            wall = time.monotonic() - t0
            if span is not None:
                spans.end(span)
            iterations.append({
                "requests": outcome.requests, "failed": outcome.failed,
                "segments": (first_segment, len(timer.segments)), "profiled": profiled,
            })
            problems.update(outcome.problems)
            if outcome.digest is not None:
                digests.add(outcome.digest)
            if profiled:
                layers = profile_layers(profiles.stats(), probe, outcome.requests)
                continue
            if trace:
                modelled.append(outcome.modelled)
                waits += outcome.waits
                if len(iterations) < 3:
                    continue  # the overhead needs an unprofiled iteration after it
            if time.monotonic() - started + wall > cfg["budget_s"]:
                break
    finally:
        workload.close()
        probe.remove()

    for it in iterations:
        segments = timer.segments[slice(*it.pop("segments"))]
        it["raw_s"] = sum(seconds for seconds, _ in segments)
        it["timed_s"] = sum(seconds * timer.speed(before) for seconds, before in segments)
    setup_raw_s = timer.setup_end - cfg["spawned_at"]
    if trace:
        plain = [it["raw_s"] for it in iterations if not it["profiled"]]
        layers["trace.overhead"] = iterations[1]["raw_s"] / statistics.median(plain)
        # Simulated outcomes repeat exactly; live ones vary, so take medians.
        for key in modelled[0]:
            layers[key] = statistics.median(m[key] for m in modelled)
        if waits:
            waits.sort()
            for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
                index = min(int(q * len(waits)), len(waits) - 1)
                layers[f"live.wait_{name}_us"] = waits[index] * 1e6
    return {
        "setup_s": setup_raw_s * timer.speed(-1),
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": iterations,
        "problems": sorted(problems),
        "digests": sorted(digests),
        "layers": layers,
        "spans": spans.records if spans is not None else [],
    }


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
