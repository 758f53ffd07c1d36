"""Prefetch-buffer scaling: KeyedStore fast path vs FilterStore baseline.

The paper's §IV fast-path claim is that a buffer hit costs a memory copy.
The original buffer backing (:class:`~repro.simcore.resources.FilterStore`)
re-evaluated *every* queued getter against *every* buffered item on each
put/get — O(getters × items) per dispatch, quadratic over an epoch — which
dominates simulated-epoch wall time at the paper's N=256+ buffer sizes and
ImageNet-scale file counts.  The :class:`~repro.simcore.resources.KeyedStore`
backing indexes items by path and parks consumers on per-key waiter lists,
making insert/request/contains O(1).

This bench replays the same workload through both backings — ``N`` resident
(cold) samples plus ``W`` concurrently parked consumers being fed by a
producer — and reports request throughput (completed requests per wall
second).  Results land in ``BENCH_buffer.json`` at the repo root.

Run directly:  PYTHONPATH=src python benchmarks/bench_buffer_scaling.py
Or via pytest: pytest benchmarks/bench_buffer_scaling.py --benchmark-only
(asserts the same acceptance but leaves the committed report alone)
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.buffer import PrefetchBuffer
from repro.simcore import Event, FilterStore, Simulator
from repro.telemetry import CounterSet

#: Buffer sizes to sweep (resident cold items during the measured phase).
SIZES = (64, 256, 1024)
#: Concurrently parked consumers (the acceptance point: 64 @ N=1024).
WAITERS = 64
#: Measured rounds per cell (each round = WAITERS requests), per size.
ROUNDS = {64: 6, 256: 4, 1024: 2}
#: Acceptance target: KeyedStore vs FilterStore at the largest cell.
TARGET_SPEEDUP = 10.0

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_buffer.json"


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


def make_keyed(sim: Simulator, capacity: int) -> PrefetchBuffer:
    return PrefetchBuffer(sim, capacity)


def run_cell(make_buffer, n_items: int, waiters: int, rounds: int) -> dict:
    """One (backend, N) cell: wall-time ``rounds × waiters`` requests.

    The buffer holds ``n_items`` cold samples that are never requested (the
    resident population a real epoch carries), while ``waiters`` consumers
    park on not-yet-produced paths and a producer staggers them in — the
    miss-then-deliver pattern that triggers waiter dispatch on every insert.
    """
    sim = Simulator()
    buf = make_buffer(sim, n_items + waiters + 1)

    def prefill():
        for i in range(n_items):
            yield buf.insert(f"/cold/{i}", i)

    p = sim.process(prefill())
    sim.run(until=p)
    assert p.ok
    progress = {"served": 0}

    def consumer(path):
        _, ev = buf.request(path)
        yield ev
        progress["served"] += 1

    def producer(paths):
        for path in paths:
            yield buf.insert(path, 1)

    def driver():
        for r in range(rounds):
            paths = [f"/round{r}/w{i}" for i in range(waiters)]
            consumers = [sim.process(consumer(path)) for path in paths]
            yield sim.process(producer(paths))
            for c in consumers:
                yield c

    d = sim.process(driver())
    wall0 = time.perf_counter()
    sim.run(until=d)
    seconds = time.perf_counter() - wall0
    requests = rounds * waiters
    assert progress["served"] == requests
    return {
        "n_items": n_items,
        "waiters": waiters,
        "requests": requests,
        "seconds": seconds,
        "throughput_req_per_s": requests / seconds if seconds > 0 else float("inf"),
    }


def run_scaling() -> dict:
    """Sweep both backings over SIZES; returns the full report dict."""
    backends = {
        "filterstore": lambda sim, cap: FilterStoreBuffer(sim, cap),
        "keyedstore": make_keyed,
    }
    results = []
    for n_items in SIZES:
        for backend, factory in backends.items():
            cell = run_cell(factory, n_items, WAITERS, ROUNDS[n_items])
            cell["backend"] = backend
            results.append(cell)

    def throughput(backend, n):
        (cell,) = [
            c for c in results if c["backend"] == backend and c["n_items"] == n
        ]
        return cell["throughput_req_per_s"]

    speedups = {
        str(n): throughput("keyedstore", n) / throughput("filterstore", n)
        for n in SIZES
    }
    return {
        "benchmark": "buffer_scaling",
        "description": (
            "Prefetch-buffer request throughput (completed requests / wall "
            "second) with N resident samples and 64 parked consumers: "
            "KeyedStore backing vs the seed's FilterStore backing."
        ),
        "waiters": WAITERS,
        "sizes": list(SIZES),
        "results": results,
        "speedup_by_size": speedups,
        "speedup_at_1024": speedups["1024"],
        "target_speedup_at_1024": TARGET_SPEEDUP,
    }


def write_report(report: dict, path: Path = OUTPUT) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------- pytest entry
def test_keyed_buffer_speedup(once):
    report = once(run_scaling)
    assert report["speedup_at_1024"] >= TARGET_SPEEDUP


def main() -> int:
    report = run_scaling()
    write_report(report)
    for cell in report["results"]:
        print(
            f"{cell['backend']:>12}  N={cell['n_items']:>5}  "
            f"{cell['requests']} reqs in {cell['seconds']:.3f}s  "
            f"-> {cell['throughput_req_per_s']:,.0f} req/s"
        )
    for n, s in report["speedup_by_size"].items():
        print(f"speedup at N={n}: {s:.1f}x")
    print(f"wrote {OUTPUT}")
    ok = report["speedup_at_1024"] >= TARGET_SPEEDUP
    print(
        f"acceptance (>= {TARGET_SPEEDUP:.0f}x at N=1024): "
        f"{'PASS' if ok else 'FAIL'} ({report['speedup_at_1024']:.1f}x)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
