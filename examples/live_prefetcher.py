#!/usr/bin/env python3
"""Live mode: PRISMA with real threads on real files.

Everything in the other examples is discrete-event simulation; this one is
not.  It writes a small dataset to a temp directory, then reads it back for
several "epochs" two ways:

* serial ``open``/``read`` in consumption order (a num_workers=0 loader);
* through :class:`repro.core.live.LivePrisma` — real producer threads
  prefetching into a bounded buffer, with the *same* auto-tuning policy the
  simulated control plane uses.

Run:  python examples/live_prefetcher.py [n_files] [file_kb]
"""

import os
import random
import sys
import tempfile
import time

from repro.core.live import LivePrisma


def make_dataset(directory: str, n_files: int, file_bytes: int) -> list:
    paths = []
    payload = os.urandom(file_bytes)
    for i in range(n_files):
        path = os.path.join(directory, f"sample{i:06d}.bin")
        with open(path, "wb") as fh:
            fh.write(payload)
        paths.append(path)
    return paths


def epoch_orders(paths: list, epochs: int) -> list:
    rng = random.Random(42)
    orders = []
    for _ in range(epochs):
        order = list(paths)
        rng.shuffle(order)  # the per-epoch shuffle both sides agree on
        orders.append(order)
    return orders


def run_serial(orders: list) -> float:
    start = time.perf_counter()
    for order in orders:
        for path in order:
            with open(path, "rb") as fh:
                while fh.read(1 << 20):
                    pass
    return time.perf_counter() - start


def run_prisma(orders: list) -> float:
    start = time.perf_counter()
    with LivePrisma(
        producers=2, buffer_capacity=64, max_producers=8,
        autotune=True, control_period=0.05,
    ) as prisma:
        for order in orders:
            for _path, data in prisma.iter_epoch(order):
                assert data  # "train" on it
        stats = prisma.stats()
        # The tuner's target; stats()["producers"] counts the live producer
        # threads, none once the last epoch has drained.
        settled = prisma.producers
    elapsed = time.perf_counter() - start
    print(
        f"  [auto-tuner] settled at t={settled} producers, "
        f"N={stats['buffer_capacity']}; buffer hit rate "
        f"{stats['hit_rate']:.0%}"
    )
    return elapsed


def main() -> None:
    n_files = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    file_kb = int(sys.argv[2]) if len(sys.argv) > 2 else 113  # ImageNet mean
    epochs = 3

    with tempfile.TemporaryDirectory(prefix="prisma-live-") as tmp:
        print(f"writing {n_files} x {file_kb} KiB to {tmp} ...")
        paths = make_dataset(tmp, n_files, file_kb * 1024)
        orders = epoch_orders(paths, epochs)

        print(f"\nreading {epochs} shuffled epochs, serial:")
        serial = run_serial(orders)
        print(f"  {serial:.2f} s")

        print(f"\nreading {epochs} shuffled epochs, live PRISMA:")
        prisma = run_prisma(orders)
        print(f"  {prisma:.2f} s")

        if prisma < serial:
            print(f"\nPRISMA was {serial / prisma:.2f}x faster.")
        else:
            print(
                "\nNo speedup — the files are likely already in the OS page "
                "cache (tiny dataset). Try more/bigger files or a cold cache."
            )


if __name__ == "__main__":
    main()
