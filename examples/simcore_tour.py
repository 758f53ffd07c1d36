#!/usr/bin/env python3
"""Tour of the discrete-event kernel the whole reproduction runs on.

``repro.simcore`` is a self-contained DES library (generator processes,
events, stores, resources); ``repro.telemetry`` adds the time-weighted
gauge that integrates a value over simulated time.  This walkthrough
builds a tiny M/D/c-style system from scratch — producers, a bounded
queue, parallel servers, a monitor — the same primitives the storage and
framework simulators compose.

Run:  python examples/simcore_tour.py
"""

from repro.simcore import Interrupt, RandomStreams, Simulator, Store
from repro.telemetry import TimeWeightedGauge

ARRIVALS = 200
SERVERS = 3
SERVICE_TIME = 0.9


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(7)
    queue = Store(sim, capacity=10, name="requests")
    busy = TimeWeightedGauge(sim, 0, name="busy-servers")
    completed = []

    # 1) A generator IS a process: yield events to wait on them.
    def arrivals():
        rng = streams.stream("arrivals")
        for job_id in range(ARRIVALS):
            yield sim.timeout(float(rng.exponential(0.35)))
            yield queue.put((job_id, sim.now))  # blocks when the queue is full

    def server(server_id: int):
        while True:
            job_id, arrived = yield queue.get()
            busy.increment()
            try:
                yield sim.timeout(SERVICE_TIME)
            finally:
                busy.decrement()  # an interrupted job frees its server too
            completed.append((job_id, sim.now - arrived))

    # 2) A watchdog process shows interrupts: stop the slow servers at t=55.
    def shutdown(victims):
        yield sim.timeout(55.0)
        for victim in victims:
            victim.interrupt("maintenance window")

    def supervised_server(server_id: int):
        try:
            yield from server(server_id)
        except Interrupt as exc:
            print(f"  server {server_id} stopped at t={sim.now:.1f} ({exc.cause})")

    sim.process(arrivals(), name="arrivals")
    servers = [
        sim.process(supervised_server(i), name=f"server{i}") for i in range(SERVERS)
    ]
    sim.process(shutdown(servers[2:]), name="watchdog")  # retire one server

    # 3) run(until=...) drives the event loop; the clock only exists here.
    sim.run(until=200.0)

    waits = [w for _, w in completed]
    print(f"completed {len(completed)}/{ARRIVALS} jobs by t={sim.now:.0f}")
    print(f"mean sojourn time: {sum(waits) / len(waits):.2f} s")
    # 4) Time-weighted telemetry: how many servers were busy, over time.
    for level, seconds in sorted(busy.histogram().items()):
        print(f"  {int(level)} busy: {seconds:6.1f} s ({busy.time_fraction_at(level):.0%})")


if __name__ == "__main__":
    main()
