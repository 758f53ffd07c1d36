"""PRISMA's producers as callbacks against their reference: processes.

``ParallelPrefetcher`` runs each producer as a callback chain
(``_Producer``) and replays a crash as the kernel hops an interrupted
process took.  :class:`ProcessProducers` below runs the producers as the
generator processes they were, each joined by a supervisor callback.
Under the same crash schedule both must serve and fail the same paths at
the same times, requeue the same claims, count the same crashes,
respawns and fetches, leave the same gauge histograms and registry
counters, and end at the same time: with several crashes, crashes before
the first read, mid-read and at insert, transient and fatal read errors,
lookahead, and the shared-dataset prefetcher.

Kernel event counts differ on purpose: a producer process that retires
fires a join event that nothing acts on, and a callback producer has
none.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelPrefetcher, SharedDatasetPrefetcher
from repro.core.prefetcher import _storage_error
from repro.core.schedule import LookaheadSchedule
from repro.simcore import Simulator
from repro.simcore.errors import Interrupt
from repro.storage.device import BlockDevice, intel_p4600, sata_hdd
from repro.storage.filesystem import Filesystem, ReadFault, TransientReadError
from repro.storage.posix import PosixLayer
from repro.telemetry import Telemetry

KiB = 1024


class ProcessProducers:
    """The prefetcher's producers as supervised generator processes."""

    def _spawn_up_to_target(self):
        for worker_id in self._grow_producers():
            proc = self.sim.process(self._producer(worker_id), name=f"{self.name}.p{worker_id}")
            self._producers[worker_id] = proc
            proc.add_callback(lambda p, wid=worker_id: self._on_producer_exit(wid, p))
        self.allocated_producers.set(self._live_producers)

    def crash_producer(self, cause="fault-injection"):
        for worker_id in sorted(self._producers):
            proc = self._producers[worker_id]
            if proc.is_alive:
                proc.interrupt(cause)
                return True
        return False

    def _on_producer_exit(self, worker_id, proc):
        self._producers.pop(worker_id, None)
        if proc.ok:
            return
        self.producer_crashes += 1
        self._release(worker_id)
        if self._wants_producer():
            self.producer_respawns += 1
            self._spawn_up_to_target()

    def _producer(self, worker_id):
        try:
            while True:
                path = self._claim(worker_id)
                if path is None:
                    return
                self.active_producers.increment()
                tel = self.sim.telemetry
                fetch = None
                if tel is not None:
                    fetch = tel.begin(
                        "prefetch.fetch", f"{self.name}.p{worker_id}", "prefetcher", path=path
                    )
                try:
                    payload = nbytes = yield self.backend.read_whole(path)
                except Interrupt:
                    if fetch is not None:
                        tel.end(fetch, outcome="crashed")
                    raise
                except Exception as exc:  # noqa: BLE001 - staged, as the prefetcher does
                    self.read_errors += 1
                    payload, nbytes = _storage_error(exc), None
                    if fetch is not None:
                        tel.end(fetch, outcome="error", error=type(payload).__name__)
                finally:
                    self.active_producers.decrement()
                if fetch is not None and nbytes is not None:
                    tel.end(fetch, outcome="ok", bytes=nbytes)
                insert = self.buffer.insert(path, payload)
                self._settle(worker_id, nbytes)
                yield insert
        finally:
            self._live_producers -= 1
            self.allocated_producers.set(self._live_producers)


class ProcessPrefetcher(ProcessProducers, ParallelPrefetcher):
    pass


class ProcessSharedPrefetcher(ProcessProducers, SharedDatasetPrefetcher):
    pass


FLAVOURS = {
    False: (ParallelPrefetcher, ProcessPrefetcher),
    True: (SharedDatasetPrefetcher, ProcessSharedPrefetcher),
}


def phase(pf, worker_id):
    """Where producer ``worker_id`` waits: not started, on its read, or on
    its insert."""
    producer = pf._producers[worker_id]
    started = producer._started if isinstance(pf, ProcessProducers) else producer.waiting is not None
    if not started:
        return "start"
    return "read" if worker_id in pf._in_flight else "insert"


def run(reference, shared=False, lookahead=0, n=12, producers=2, capacity=4, consumers=1,
        epochs=1, crashes=(), start_crashes=0, errors=False, hdd=False, think=0.0,
        ghost=False, traced=False):
    """One run; returns everything the two flavours must agree on."""
    sim = Simulator()
    tel = Telemetry().attach(sim, process="oracle") if traced else None
    device = BlockDevice(sim, sata_hdd() if hdd else intel_p4600())
    fs = Filesystem(sim, device)
    paths = [f"/d/{i:03d}" for i in range(n)]
    fs.create_many((p, (16 + 8 * (i % 5)) * KiB) for i, p in enumerate(paths))
    orders = [paths[e % 3:] + paths[:e % 3] if e % 2 == 0 else paths[::-1] for e in range(epochs)]
    if ghost:
        # A path the file system lacks: its read raises as it is issued.
        orders = [["/d/ghost"] + order for order in orders]
    if errors:
        reads = {}

        def hook(path, nbytes):
            reads[path] = reads.get(path, 0) + 1
            index = int(path[-3:])
            if index % 7 == 3:
                return ReadFault(error=IOError(f"fatal {path}"))
            if index % 4 == 1 and reads[path] == 1:
                return ReadFault(error=TransientReadError(path), extra_latency=3e-5)
            return None

        fs.fault_hook = hook
    posix = PosixLayer(sim, fs)
    cls = FLAVOURS[shared][reference]
    kwargs = dict(producers=producers, buffer_capacity=capacity, max_producers=4)
    if shared:
        pf = cls(sim, posix, consumers=consumers, **kwargs)
    else:
        pf = cls(sim, posix, lookahead_epochs=lookahead, **kwargs)
        if lookahead:
            pf.install_schedule(LookaheadSchedule(orders))
    log = []
    requeue = pf.queue.requeue

    def logged_requeue(path):
        log.append(("requeue", sim.now, path))
        requeue(path)

    pf.queue.requeue = logged_requeue

    def crash():
        alive = sorted(pf._producers)
        if reference:
            alive = [w for w in alive if pf._producers[w].is_alive]
        where = phase(pf, alive[0]) if alive else None
        log.append(("crash", sim.now, where, pf.crash_producer()))

    for t in crashes:
        sim.at(t, crash)

    def consumer(c, my_paths):
        for path in my_paths:
            if think:
                yield sim.timeout(think)
            try:
                got = yield pf.serve(path)
            except Exception as exc:  # noqa: BLE001 - logged and compared
                got = type(exc).__name__
            log.append(("serve", sim.now, c, path, got))

    def driver():
        for order in orders:
            pf.on_epoch(order)
            for _ in range(start_crashes):
                crash()
            if shared:
                shares = [order] * consumers
            else:
                shares = [order[c::consumers] for c in range(consumers)]
            yield sim.all_of([sim.process(consumer(c, s)) for c, s in enumerate(shares)])
        log.append(("done", sim.now))

    sim.process(driver())
    sim.run()
    spans = None
    if tel is not None:
        spans = [
            (e.name, e.track, e.category, e.start, e.end, sorted(e.args.items(), key=str))
            for e in tel.events
        ]
    return {
        "log": log,
        "end": sim.now,
        "counts": (
            pf.producer_crashes, pf.producer_respawns, pf.files_fetched, pf.bytes_fetched,
            pf.read_errors, pf.serve_retries, pf.lookahead_fetches, pf._live_producers,
        ),
        "gauges": (
            pf.active_producers.histogram(), pf.allocated_producers.histogram(),
            pf.buffer.occupancy.histogram(), device._read_channel.concurrency.histogram(),
        ),
        "metrics": sim.metrics.collect(),
        "spans": spans,
    }


def same(**scenario):
    callbacks = run(False, **scenario)
    processes = run(True, **scenario)
    assert callbacks == processes
    return callbacks


def crash_phases(outcome):
    return [entry[2] for entry in outcome["log"] if entry[0] == "crash" and entry[3]]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("ghost", [False, True])
def test_crash_before_the_first_read(shared, ghost):
    # With ``ghost`` the victim's first read fails as it is issued, so it
    # stages the error and dies at its insert instead.
    outcome = same(shared=shared, consumers=2, start_crashes=1, producers=2, epochs=2,
                   ghost=ghost)
    assert crash_phases(outcome) == ["start", "start"]
    assert outcome["counts"][:2] == (2, 2)
    assert outcome["counts"][4] == (2 if ghost else 0)  # read errors
    assert outcome["log"][-1][0] == "done"


@pytest.mark.parametrize("shared", [False, True])
def test_crashes_mid_read(shared):
    outcome = same(shared=shared, consumers=2, crashes=(1e-4, 1.2e-4, 2.5e-4), producers=3)
    assert set(crash_phases(outcome)) == {"read"}
    assert outcome["counts"][0] == 3
    assert [e for e in outcome["log"] if e[0] == "requeue"]


@pytest.mark.parametrize("shared", [False, True])
def test_crashes_at_insert(shared):
    # One slot and a slow consumer: the producers queue on the full buffer.
    outcome = same(shared=shared, capacity=1, think=1e-3, crashes=(2e-3, 4.5e-3), producers=3)
    assert crash_phases(outcome) == ["insert", "insert"]
    assert outcome["counts"][0] == 2
    assert not [e for e in outcome["log"] if e[0] == "requeue"]  # nothing to requeue


def test_crashes_with_lookahead_and_read_errors_traced():
    outcome = same(lookahead=1, epochs=3, errors=True, crashes=(3e-4, 2e-3, 5e-3, 5e-3),
                   start_crashes=1, traced=True, capacity=6, think=2e-4)
    assert outcome["counts"][6] > 0  # lookahead fetches
    assert outcome["counts"][4] > 0  # read errors staged
    assert {"start", "read"} <= set(crash_phases(outcome))
    assert any(s[0] == "prefetch.fetch" and ("outcome", "crashed") in s[5] for s in outcome["spans"])


@settings(max_examples=60)
@given(
    shared=st.booleans(),
    lookahead=st.sampled_from([0, 0, 1, 2]),
    n=st.integers(4, 20),
    producers=st.integers(1, 4),
    capacity=st.integers(1, 6),
    consumers=st.integers(1, 3),
    epochs=st.integers(1, 3),
    crashes=st.lists(st.floats(0.0, 8e-3, allow_nan=False), max_size=6),
    start_crashes=st.integers(0, 2),
    errors=st.booleans(),
    hdd=st.booleans(),
    think=st.sampled_from([0.0, 1e-4, 5e-4]),
    ghost=st.booleans(),
)
def test_callback_producers_match_processes(**scenario):
    if scenario["shared"]:
        scenario["lookahead"] = 0
    same(**scenario)
