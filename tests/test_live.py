"""Tests for the live (real-threads, real-files) PRISMA implementation."""

import random
import sys
import threading
import time

import pytest

from repro.core.live import (
    BufferClosed,
    LiveBuffer,
    LiveController,
    LivePrefetcher,
    LivePrisma,
    static_live_prisma,
)
from repro.core.live.buffer import WAKE_BATCH
from repro.core import StaticPolicy


@pytest.fixture()
def dataset(tmp_path):
    paths = []
    for i in range(60):
        p = tmp_path / f"sample{i:04d}.bin"
        p.write_bytes(bytes([i % 256]) * (1024 + i))
        paths.append(str(p))
    return paths


# ---------------------------------------------------------------- LiveBuffer
def test_live_buffer_insert_take_roundtrip():
    buf = LiveBuffer(capacity=4)
    buf.insert("/a", b"data")
    assert buf.contains("/a")
    assert buf.take("/a") == b"data"
    assert not buf.contains("/a")
    assert buf.hits == 1


def test_live_buffer_take_blocks_until_insert():
    buf = LiveBuffer(capacity=4)
    result = {}

    def consumer():
        result["data"] = buf.take("/x", timeout=5.0)

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    buf.insert("/x", b"late")
    t.join(timeout=5.0)
    assert result["data"] == b"late"
    assert buf.waits == 1


def test_live_buffer_capacity_blocks_insert():
    buf = LiveBuffer(capacity=1)
    buf.insert("/a", b"1")
    blocked = threading.Event()
    done = threading.Event()

    def producer():
        blocked.set()
        buf.insert("/b", b"2", timeout=5.0)
        done.set()

    t = threading.Thread(target=producer)
    t.start()
    blocked.wait(1.0)
    time.sleep(0.05)
    assert not done.is_set()
    buf.take("/a")
    t.join(timeout=5.0)
    assert done.is_set()


def test_live_buffer_demanded_path_bypasses_capacity():
    """The anti-starvation rule: a demanded insert is admitted when full."""
    buf = LiveBuffer(capacity=1)
    buf.insert("/filler", b"f")
    result = {}

    def consumer():
        result["data"] = buf.take("/wanted", timeout=5.0)

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    # Buffer is full, but "/wanted" has a blocked consumer: admit it.
    buf.insert("/wanted", b"w", timeout=1.0)
    t.join(timeout=5.0)
    assert result["data"] == b"w"


def test_live_buffer_take_timeout():
    buf = LiveBuffer(capacity=2)
    with pytest.raises(TimeoutError):
        buf.take("/never", timeout=0.05)


def test_live_buffer_close_releases_waiters():
    buf = LiveBuffer(capacity=2)
    errors = []

    def consumer():
        try:
            buf.take("/never", timeout=5.0)
        except BufferClosed as exc:
            errors.append(exc)

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    buf.close()
    t.join(timeout=5.0)
    assert len(errors) == 1
    with pytest.raises(BufferClosed):
        buf.insert("/a", b"x")


def test_live_buffer_set_capacity_wakes_producers():
    buf = LiveBuffer(capacity=1)
    buf.insert("/a", b"1")
    done = threading.Event()

    def producer():
        buf.insert("/b", b"2", timeout=5.0)
        done.set()

    t = threading.Thread(target=producer)
    t.start()
    time.sleep(0.05)
    buf.set_capacity(2)
    t.join(timeout=5.0)
    assert done.is_set()


def test_live_buffer_invalid_capacity():
    with pytest.raises(ValueError):
        LiveBuffer(capacity=0)
    buf = LiveBuffer(capacity=1)
    with pytest.raises(ValueError):
        buf.set_capacity(0)


# ---------------------------------------------------------------- hand-off
def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def _start_take(buf, path, timeout=30.0):
    """Run ``buf.take(path)`` on a thread; returns (thread, outcome dict).

    The default timeout outlasts every join in these tests, so a missing
    wake-up fails the join instead of surfacing as a timed-out take.
    """
    outcome = {}

    def consumer():
        try:
            outcome["data"] = buf.take(path, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            outcome["error"] = exc

    thread = threading.Thread(target=consumer, daemon=True)
    thread.start()
    return thread, outcome


def _blocked_take(buf, path, timeout=30.0):
    """A consumer thread that has missed on ``path`` and is waiting for it."""
    waits = buf.waits
    thread, outcome = _start_take(buf, path, timeout)
    _wait_until(lambda: buf.waits > waits)
    return thread, outcome


def _still_blocked(thread, outcome, settle=0.05):
    thread.join(timeout=settle)
    return thread.is_alive() and not outcome


def test_live_buffer_staged_waiter_wakes_at_batch_not_before():
    buf = LiveBuffer(capacity=64)
    buf.register_producer()  # a running producer: waiters are batched
    thread, outcome = _blocked_take(buf, "/p")
    buf.insert("/p", b"p")
    for i in range(WAKE_BATCH - 2):
        buf.insert(f"/f{i}", b"f")
    assert _still_blocked(thread, outcome)  # staged, one insert short
    buf.insert("/last", b"l")
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert outcome == {"data": b"p"}
    assert (buf.hits, buf.waits, buf.inserts) == (0, 1, WAKE_BATCH)


def test_live_buffer_waiter_wakes_at_once_with_no_producer_running():
    # A bare buffer has no registered producer: wake on the insert.
    buf = LiveBuffer(capacity=64)
    thread, outcome = _blocked_take(buf, "/p")
    buf.insert("/p", b"p")
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"p"}
    # A staged waiter held for its batch is released by the last
    # producer's exit (the epoch drained, or the producer retired).
    buf.register_producer()
    buf.register_producer()
    thread, outcome = _blocked_take(buf, "/q")
    buf.insert("/q", b"q")
    buf.deregister_producer()
    assert _still_blocked(thread, outcome)  # one producer still running
    buf.deregister_producer()
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"q"}


def test_live_buffer_waiter_wakes_when_buffer_fills():
    capacity = 4
    assert capacity < WAKE_BATCH
    buf = LiveBuffer(capacity=capacity)
    buf.register_producer()
    buf.insert("/old", b"o")  # staged before the wait began
    thread, outcome = _blocked_take(buf, "/p")
    buf.insert("/p", b"p")
    buf.insert("/a", b"a")
    assert _still_blocked(thread, outcome)  # 2 of a batch of 4, level 3 of 4
    buf.insert("/b", b"b")  # 3 of the batch, but the buffer is full
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"p"}


def test_live_buffer_timed_out_wait_returns_staged_sample():
    buf = LiveBuffer(capacity=64)
    buf.register_producer()
    thread, outcome = _blocked_take(buf, "/p", timeout=1.0)
    buf.insert("/p", b"p")  # staged, but far from a batch
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"p"}
    assert not buf.contains("/p")
    thread, outcome = _blocked_take(buf, "/absent", timeout=0.05)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert isinstance(outcome.get("error"), TimeoutError)


def test_live_buffer_insert_wakes_only_that_paths_waiters():
    buf = LiveBuffer(capacity=64)
    thread_a, outcome_a = _blocked_take(buf, "/a")
    thread_b, outcome_b = _blocked_take(buf, "/b")
    buf.insert("/a", b"a")
    thread_a.join(timeout=5.0)
    assert not thread_a.is_alive() and outcome_a == {"data": b"a"}
    assert _still_blocked(thread_b, outcome_b)
    buf.insert("/b", b"b")
    thread_b.join(timeout=5.0)
    assert not thread_b.is_alive() and outcome_b == {"data": b"b"}


def test_live_buffer_close_releases_every_waiter():
    buf = LiveBuffer(capacity=4)
    buf.register_producer()
    absent = [_blocked_take(buf, f"/absent{i}") for i in range(3)]
    staged = _blocked_take(buf, "/staged")
    buf.insert("/staged", b"s")  # held back for its batch
    assert _still_blocked(*staged)
    buf.close()
    for thread, outcome in absent:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), BufferClosed)
    staged[0].join(timeout=5.0)  # a staged sample is still handed over
    assert not staged[0].is_alive() and staged[1] == {"data": b"s"}
    # A producer parked on a full buffer is released too.
    full = LiveBuffer(capacity=1)
    full.insert("/a", b"a")
    parked = {}

    def producer():
        try:
            full.insert("/b", b"b", timeout=30.0)
        except BufferClosed as exc:
            parked["error"] = exc

    producer_thread = threading.Thread(target=producer, daemon=True)
    producer_thread.start()
    assert _still_blocked(producer_thread, parked)
    full.close()
    producer_thread.join(timeout=5.0)
    assert not producer_thread.is_alive()
    assert isinstance(parked.get("error"), BufferClosed)


def _held_batch(buf):
    """Hold a consumer for one batch on ``buf``, then read the batch."""
    first = buf.inserts
    thread, outcome = _blocked_take(buf, f"/p{first}")
    for i in range(first, first + WAKE_BATCH):
        buf.insert(f"/p{i}", b"p")
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"p"}
    for i in range(first + 1, first + WAKE_BATCH):
        assert buf.take(f"/p{i}") == b"p"


def test_held_batch_reads_as_starved_once_the_consumer_stalls_again():
    # A consumer held for its batch stalls once and then hits the samples
    # staged during the hold, so its hit rate reads 1 - 1/WAKE_BATCH.  The
    # control plane must still see that batch as starved, or
    # PrismaAutotunePolicy would never add the producer the consumer needs.
    buf = LiveBuffer(capacity=64)
    buf.register_producer()
    _held_batch(buf)
    assert buf.hit_rate() == 1 - 1 / WAKE_BATCH
    assert buf.demand() == (WAKE_BATCH, 1)  # not judged yet
    thread, outcome = _blocked_take(buf, "/next")  # drained it: stalls again
    assert buf.demand() == (WAKE_BATCH + 1, WAKE_BATCH + 1)
    buf.insert("/next", b"n")
    buf.deregister_producer()
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"n"}
    # Samples staged while nobody is held are a lead: plain hits.
    for i in range(4):
        buf.insert(f"/q{i}", b"q")
    for i in range(4):
        assert buf.take(f"/q{i}") == b"q"
    assert buf.demand() == (WAKE_BATCH + 5, WAKE_BATCH + 1)


def test_held_samples_never_count_past_the_hits():
    # One consumer is held while samples it will not read are staged, and
    # another stalls before anyone reads them: two requests, two starved.
    buf = LiveBuffer(capacity=64)
    buf.register_producer()
    thread, outcome = _blocked_take(buf, "/a")
    buf.insert("/a", b"a")
    for i in range(WAKE_BATCH - 1):
        buf.insert(f"/x{i}", b"x")
    thread.join(timeout=5.0)
    assert not thread.is_alive() and outcome == {"data": b"a"}
    thread, outcome = _blocked_take(buf, "/b")
    assert buf.demand() == (2, 2)
    buf.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


@pytest.mark.parametrize("behind", ["buffer-fills", "producers-stop"])
def test_held_batch_is_not_starved_when_the_consumer_falls_behind(behind):
    capacity = 2 * WAKE_BATCH
    buf = LiveBuffer(capacity=capacity)
    buf.register_producer()
    _held_batch(buf)  # e.g. the first batch of an epoch
    if behind == "buffer-fills":
        for i in range(capacity):
            buf.insert(f"/r{i}", b"r")
        for i in range(capacity):
            assert buf.take(f"/r{i}") == b"r"
    else:
        buf.deregister_producer()  # the epoch drained
        buf.register_producer()  # the next one starts
    thread, outcome = _blocked_take(buf, "/next")
    assert buf.demand()[1] == 2  # the two stalls, not the batch
    buf.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


# ---------------------------------------------------------------- LivePrefetcher
def test_live_prefetcher_ordered_epoch(dataset):
    with LivePrefetcher(producers=2, buffer_capacity=8) as pf:
        pf.load_epoch(dataset)
        for i, path in enumerate(dataset):
            data = pf.read(path, timeout=10.0)
            assert data[:1] == bytes([i % 256])
        assert pf.files_fetched == len(dataset)


def test_live_prefetcher_uncovered_path_direct_read(dataset, tmp_path):
    extra = tmp_path / "val.bin"
    extra.write_bytes(b"validation")
    with LivePrefetcher(producers=1, buffer_capacity=4) as pf:
        pf.load_epoch(dataset[:4])
        assert pf.read(str(extra)) == b"validation"


def test_live_prefetcher_set_producers(dataset):
    with LivePrefetcher(producers=1, buffer_capacity=32, max_producers=4) as pf:
        pf.load_epoch(dataset)
        pf.set_producers(4)
        for path in dataset:
            pf.read(path, timeout=10.0)
        assert pf.live_producers <= 4
    # close() already joined the threads


def test_live_prefetcher_read_error_propagates(tmp_path):
    missing = str(tmp_path / "ghost.bin")
    with LivePrefetcher(producers=1, buffer_capacity=4) as pf:
        pf.load_epoch([missing])
        with pytest.raises(OSError):
            pf.read(missing, timeout=5.0)
        assert pf.read_errors == 1


def test_live_prefetcher_survives_unexpected_read_error(dataset):
    """A read failing with a non-OSError is delivered to its reader; the
    producer keeps serving the epoch and its accounting stays exact."""
    paths = dataset[:4]
    with LivePrefetcher(producers=1, buffer_capacity=8) as pf:
        read_file = pf._read_file

        def flaky(path):
            if path == paths[1]:
                raise ValueError("corrupt sample")
            return read_file(path)

        pf._read_file = flaky
        pf.load_epoch(paths)
        for i, path in enumerate(paths):
            if i == 1:
                with pytest.raises(ValueError):
                    pf.read(path, timeout=1.0)
            else:
                assert pf.read(path, timeout=1.0)[:1] == bytes([i])
        _wait_until(lambda: pf.live_producers == 0)
        assert pf.read_errors == 1
        assert pf.files_fetched == 3
        for thread in pf._threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()


def test_live_producer_retires_when_its_loop_dies(dataset, monkeypatch):
    """An error escaping the producer loop still retires the thread, so the
    pool's and the buffer's producer counts stay exact and a consumer held
    back for its batch is released."""
    escaped = []
    monkeypatch.setattr(
        threading, "excepthook", lambda args: escaped.append(args.exc_type)
    )
    paths = dataset[:3]
    with LivePrefetcher(producers=1, buffer_capacity=8) as pf:
        gate = threading.Event()
        read_file, insert = pf._read_file, pf.buffer.insert

        def gated_read(path):
            gate.wait(5.0)
            return read_file(path)

        def failing_insert(path, data, timeout=None):
            if path != paths[0]:
                raise RuntimeError("bug in the hand-off")
            insert(path, data, timeout)

        pf._read_file = gated_read
        pf.buffer.insert = failing_insert
        pf.load_epoch(paths)
        thread, outcome = _blocked_take(pf.buffer, paths[0])
        gate.set()  # paths[0] is staged, then the loop dies on paths[1]
        thread.join(timeout=5.0)
        assert not thread.is_alive() and outcome == {"data": read_file(paths[0])}
        _wait_until(lambda: pf.live_producers == 0)
        for producer in pf._threads:
            producer.join(timeout=5.0)
            assert not producer.is_alive()
    assert escaped == [RuntimeError]


def test_live_prefetcher_epoch_overlap_rejected(dataset):
    with LivePrefetcher(producers=1, buffer_capacity=2) as pf:
        pf.load_epoch(dataset)
        with pytest.raises(ValueError):
            pf.load_epoch(dataset)


def test_live_prefetcher_rejects_duplicate_paths(dataset):
    """A path named twice in one epoch would be fetched twice, the second
    copy overwriting the first, and its second read would wait forever."""
    a, b = dataset[:2]
    with LivePrefetcher(producers=1, buffer_capacity=4) as pf:
        with pytest.raises(ValueError):
            pf.load_epoch([a, b, a])
        assert pf.queue_remaining == 0
        pf.load_epoch([a, b])
        assert pf.read(a, timeout=1.0)[:1] == bytes([0])
        assert pf.read(b, timeout=1.0)[:1] == bytes([1])


def test_live_prefetcher_multiple_epochs(dataset):
    with LivePrefetcher(producers=2, buffer_capacity=16) as pf:
        for epoch in range(3):
            order = list(reversed(dataset)) if epoch % 2 else list(dataset)
            pf.load_epoch(order)
            for path in order:
                pf.read(path, timeout=10.0)
        assert pf.files_fetched == 3 * len(dataset)


def test_live_prefetcher_invalid_args():
    with pytest.raises(ValueError):
        LivePrefetcher(producers=0)
    with pytest.raises(ValueError):
        LivePrefetcher(producers=4, max_producers=2)


def test_live_prefetcher_snapshot(dataset):
    with LivePrefetcher(producers=2, buffer_capacity=8) as pf:
        pf.load_epoch(dataset)
        pf.read(dataset[0], timeout=10.0)
        snap = pf.snapshot()
        assert snap.requests >= 1
        assert snap.buffer_capacity == 8


# ---------------------------------------------------------------- LiveController
def test_live_controller_applies_static_policy(dataset):
    pf = LivePrefetcher(producers=1, buffer_capacity=4, max_producers=8)
    ctl = LiveController(pf, policy=StaticPolicy(3, 16), period=0.01)
    try:
        ctl.start()
        pf.load_epoch(dataset)
        for path in dataset:
            pf.read(path, timeout=10.0)
        deadline = time.time() + 2.0
        while ctl.enforcements == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert ctl.enforcements >= 1
        assert pf.buffer.capacity == 16
    finally:
        ctl.stop()
        pf.close()


def test_live_controller_lifecycle():
    pf = LivePrefetcher(producers=1, buffer_capacity=4)
    ctl = LiveController(pf, period=0.01)
    ctl.start()
    with pytest.raises(RuntimeError):
        ctl.start()
    ctl.stop()
    pf.close()
    with pytest.raises(ValueError):
        LiveController(pf, period=0.0)


# ---------------------------------------------------------------- LivePrisma session
def test_live_prisma_iter_epoch(dataset):
    with LivePrisma(producers=2, buffer_capacity=16, control_period=0.02) as prisma:
        seen = []
        for path, data in prisma.iter_epoch(dataset):
            seen.append(path)
            assert len(data) >= 1024
        assert seen == dataset
        stats = prisma.stats()
        assert stats["bytes_fetched"] > 0


def test_live_prisma_hit_rate_improves_with_prefetch(dataset):
    with LivePrisma(producers=4, buffer_capacity=32, autotune=False) as prisma:
        list(prisma.iter_epoch(dataset))
        assert prisma.hit_rate > 0.2  # most samples arrive before the consumer


def _slow_reads(monkeypatch, seconds):
    """Make every producer read take at least ``seconds``."""
    read = LivePrefetcher._read_file

    def slow_read(path):
        time.sleep(seconds)
        return read(path)

    monkeypatch.setattr(LivePrefetcher, "_read_file", staticmethod(slow_read))


def test_live_snapshot_tells_a_prefetch_lead_from_a_held_batch(dataset, monkeypatch):
    # A lead: every sample is staged before the consumer asks for it.
    with LivePrefetcher(producers=2, buffer_capacity=64) as pf:
        pf.load_epoch(dataset)
        _wait_until(lambda: pf.buffer.level == len(dataset))
        for path in dataset:
            pf.read(path, timeout=10.0)
        assert pf.buffer.hit_rate() == 1.0
        assert pf.snapshot().starvation() == 0.0
    # No lead: the consumer outruns a slow producer.  The batched wake
    # turns most reads into hits, but the snapshot still reads starving.
    # It reads about 0.95: the last batch of the epoch is never judged,
    # and a consumer descheduled for a read or two finds unheld samples.
    _slow_reads(monkeypatch, 0.001)
    with LivePrefetcher(producers=1, buffer_capacity=64) as pf:
        pf.load_epoch(dataset)
        for path in dataset:
            pf.read(path, timeout=10.0)
        assert pf.buffer.hit_rate() > 0.5
        assert pf.snapshot().starvation() > 0.5


def test_live_autotune_adds_a_producer_for_a_consumer_with_compute(
    tmp_path, monkeypatch
):
    """A consumer that computes for about 0.8x a producer's per-file read
    time still outruns one producer, so the auto-tuner must add another.
    Held for its batch, such a consumer stalls on only about
    (1 - 0.8) / WAKE_BATCH of its reads, below the starvation threshold;
    the policy sees it starving only because a drained batch counts as
    starved."""
    read_s, compute_s = 0.002, 0.0016
    _slow_reads(monkeypatch, read_s)
    paths = []
    for i in range(200):
        p = tmp_path / f"c{i:03d}.bin"
        p.write_bytes(b"c" * 64)
        paths.append(str(p))
    grew = False
    deadline = time.monotonic() + 8.0
    with LivePrisma(producers=1, buffer_capacity=64, control_period=0.25) as prisma:
        while not grew and time.monotonic() < deadline:
            for _ in prisma.iter_epoch(paths, timeout=10.0):
                time.sleep(compute_s)  # the consumer's compute per sample
                grew = grew or prisma.producers >= 2
    assert grew


def test_live_prisma_repeated_epochs_with_reshuffle(dataset):
    import random

    rng = random.Random(0)
    with LivePrisma(producers=2, buffer_capacity=16, control_period=0.02) as prisma:
        for epoch in range(3):
            order = list(dataset)
            rng.shuffle(order)
            consumed = [p for p, _ in prisma.iter_epoch(order)]
            assert consumed == order


def test_static_live_prisma_configuration(dataset):
    with static_live_prisma(producers=2, buffer_capacity=8) as prisma:
        list(prisma.iter_epoch(dataset))
        assert prisma.producers == 2


# ---------------------------------------------------------------- stress
@pytest.mark.parametrize("producers", [1, 3])
def test_live_exactly_once_under_contention(tmp_path, producers):
    """More consumer threads than cores read interleaved slices of each
    epoch, with a tiny switch interval to shake out lost wake-ups."""
    n_files, consumers, epochs = 256, 6, 4
    contents = {}
    for i in range(n_files):
        p = tmp_path / f"s{i:03d}.bin"
        p.write_bytes(i.to_bytes(2, "little") * 64)
        contents[str(p)] = p.read_bytes()
    paths = list(contents)
    started = time.monotonic()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with LivePrefetcher(
            producers=producers, buffer_capacity=16, max_producers=producers
        ) as pf:
            for epoch in range(epochs):
                order = list(paths)
                random.Random(epoch).shuffle(order)
                served, errors = [], []
                lock = threading.Lock()

                def consume(mine):
                    try:
                        for path in mine:
                            data = pf.read(path, timeout=10.0)
                            with lock:
                                served.append((path, data))
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)

                pf.load_epoch(order)
                threads = [
                    threading.Thread(target=consume, args=(order[i::consumers],))
                    for i in range(consumers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                assert errors == []
                assert sorted(p for p, _ in served) == sorted(paths)
                assert all(data == contents[p] for p, data in served)
        assert pf.files_fetched == n_files * epochs
        assert pf.live_producers == 0
        for thread in pf._threads:
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60.0
