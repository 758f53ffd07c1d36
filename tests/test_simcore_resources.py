"""Unit tests for stores, resources, locks, and containers."""

import pytest

from repro.simcore import (
    Container,
    DuplicateKeyError,
    FilterStore,
    KeyedIndex,
    KeyedStore,
    Lock,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


# ---------------------------------------------------------------- Store
def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(5):
            yield store.put(i)

    def consumer(sim, store):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_producer():
    sim = Simulator()
    store = Store(sim, capacity=2)
    timeline = []

    def producer(sim, store):
        for i in range(4):
            yield store.put(i)
            timeline.append(("put", i, sim.now))

    def consumer(sim, store):
        yield sim.timeout(10.0)
        for _ in range(4):
            yield store.get()
            yield sim.timeout(10.0)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    # First two puts are immediate; the rest wait for consumer gets.
    assert timeline[0] == ("put", 0, 0.0)
    assert timeline[1] == ("put", 1, 0.0)
    assert timeline[2][2] == 10.0
    assert timeline[3][2] == 20.0


def test_store_get_blocks_until_item():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(5.0)
        yield store.put("x")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [("x", 5.0)]


def test_store_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_peak_and_level_tracking():
    sim = Simulator()
    store = Store(sim, capacity=10)

    def producer(sim, store):
        for i in range(7):
            yield store.put(i)

    sim.process(producer(sim, store))
    sim.run()
    assert store.level == 7
    assert store.peak_items == 7


def test_store_offer_admits_without_an_event_and_serves_getters():
    sim = Simulator()
    store = Store(sim, capacity=2)
    waiting = store.get()
    assert store.offer("a") and store.offer("b") and store.offer("c")
    assert not store.offer("d")  # full: nothing admitted
    assert list(store.items) == ["b", "c"] and store.peak_items == 2
    sim.run()
    assert waiting.value == "a"
    assert sim.events_processed == 1  # the get; offers cost no event


def test_keyed_store_refuses_offer_and_admits_nothing():
    sim = Simulator()
    store = KeyedStore(sim, capacity=2)
    with pytest.raises(TypeError, match=r"put\(key, item\)"):
        store.offer("x")
    assert store.items == {} and store.level == 0 and store.peak_items == 0
    assert not store.contains("x")
    store.put("x", 1)  # the keyed path still works
    assert store.contains("x") and store.level == 1


def test_store_mean_occupancy_time_weighted():
    sim = Simulator()
    store = Store(sim, capacity=10)

    def scenario(sim, store):
        yield store.put("a")  # level 1 from t=0
        yield sim.timeout(10.0)
        yield store.put("b")  # level 2 from t=10
        yield sim.timeout(10.0)

    sim.process(scenario(sim, store))
    sim.run()
    # 10 s at level 1 + 10 s at level 2 = mean 1.5
    assert store.mean_occupancy() == pytest.approx(1.5)


# ---------------------------------------------------------------- FilterStore
def test_filterstore_get_by_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def producer(sim, store):
        for name in ("a", "b", "c"):
            yield store.put(name)

    def consumer(sim, store):
        item = yield store.get(lambda x: x == "c")
        got.append(item)

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == ["c"]
    assert list(store.items) == ["a", "b"]


def test_filterstore_later_getter_can_overtake():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def wait_for(sim, store, key, tag):
        item = yield store.get(lambda x, key=key: x == key)
        got.append((tag, item, sim.now))

    def producer(sim, store):
        yield sim.timeout(1.0)
        yield store.put("late")  # matches the *second* getter

    sim.process(wait_for(sim, store, "never", "first"))
    sim.process(wait_for(sim, store, "late", "second"))
    sim.process(producer(sim, store))
    sim.run(until=5.0)
    assert got == [("second", "late", 1.0)]


def test_filterstore_plain_get_still_fifo():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def scenario(sim, store):
        yield store.put(1)
        yield store.put(2)
        got.append((yield store.get()))
        got.append((yield store.get()))

    sim.process(scenario(sim, store))
    sim.run()
    assert got == [1, 2]


# ---------------------------------------------------------------- capacity normalization
def test_store_capacity_normalized_to_int():
    sim = Simulator()
    store = Store(sim, capacity=4.0)
    assert store.capacity == 4 and isinstance(store.capacity, int)
    store.set_capacity(8.0)
    assert store.capacity == 8 and isinstance(store.capacity, int)


def test_store_infinite_capacity_allowed():
    sim = Simulator()
    store = Store(sim, capacity=float("inf"))
    assert store.capacity == float("inf")


def test_store_fractional_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=2.5)
    store = Store(sim, capacity=2)
    with pytest.raises(ValueError):
        store.set_capacity(1.5)
    with pytest.raises(ValueError):
        store.set_capacity(float("nan"))


def test_store_shrink_never_evicts_blocks_new_puts():
    """Shrinking below the current level keeps items; puts wait for a drain."""
    sim = Simulator()
    store = Store(sim, capacity=4)
    put_times = []

    def scenario():
        for i in range(4):
            yield store.put(i)
        store.set_capacity(2)
        assert store.level == 4  # never evicts
        ev = store.put(99)
        sim.process(drainer())
        yield ev
        put_times.append(sim.now)

    def drainer():
        yield sim.timeout(1.0)
        yield store.get()
        yield sim.timeout(1.0)
        yield store.get()
        yield sim.timeout(1.0)
        yield store.get()  # level drops 4 -> 1: the blocked put admits

    p = sim.process(scenario())
    sim.run(until=p)
    assert put_times == [3.0]
    assert store.level == 2


# ---------------------------------------------------------------- KeyedIndex
def test_keyed_index_basic_ops():
    idx = KeyedIndex()
    idx.put("a", 1)
    idx.put("b", 2)
    assert "a" in idx and len(idx) == 2
    assert idx.get("a") == 1
    assert idx.pop("a") == 1
    assert idx.discard("a") is None
    assert list(idx.keys()) == ["b"]


def test_keyed_index_duplicate_put_rejected():
    idx = KeyedIndex()
    idx.put("a", 1)
    with pytest.raises(DuplicateKeyError):
        idx.put("a", 2)


def test_keyed_index_lru_ordering():
    idx = KeyedIndex()
    for k in ("a", "b", "c"):
        idx.put(k, k.upper())
    idx.touch("a")  # recency: a becomes newest
    assert idx.pop_oldest() == ("b", "B")
    assert idx.pop_oldest() == ("c", "C")
    assert idx.pop_oldest() == ("a", "A")


# ---------------------------------------------------------------- KeyedStore
def test_keyedstore_get_by_key_hits_buffered_item():
    sim = Simulator()
    store = KeyedStore(sim)
    got = []

    def scenario():
        yield store.put("a", 1)
        yield store.put("b", 2)
        got.append((yield store.get("b")))
        got.append((yield store.get("a")))

    p = sim.process(scenario())
    sim.run(until=p)
    assert got == [2, 1]
    assert store.level == 0


def test_keyedstore_waiter_unblocked_by_matching_put():
    sim = Simulator()
    store = KeyedStore(sim)
    got = []

    def consumer(key):
        item = yield store.get(key)
        got.append((key, item, sim.now))

    def producer():
        yield sim.timeout(1.0)
        yield store.put("x", "X")
        yield sim.timeout(1.0)
        yield store.put("y", "Y")

    # Consumers wait in reverse production order; each is woken individually.
    sim.process(consumer("y"))
    sim.process(consumer("x"))
    sim.process(producer())
    sim.run()
    assert got == [("x", "X", 1.0), ("y", "Y", 2.0)]


def test_keyedstore_per_key_waiters_fifo():
    sim = Simulator()
    store = KeyedStore(sim)
    got = []

    def consumer(tag):
        item = yield store.get("k")
        got.append((tag, item))

    def producer():
        yield sim.timeout(1.0)
        yield store.put("k", "first")
        # the slot is consumed immediately; re-stage for the second waiter
        yield store.put("k", "second")

    sim.process(consumer(1))
    sim.process(consumer(2))
    sim.process(producer())
    sim.run()
    assert got == [(1, "first"), (2, "second")]


def test_keyedstore_keyless_get_is_fifo():
    sim = Simulator()
    store = KeyedStore(sim)
    got = []

    def scenario():
        yield store.put("a", 1)
        yield store.put("b", 2)
        got.append((yield store.get()))
        got.append((yield store.get()))

    p = sim.process(scenario())
    sim.run(until=p)
    assert got == [1, 2]


def test_keyedstore_capacity_blocks_putters_fifo():
    sim = Simulator()
    store = KeyedStore(sim, capacity=2)
    admitted = []

    def producer():
        for i in range(4):
            yield store.put(f"k{i}", i)
            admitted.append((i, sim.now))

    def consumer():
        yield sim.timeout(10.0)
        for i in range(4):
            yield store.get(f"k{i}")
            yield sim.timeout(10.0)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert admitted[0][1] == 0.0 and admitted[1][1] == 0.0
    assert admitted[2][1] == 10.0
    assert admitted[3][1] == 20.0


def test_keyedstore_duplicate_key_put_fails():
    sim = Simulator()
    store = KeyedStore(sim)
    outcome = {}

    def scenario():
        yield store.put("a", 1)
        try:
            yield store.put("a", 2)
        except DuplicateKeyError as exc:
            outcome["error"] = str(exc)
        item = yield store.get("a")
        outcome["item"] = item

    p = sim.process(scenario())
    sim.run(until=p)
    assert "already buffered" in outcome["error"]
    assert outcome["item"] == 1  # the first item was not shadowed


def test_keyedstore_contains_peek_waiting():
    sim = Simulator()
    store = KeyedStore(sim)

    def scenario():
        yield store.put("a", 41)
        assert store.contains("a")
        assert store.peek("a") == 41
        assert store.level == 1  # peek does not consume
        store.get("b")  # park a waiter
        assert store.waiting("b") == 1
        assert store.waiting_keys() == ["b"]
        yield store.put("b", 1)
        assert store.waiting("b") == 0

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.ok


def test_keyedstore_discard_frees_slot_for_putter():
    sim = Simulator()
    store = KeyedStore(sim, capacity=1)
    times = []

    def scenario():
        yield store.put("a", 1)
        ev = store.put("b", 2)  # blocked: full
        yield sim.timeout(1.0)
        assert store.discard("a") == 1
        yield ev
        times.append(sim.now)

    p = sim.process(scenario())
    sim.run(until=p)
    assert times == [1.0]
    assert store.contains("b")


def test_keyedstore_cancel_get():
    sim = Simulator()
    store = KeyedStore(sim)
    ev = store.get("a")
    store.cancel_get(ev)
    assert store.waiting("a") == 0
    with pytest.raises(SimulationError):
        store.cancel_get(ev)

    def scenario():
        yield store.put("a", 1)  # no waiter left: stays buffered

    p = sim.process(scenario())
    sim.run(until=p)
    assert store.peek("a") == 1


def test_keyedstore_occupancy_accounting():
    sim = Simulator()
    store = KeyedStore(sim, capacity=10)

    def scenario():
        yield store.put("a", 1)  # level 1 from t=0
        yield sim.timeout(10.0)
        yield store.put("b", 2)  # level 2 from t=10
        yield sim.timeout(10.0)

    sim.process(scenario())
    sim.run()
    assert store.mean_occupancy() == pytest.approx(1.5)
    assert store.peak_items == 2


# ---------------------------------------------------------------- Resource / Lock
def test_resource_capacity_enforced():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peaks = []

    def worker(sim, res):
        req = yield res.request()
        active.append(1)
        peaks.append(len(active))
        yield sim.timeout(5.0)
        active.pop()
        res.release(req)

    for _ in range(6):
        sim.process(worker(sim, res))
    sim.run()
    assert max(peaks) <= 2
    assert sim.now == 15.0  # 6 workers / 2 slots * 5 s


def test_resource_release_unowned_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        req = yield res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)
        yield sim.timeout(0)

    sim.process(worker(sim, res))
    sim.run()


def test_resource_utilization_metering():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        req = yield res.request()
        yield sim.timeout(4.0)
        res.release(req)
        yield sim.timeout(6.0)  # idle tail

    sim.process(worker(sim, res))
    sim.run()
    assert res.utilization() == pytest.approx(0.4)


def test_lock_mutual_exclusion_and_wait_accounting():
    sim = Simulator()
    lock = Lock(sim)
    inside = []

    def worker(sim, lock, tag):
        req = lock.acquire()
        yield req
        inside.append(tag)
        assert len(inside) == 1
        yield sim.timeout(2.0)
        inside.remove(tag)
        lock.release(req)

    for tag in range(3):
        sim.process(worker(sim, lock, tag))
    sim.run()
    assert sim.now == 6.0
    # Waits: 0 + 2 + 4 = 6 over 3 acquisitions.
    assert lock.mean_wait() == pytest.approx(2.0)


def test_lock_locked_property():
    sim = Simulator()
    lock = Lock(sim)

    def worker(sim, lock):
        req = lock.acquire()
        yield req
        assert lock.locked
        lock.release(req)
        assert not lock.locked

    sim.process(worker(sim, lock))
    sim.run()


# ---------------------------------------------------------------- Container
def test_container_levels():
    sim = Simulator()
    c = Container(sim, capacity=100, init=50)

    def scenario(sim, c):
        yield c.get(30)
        assert c.level == 20
        yield c.put(60)
        assert c.level == 80

    sim.process(scenario(sim, c))
    sim.run()


def test_container_get_blocks_until_level():
    sim = Simulator()
    c = Container(sim, capacity=100, init=0)
    got = []

    def getter(sim, c):
        yield c.get(40)
        got.append(sim.now)

    def putter(sim, c):
        yield sim.timeout(3.0)
        yield c.put(25)
        yield sim.timeout(3.0)
        yield c.put(25)

    sim.process(getter(sim, c))
    sim.process(putter(sim, c))
    sim.run()
    assert got == [6.0]


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    c = Container(sim, capacity=10, init=8)
    done = []

    def putter(sim, c):
        yield c.put(5)
        done.append(sim.now)

    def getter(sim, c):
        yield sim.timeout(4.0)
        yield c.get(5)

    sim.process(putter(sim, c))
    sim.process(getter(sim, c))
    sim.run()
    assert done == [4.0]


def test_container_invalid_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=0)
    with pytest.raises(ValueError):
        Container(sim, capacity=10, init=11)
    c = Container(sim, capacity=10)
    with pytest.raises(ValueError):
        c.get(11)
    with pytest.raises(ValueError):
        c.put(-1)
