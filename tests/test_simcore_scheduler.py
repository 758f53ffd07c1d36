"""Differential determinism suite: slot kernel vs the reference heap kernel.

The slot scheduler's contract is exact: at any timestamp, events fire in
the order they were scheduled — the ``(time, slot-FIFO)`` order must
equal the old ``(time, sequence)`` heap order, byte for byte.  These
tests drive randomized scenarios (same-timestamp bursts, zero-delay
chains, interrupts, AnyOf/AllOf fan-in, resource contention, callback
entries beside timeouts) through both :class:`repro.simcore.Simulator`
and the in-tree replica of the previous kernel
(:class:`repro.simcore._heapkernel.HeapSimulator`) and assert identical
firing order, plus double-run self-determinism.

Targeted invariant tests pin the corners the property suite relies on:
same-time FIFO, immediate-queue interleaving with pre-scheduled slots,
and process bootstrap ordering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    CANCELLED,
    READY,
    RUNNING,
    WAITING,
    Interrupt,
    KeyedStore,
    Resource,
    SchedulingError,
    Simulator,
    Store,
)
from repro.simcore._heapkernel import HeapSimulator
from repro.simcore.workloads import canonical_mixed_workload

KERNELS = [Simulator, HeapSimulator]

# A tiny quantized delay grid maximizes timestamp collisions, which is
# exactly where slot-FIFO vs heap-sequence ordering could diverge.
delay_grid = st.integers(min_value=0, max_value=3).map(lambda n: n * 0.5)


def run_trace(kernel, build):
    """Run ``build(sim, log)`` on a fresh kernel; return the firing log."""
    sim = kernel()
    log = []
    build(sim, log)
    sim.run()
    return log


def assert_equivalent(build):
    """Both kernels, run twice each, must produce one identical log."""
    logs = [run_trace(k, build) for k in KERNELS for _ in range(2)]
    assert logs[0] == logs[1] == logs[2] == logs[3]
    return logs[0]


# ---------------------------------------------------------------- properties
@given(
    st.lists(
        st.tuples(delay_grid, st.integers(min_value=0, max_value=99)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60)
def test_same_timestamp_bursts_fire_in_scheduling_order(schedule):
    def build(sim, log):
        for delay, tag in schedule:
            t = sim.timeout(delay, value=tag)
            t.add_callback(lambda ev: log.append((sim.now, ev.value)))

    log = assert_equivalent(build)
    assert len(log) == len(schedule)
    assert log == sorted(log, key=lambda row: row[0])


@given(
    st.lists(
        st.tuples(delay_grid, delay_grid, st.integers(min_value=0, max_value=4)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60)
def test_process_chains_with_zero_delays(plans):
    def build(sim, log):
        def proc(sim, pid, first, second, hops):
            yield sim.timeout(first)
            log.append(("a", sim.now, pid))
            for _ in range(hops):
                yield sim.timeout(0.0)
            yield sim.timeout(second)
            log.append(("b", sim.now, pid))

        for pid, (first, second, hops) in enumerate(plans):
            sim.process(proc(sim, pid, first, second, hops))

    assert_equivalent(build)


@given(
    st.lists(st.tuples(delay_grid, delay_grid), min_size=1, max_size=10),
    st.booleans(),
)
@settings(max_examples=60)
def test_interrupt_ordering_matches_heap_kernel(plans, interrupt_twice):
    def build(sim, log):
        def sleeper(sim, pid, nap):
            try:
                yield sim.timeout(nap + 10.0)
                log.append(("slept", sim.now, pid))
            except Interrupt as intr:
                log.append(("intr", sim.now, pid, intr.cause))

        def interrupter(sim, pid, victim, after):
            yield sim.timeout(after)
            if victim.is_alive:
                victim.interrupt(cause=pid)
                if interrupt_twice and victim.is_alive:
                    victim.interrupt(cause=-pid)

        for pid, (nap, after) in enumerate(plans):
            victim = sim.process(sleeper(sim, pid, nap))
            sim.process(interrupter(sim, pid, victim, after))

    assert_equivalent(build)


@given(
    st.lists(
        st.lists(delay_grid, min_size=1, max_size=4), min_size=1, max_size=8
    ),
    st.booleans(),
)
@settings(max_examples=60)
def test_condition_fanin_ordering(groups, use_any):
    def build(sim, log):
        def waiter(sim, gid, delays):
            events = [sim.timeout(d, value=(gid, i)) for i, d in enumerate(delays)]
            cond = sim.any_of(events) if use_any else sim.all_of(events)
            result = yield cond
            log.append((sim.now, gid, sorted(result.values())))

        for gid, delays in enumerate(groups):
            sim.process(waiter(sim, gid, delays))

    assert_equivalent(build)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), delay_grid), min_size=2, max_size=16
    ),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60)
def test_resource_contention_ordering(requests, capacity):
    def build(sim, log):
        res = Resource(sim, capacity=capacity, name="r")

        def worker(sim, wid, start, hold):
            yield sim.timeout(start * 0.5)
            req = res.request()
            yield req
            log.append(("acq", sim.now, wid))
            yield sim.timeout(hold)
            res.release(req)
            log.append(("rel", sim.now, wid))

        for wid, (start, hold) in enumerate(requests):
            sim.process(worker(sim, wid, start, hold))

    assert_equivalent(build)


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=10)
def test_canonical_workload_is_kernel_equivalent(scale):
    """The benchmark workload itself fires identically on both kernels."""
    logs = []
    for kernel in KERNELS:
        for _ in range(2):
            sim = kernel()
            log = canonical_mixed_workload(sim, scale=scale)
            sim.run()
            logs.append(log)
    assert logs[0] == logs[1] == logs[2] == logs[3]


# ---------------------------------------------------------------- cancel oracle
def run_with_timers(plans, pause, cancel):
    """Run a scenario of workers and cancellable timers; return the log.

    Each plan is ``(start, delay, cancel_after)``: a worker sleeps
    ``start``, arms a timer due ``delay`` later, and — when
    ``cancel_after`` is set — withdraws it ``cancel_after`` after arming
    (before it is due, in its own slot, or after it fired).  With ``cancel`` the withdrawal is
    ``Simulator.cancel``; without, the timer stays in place and its
    callback turns into a no-op, which is what cancel must be equivalent to.
    """
    sim = Simulator()
    log = []
    withdrawn = set()

    def fire(ev, tid):
        if tid not in withdrawn:
            log.append(("fire", sim.now, tid))

    def withdraw(timer, tid):
        log.append(("withdraw", sim.now, tid))
        if cancel:
            sim.cancel(timer)
        else:
            withdrawn.add(tid)

    def worker(sim, tid, start, delay, cancel_after):
        yield sim.timeout(start)
        log.append(("arm", sim.now, tid))
        armed = []
        if cancel_after is not None:
            # Scheduled ahead of the timer: at an equal delay the withdrawal
            # fires first and takes the timer out of the slot being drained.
            sim.timeout(cancel_after).add_callback(lambda _ev: withdraw(armed[0], tid))
        timer = sim.timeout(delay)
        timer.add_callback(lambda ev: fire(ev, tid))
        armed.append(timer)
        # Keep working past the timer, so later events interleave with it.
        yield sim.timeout(delay)
        log.append(("wake", sim.now, tid))

    for tid, (start, delay, cancel_after) in enumerate(plans):
        sim.process(worker(sim, tid, start, delay, cancel_after))
    sim.run(until=pause)
    log.append(("pause", sim.now, -1))
    sim.run()
    return log


@given(
    st.lists(
        st.tuples(delay_grid, delay_grid, st.one_of(st.none(), delay_grid)),
        min_size=1,
        max_size=16,
    ),
    delay_grid,
)
@settings(max_examples=80)
def test_cancel_matches_a_noop_timer(plans, pause):
    """Cancelling a timer whose callback would do nothing fires every other
    event in the same order, at the same times."""
    cancelled = run_with_timers(plans, pause, cancel=True)
    kept = run_with_timers(plans, pause, cancel=False)
    assert cancelled == kept
    assert cancelled == run_with_timers(plans, pause, cancel=True)


@given(st.lists(st.tuples(delay_grid, delay_grid), min_size=1, max_size=12))
@settings(max_examples=60)
def test_deferred_trigger_ordering_matches_heap_kernel(plans):
    """``succeed_after`` fires in the slot FIFO order on both kernels."""

    def build(sim, log):
        def proc(sim, pid, first, second):
            yield sim.timeout(first)
            ev = sim.event()
            ev.add_callback(lambda e: log.append(("deferred", sim.now, e.value)))
            ev.succeed_after(second, pid)
            value = yield ev
            log.append(("resumed", sim.now, value))

        for pid, (first, second) in enumerate(plans):
            sim.process(proc(sim, pid, first, second))

    assert_equivalent(build)


# ---------------------------------------------------------------- lone-event slots
# A future timestamp that holds one event keeps the event itself in
# ``Simulator._slots``; a deque is made only when a second event lands on
# the same time.  Each case runs on both kernels and must log the same.
def withdraw(sim, timer, muted):
    """Cancel ``timer`` on the slot kernel.  The heap kernel cannot cancel,
    so there the timer stays and its callback is muted, which is what a
    cancel must be equivalent to."""
    if isinstance(sim, Simulator):
        sim.cancel(timer)
    else:
        muted.add(timer)


def timer_logger(sim, log, muted):
    def arm(delay, label):
        timer = sim.timeout(delay)
        timer.add_callback(lambda ev: ev in muted or log.append((label, sim.now)))
        return timer

    return arm


def run_on_both(build, drive=lambda sim: sim.run()):
    """``build(sim, log, muted)`` then ``drive(sim)`` on each kernel;
    returns the two logs and simulators, slot kernel first."""
    results = []
    for kernel in KERNELS:
        sim, log, muted = kernel(), [], set()
        build(sim, log, muted)
        drive(sim)
        log.append(("end", sim.now))
        results.append((log, sim))
    (slot_log, slot_sim), (heap_log, heap_sim) = results
    assert slot_log == heap_log
    return slot_log, slot_sim, heap_sim


def test_cancel_a_timer_alone_in_its_slot():
    def build(sim, log, muted):
        arm = timer_logger(sim, log, muted)
        lone = arm(1.0, "lone")
        sim.timeout(0.5).add_callback(lambda _ev: withdraw(sim, lone, muted))
        arm(2.0, "later")

    log, slot_sim, heap_sim = run_on_both(build)
    assert log == [("later", 2.0), ("end", 2.0)]
    # The cancelled timer left its slot: it costs no kernel event.
    assert 1.0 not in slot_sim._slots
    assert slot_sim.events_processed == heap_sim.events_processed - 1


def test_cancel_one_of_two_timers_sharing_a_slot():
    for cancelled in (0, 1):

        def build(sim, log, muted):
            arm = timer_logger(sim, log, muted)
            pair = [arm(1.0, "first"), arm(1.0, "second")]
            sim.timeout(0.5).add_callback(
                lambda _ev: withdraw(sim, pair[cancelled], muted)
            )
            # Scheduled after the cancel: it queues behind the survivor.
            sim.timeout(0.75).add_callback(lambda _ev: arm(0.25, "third"))

        log, slot_sim, heap_sim = run_on_both(build)
        survivor = "second" if cancelled == 0 else "first"
        assert log == [(survivor, 1.0), ("third", 1.0), ("end", 1.0)]
        assert slot_sim.events_processed == heap_sim.events_processed - 1


def test_step_across_a_lone_event_slot():
    def build(sim, log, muted):
        arm = timer_logger(sim, log, muted)
        lone = sim.timeout(1.0)
        # The lone event schedules one event for now and one for later.
        lone.add_callback(lambda _ev: log.append(("lone", sim.now)))
        lone.add_callback(lambda _ev: arm(0.0, "now"))
        lone.add_callback(lambda _ev: arm(1.0, "later"))
        arm(3.0, "pair-a")
        arm(3.0, "pair-b")

    def drive(sim):
        while sim.peek() < float("inf"):
            sim.step()

    log, _, _ = run_on_both(build, drive)
    assert log == [
        ("lone", 1.0), ("now", 1.0), ("later", 2.0),
        ("pair-a", 3.0), ("pair-b", 3.0), ("end", 3.0),
    ]


@pytest.mark.parametrize("later_events", [False, True])
def test_stop_from_a_lone_event_callback(later_events):
    def build(sim, log, muted):
        arm = timer_logger(sim, log, muted)
        lone = sim.timeout(1.0)
        lone.add_callback(lambda _ev: log.append(("stop", sim.now)))
        lone.add_callback(lambda _ev: sim.stop())
        if later_events:
            arm(2.0, "later")

    stopped_at = []

    def drive(sim):
        sim.run()
        stopped_at.append(sim.now)
        sim.run()

    log, _, _ = run_on_both(build, drive)
    assert stopped_at == [1.0, 1.0]
    expected = [("stop", 1.0)] + ([("later", 2.0)] if later_events else [])
    assert log == expected + [("end", 2.0 if later_events else 1.0)]


def test_succeed_from_a_lone_event_fires_before_the_next_timestamp():
    def build(sim, log, muted):
        arm = timer_logger(sim, log, muted)
        relay = sim.event()
        relay.add_callback(lambda ev: log.append(("succeeded", sim.now, ev.value)))
        lone = sim.timeout(1.0)
        lone.add_callback(lambda _ev: relay.succeed("v"))
        lone.add_callback(lambda _ev: log.append(("lone", sim.now)))
        arm(1.5, "next")

    log, _, _ = run_on_both(build)
    assert log == [("lone", 1.0), ("succeeded", 1.0, "v"), ("next", 1.5), ("end", 1.5)]


# ---------------------------------------------------------------- callback entries
# ``call_later`` queues a timed call with no Event on the slot kernel; the
# heap kernel builds it as a Timeout with one callback, the form it
# replaced.  Each case runs on both kernels and must log the same.
def entry_logger(sim, log, muted):
    armed = {}

    def fire(label):
        if armed[label] not in muted:
            log.append((label, sim.now))

    def arm(delay, label):
        armed[label] = entry = sim.call_later(delay, fire, label)
        return entry

    return arm


@given(
    st.lists(
        st.tuples(delay_grid, st.booleans(), st.integers(min_value=0, max_value=99)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60)
def test_callback_entries_and_timeouts_fire_in_scheduling_order(schedule):
    def build(sim, log):
        def relay(tag):
            log.append((sim.now, "entry", tag))
            # Re-arm from inside the slot being drained, behind its FIFO.
            if tag % 3 == 0:
                sim.call_later(
                    0.5 * (tag % 2), lambda t: log.append((sim.now, "rearmed", t)), tag
                )

        for delay, as_entry, tag in schedule:
            if as_entry:
                sim.call_later(delay, relay, tag)
            else:
                t = sim.timeout(delay, value=tag)
                t.add_callback(lambda ev: log.append((sim.now, "timeout", ev.value)))

    log = assert_equivalent(build)
    assert len([row for row in log if row[1] != "rearmed"]) == len(schedule)


def test_cancel_a_callback_entry_alone_in_its_slot():
    def build(sim, log, muted):
        arm = entry_logger(sim, log, muted)
        lone = arm(1.0, "lone")
        sim.call_later(0.5, lambda _arg: withdraw(sim, lone, muted))
        arm(2.0, "later")

    log, slot_sim, heap_sim = run_on_both(build)
    assert log == [("later", 2.0), ("end", 2.0)]
    assert 1.0 not in slot_sim._slots
    assert slot_sim.events_processed == heap_sim.events_processed - 1


@pytest.mark.parametrize("kinds", [("entry", "entry"), ("entry", "timer"), ("timer", "entry")])
def test_cancel_a_callback_entry_sharing_a_slot(kinds):
    for cancelled in (0, 1):

        def build(sim, log, muted):
            arms = {"entry": entry_logger(sim, log, muted), "timer": timer_logger(sim, log, muted)}
            pair = [arms[kind](1.0, f"{kind}{i}") for i, kind in enumerate(kinds)]
            sim.call_later(0.5, lambda _arg: withdraw(sim, pair[cancelled], muted))
            # Scheduled after the cancel: it queues behind the survivor.
            sim.call_later(0.75, lambda _arg: arms["entry"](0.25, "third"))

        log, slot_sim, heap_sim = run_on_both(build)
        survivor = f"{kinds[1 - cancelled]}{1 - cancelled}"
        assert log == [(survivor, 1.0), ("third", 1.0), ("end", 1.0)]
        assert slot_sim.events_processed == heap_sim.events_processed - 1


def test_cancel_after_a_callback_entry_fired_is_a_noop():
    sim = Simulator()
    log = []
    entry = sim.call_later(1.0, log.append, "fired")
    # The same instant after it fired, and a later one.
    sim.call_later(1.0, lambda _arg: sim.cancel(entry))
    sim.call_later(2.0, lambda _arg: sim.cancel(entry))
    # An entry that cancels itself as it fires still runs once.
    selfish = sim.call_later(1.5, lambda _arg: (sim.cancel(selfish), log.append("self")))
    sim.timeout(3.0).add_callback(lambda _ev: log.append("after"))
    sim.run()
    sim.cancel(entry)
    assert log == ["fired", "self", "after"]
    assert sim.events_processed == 5
    twice = sim.call_later(1.0, log.append, "never")
    sim.cancel(twice)
    sim.cancel(twice)
    sim.run()
    assert log == ["fired", "self", "after"] and sim.events_processed == 5


def test_zero_delay_callback_entry_queues_behind_the_current_fifo():
    def build(sim, log, muted):
        def first(_arg):
            log.append(("first", sim.now))
            sim.call_later(0.0, lambda _arg: log.append(("zero", sim.now)))
            ev = sim.event()
            ev.add_callback(lambda _ev: log.append(("succeeded", sim.now)))
            ev.succeed()

        sim.call_later(1.0, first)
        sim.call_later(1.0, lambda _arg: log.append(("second", sim.now)))
        sim.call_later(2.0, first)

    log, _, _ = run_on_both(build)
    assert log == [
        ("first", 1.0), ("second", 1.0), ("zero", 1.0), ("succeeded", 1.0),
        ("first", 2.0), ("zero", 2.0), ("succeeded", 2.0), ("end", 2.0),
    ]


def test_events_processed_counts_each_callback_entry_once():
    counts = []
    for kernel in KERNELS:
        sim = kernel()
        for delay in (0.0, 1.0, 1.0, 2.0):
            sim.call_later(delay, lambda _arg: None)
        sim.run()
        counts.append(sim.events_processed)
    assert counts == [4, 4]
    with pytest.raises(SchedulingError):
        Simulator().call_later(-1.0, print)


# ---------------------------------------------------------------- invariants
def test_same_time_fifo_interleaves_prescheduled_and_immediate():
    """Events landing at t via the heap and via succeed() share one FIFO."""
    sim = Simulator()
    log = []

    def proc(sim):
        # At t=1 the pre-scheduled timeout fires first (scheduled earlier),
        # then the event succeeded *during* t=1, in scheduling order.
        first = sim.timeout(1.0, value="pre")
        first.add_callback(lambda ev: log.append(ev.value))
        yield sim.timeout(1.0)
        ev = sim.event()
        ev.add_callback(lambda e: log.append("mid"))
        ev.succeed()
        late = sim.timeout(0.0, value="post")
        late.add_callback(lambda e: log.append(e.value))
        yield late

    sim.process(proc(sim))
    sim.run()
    assert log == ["pre", "mid", "post"]


def test_boot_order_is_spawn_order():
    sim = Simulator()
    log = []

    def proc(sim, pid):
        log.append(pid)
        yield sim.timeout(0.0)
        log.append(pid + 100)

    for pid in range(5):
        sim.process(proc(sim, pid))
    sim.run()
    assert log == [0, 1, 2, 3, 4, 100, 101, 102, 103, 104]


def test_events_processed_counts_every_fired_event():
    for kernel in KERNELS:
        sim = kernel()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(0.0)

        sim.process(proc(sim))
        sim.run()
        assert sim.events_processed > 0
    slot, heap = (k() for k in KERNELS)
    for s in (slot, heap):
        s.process(proc(s))
        s.run()
    # Same workload, same count: the slot path must not skip accounting.
    assert slot.events_processed == heap.events_processed


def test_past_scheduling_still_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        with pytest.raises(SchedulingError):
            sim._enqueue_at(0.5, sim.event())
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()


def test_run_queue_states_progress():
    sim = Simulator()
    store = Store(sim, capacity=1, name="s")
    states = []

    def producer(sim):
        yield sim.timeout(1.0)
        yield store.put("x")

    def consumer(sim):
        get = store.get()
        states.append(get.state)
        item = yield get
        states.append(get.state)
        assert item == "x"

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert states == [WAITING, RUNNING]


def test_cancelled_get_reaches_cancelled_state():
    sim = Simulator()
    ks = KeyedStore(sim, capacity=4, name="k")

    def proc(sim):
        get = ks.get("missing")
        yield sim.timeout(1.0)
        assert get.state == WAITING
        ks.cancel_get(get)
        assert get.state == CANCELLED

    sim.process(proc(sim))
    sim.run()


def test_ready_state_on_immediate_put():
    sim = Simulator()
    store = Store(sim, capacity=4, name="s")
    seen = []

    def proc(sim):
        put = store.put("x")
        seen.append(put.state)  # triggered synchronously: READY, not yet RUNNING
        yield put
        seen.append(put.state)

    sim.process(proc(sim))
    sim.run()
    assert seen == [READY, RUNNING]
