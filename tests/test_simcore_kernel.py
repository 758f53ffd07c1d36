"""Unit tests for the simulation kernel: events, processes, scheduling."""

import pytest

from repro.simcore import (
    EventAlreadyTriggered,
    Interrupt,
    ProcessError,
    SchedulingError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(5.0)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [5.0]
    assert sim.now == 5.0


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_process_return_value_via_join():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        return result * 2

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == 84


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=35.0)
    assert sim.now == 35.0


def test_run_until_time_in_past_rejected():
    sim = Simulator()
    sim.run()
    with pytest.raises(SchedulingError):
        sim.run(until=-1.0)


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)
        return "done"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "done"
    assert sim.now == 3.0


def test_run_until_event_never_fires_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SchedulingError):
        sim.run(until=ev)


def test_event_succeed_twice_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc(sim, ev))

    def failer(sim, ev):
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.process(failer(sim, ev))
    sim.run()
    assert caught == ["boom"]


def test_process_failure_propagates_to_joiner():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("died")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ProcessError as exc:
            return ("caught", type(exc.__cause__).__name__)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("caught", "RuntimeError")


def test_unobserved_process_failure_crashes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("silent death")

    sim.process(bad(sim))
    with pytest.raises(ProcessError):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as exc:
            return ("interrupted", exc.cause, sim.now)

    def killer(sim, victim):
        yield sim.timeout(7.0)
        victim.interrupt("deadline")

    victim = sim.process(sleeper(sim))
    sim.process(killer(sim, victim))
    sim.run()
    assert victim.value == ("interrupted", "deadline", 7.0)


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SchedulingError):
        p.interrupt()


def test_any_of_triggers_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(2.0, value="fast")
        result = yield sim.any_of([t1, t2])
        return (sim.now, list(result.values()))

    p = sim.process(proc(sim))
    sim.run(until=p)
    assert p.value == (2.0, ["fast"])


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc(sim):
        events = [sim.timeout(d) for d in (1.0, 4.0, 2.0)]
        yield sim.all_of(events)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 4.0


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def proc(sim):
        result = yield sim.all_of([])
        return result

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == {}


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 42

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ProcessError as exc:
            return type(exc.__cause__).__name__

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "TypeError"


def test_nested_processes_compose():
    sim = Simulator()

    def leaf(sim, delay):
        yield sim.timeout(delay)
        return delay

    def mid(sim):
        a = yield sim.process(leaf(sim, 1.0))
        b = yield sim.process(leaf(sim, 2.0))
        return a + b

    p = sim.process(mid(sim))
    sim.run()
    assert p.value == 3.0
    assert sim.now == 3.0


def test_stop_ends_run_early():
    sim = Simulator()

    def stopper(sim):
        yield sim.timeout(5.0)
        sim.stop()

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(stopper(sim))
    sim.process(forever(sim))
    sim.run()
    assert sim.now == 5.0


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_peek_empty_queue_is_inf():
    sim = Simulator()
    sim.run()
    assert sim.peek() == float("inf")


def test_step_on_empty_queue_raises():
    sim = Simulator()
    sim.run()
    with pytest.raises(SchedulingError):
        sim.step()


def test_active_process_visible_during_execution():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


# ---------------------------------------------------------------- run loop stops
def test_run_until_event_keeps_the_clock_at_the_trigger():
    """The event that triggers the stop is the last of its slot: the run
    returns at that time, without advancing to the next slot."""
    sim = Simulator()
    done = sim.event()
    sim.timeout(1.0).add_callback(lambda _ev: done.succeed("ok"))
    later = sim.timeout(2.0)
    assert sim.run(until=done) == "ok"
    assert sim.now == 1.0
    assert not later.processed


def test_run_until_already_triggered_event_processes_nothing():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    pending = sim.timeout(1.0)
    assert sim.run(until=ev) == 7
    assert sim.now == 0.0 and not pending.processed


def test_run_until_failed_event_raises_its_error():
    sim = Simulator()
    ev = sim.event()
    sim.timeout(1.0).add_callback(lambda _ev: ev.fail(ValueError("boom")))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=ev)
    assert sim.now == 1.0


def test_stop_in_the_last_event_of_a_slot_keeps_the_clock():
    sim = Simulator()
    sim.timeout(1.0).add_callback(lambda _ev: sim.stop())
    later = sim.timeout(2.0)
    sim.run(until=5.0)
    assert sim.now == 1.0
    assert not later.processed
    sim.run(until=5.0)  # a new run clears the stop request
    assert later.processed and sim.now == 5.0


def test_run_counts_events_in_every_mode():
    sim = Simulator()
    for delay in (0.0, 1.0, 2.0, 3.0):
        sim.timeout(delay)
    sim.run(until=1.5)
    assert sim.events_processed == 2
    last = sim.timeout(0.25)
    sim.run(until=last)
    assert sim.events_processed == 3
    sim.run()
    assert sim.events_processed == 5


# ---------------------------------------------------------------- cancel
def test_cancelled_timer_never_fires():
    sim = Simulator()
    fired = []
    keep = sim.timeout(1.0)
    keep.add_callback(lambda _ev: fired.append("keep"))
    drop = sim.timeout(2.0)
    drop.add_callback(lambda _ev: fired.append("drop"))
    sim.cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert not drop.triggered and not drop.processed
    # The clock never visits the cancelled timer's time.
    assert sim.now == 1.0
    assert sim.events_processed == 1


def test_cancel_in_a_shared_slot_keeps_the_others_in_order():
    sim = Simulator()
    fired = []
    timers = [sim.timeout(1.0, value=i) for i in range(4)]
    for t in timers:
        t.add_callback(lambda ev: fired.append(ev.value))
    sim.cancel(timers[1])
    sim.run()
    assert fired == [0, 2, 3]


def test_cancel_a_timer_due_now():
    """A zero-delay timer, and one due in the slot being drained."""
    sim = Simulator()
    fired = []
    zero = sim.timeout(0.0)
    zero.add_callback(lambda _ev: fired.append("zero"))
    sim.cancel(zero)
    first = sim.timeout(1.0)
    second = sim.timeout(1.0)
    second.add_callback(lambda _ev: fired.append("second"))
    first.add_callback(lambda _ev: sim.cancel(second))
    sim.run()
    assert fired == []
    assert sim.now == 1.0


def test_cancel_fired_or_cancelled_timer_is_a_noop():
    sim = Simulator()
    fired = sim.timeout(1.0)
    sim.run()
    sim.cancel(fired)  # already fired
    assert fired.processed and fired.value is None
    pending = sim.timeout(1.0)
    sim.cancel(pending)
    sim.cancel(pending)  # already cancelled
    sim.run()
    assert sim.now == 1.0


def test_cancel_the_firing_timer_from_its_own_callback_is_a_noop():
    sim = Simulator()
    seen = []
    timer = sim.timeout(1.0, value="v")
    timer.add_callback(lambda ev: sim.cancel(ev))
    timer.add_callback(lambda ev: seen.append(ev.value))
    sim.run()
    assert seen == ["v"]


def test_peek_and_step_skip_cancelled_slots():
    sim = Simulator()
    early = sim.timeout(1.0)
    late = sim.timeout(3.0)
    sim.cancel(early)
    assert sim.peek() == 3.0
    sim.step()
    assert sim.now == 3.0 and late.processed
    assert sim.peek() == float("inf")
    with pytest.raises(SchedulingError, match="empty event queue"):
        sim.step()


def test_run_until_time_skips_cancelled_slots():
    sim = Simulator()
    sim.cancel(sim.timeout(1.0))
    late = sim.timeout(4.0)
    sim.run(until=2.0)
    assert sim.now == 2.0 and not late.processed
    sim.cancel(late)
    sim.run(until=6.0)
    assert sim.now == 6.0
    assert sim.events_processed == 0


def test_run_until_event_with_only_cancelled_slots_left():
    sim = Simulator()
    ev = sim.event()
    sim.cancel(sim.timeout(1.0))
    sim.cancel(sim.timeout(2.0))
    with pytest.raises(SchedulingError, match="exhausted the queue before the event fired"):
        sim.run(until=ev)


def test_reschedule_at_a_cancelled_time_fires_once():
    """A new event at the time of an emptied slot gets a fresh slot."""
    sim = Simulator()
    fired = []
    sim.cancel(sim.timeout(2.0))
    sim.timeout(1.0).add_callback(
        lambda _ev: sim.timeout(1.0).add_callback(lambda _e: fired.append(sim.now))
    )
    sim.run()
    assert fired == [2.0]
    assert sim.events_processed == 2


# ---------------------------------------------------------------- deferred trigger
def test_succeed_after_fires_at_the_deferred_time():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim):
        value = yield ev
        seen.append((sim.now, value))

    sim.process(waiter(sim))
    ev.succeed_after(2.5, "late")
    assert not ev.triggered  # triggers only when the clock reaches it
    sim.run(until=1.0)
    assert not ev.triggered
    sim.run()
    assert seen == [(2.5, "late")]
    assert ev.processed and ev.value == "late"


def test_succeed_after_fires_in_slot_order():
    sim = Simulator()
    order = []
    before = sim.timeout(1.0)
    before.add_callback(lambda _ev: order.append("before"))
    ev = sim.event()
    ev.add_callback(lambda _ev: order.append("deferred"))
    ev.succeed_after(1.0)
    after = sim.timeout(1.0)
    after.add_callback(lambda _ev: order.append("after"))
    sim.run()
    assert order == ["before", "deferred", "after"]


def test_succeed_after_keeps_the_double_trigger_errors():
    sim = Simulator()
    done = sim.event()
    done.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        done.succeed_after(1.0, 2)
    deferred = sim.event()
    deferred.succeed_after(1.0, "a")
    with pytest.raises(SchedulingError, match="already scheduled"):
        deferred.succeed_after(2.0, "b")
    with pytest.raises(SchedulingError, match="already scheduled"):
        deferred.succeed("c")
    with pytest.raises(SchedulingError, match="already scheduled"):
        deferred.fail(RuntimeError("d"))
    assert not deferred.triggered
    sim.run()
    assert deferred.value == "a"
    with pytest.raises(EventAlreadyTriggered):
        deferred.succeed_after(0.0)


def test_succeed_after_rejects_a_negative_delay():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.event().succeed_after(-1.0)
