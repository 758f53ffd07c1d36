"""Edge-case tests for the simulation kernel found during development."""

import pytest

from repro.simcore import (
    AnyOf,
    Event,
    Interrupt,
    ProcessError,
    Resource,
    SchedulingError,
    Simulator,
    Store,
)
from repro.simcore._heapkernel import HeapSimulator


def test_interrupt_before_process_starts():
    """Interrupting a just-created process delivers at its first yield.

    Regression test: throwing into a generator that hasn't started raises
    at the def line, outside any try/except in the body — the kernel must
    defer delivery until the body is entered.
    """
    sim = Simulator()

    def worker():
        try:
            yield sim.timeout(100.0)
            return "finished"
        except Interrupt as exc:
            return ("interrupted", exc.cause)

    p = sim.process(worker())
    p.interrupt("early")  # before the boot event has run
    sim.run()
    assert p.value == ("interrupted", "early")


def test_interrupt_while_runnable_same_timestep():
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(10.0)
            return "slept"
        except Interrupt:
            return "interrupted"

    def attacker(target):
        target.interrupt()
        yield sim.timeout(0)

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert p.value == "interrupted"


def _interrupted_by_waited_event_callback(sim_class, body):
    """Run ``body(sim, ev)`` as a process, then trigger the event it waits
    on with a callback ahead of the process's own that interrupts it."""
    sim = sim_class()
    ev = sim.event()
    proc = sim.process(body(sim, ev))
    sim.run()
    ev.callbacks.insert(0, lambda _ev: proc.interrupt("stop"))
    ev.succeed("value")
    return sim, proc


@pytest.mark.parametrize("sim_class", [Simulator, HeapSimulator])
def test_interrupt_from_callback_of_waited_event_kills_once(sim_class):
    """The event's pending call of the process's resume delivers the
    interrupt; no second wake-up resumes the dead process (which failed
    the run with EventAlreadyTriggered)."""

    def body(sim, ev):
        yield ev

    sim, proc = _interrupted_by_waited_event_callback(sim_class, body)
    failures = []
    proc.add_callback(lambda p: failures.append(p.exception))
    sim.run()
    assert len(failures) == 1
    assert isinstance(failures[0], ProcessError)
    assert isinstance(failures[0].__cause__, Interrupt)


@pytest.mark.parametrize("sim_class", [Simulator, HeapSimulator])
def test_interrupt_from_callback_of_waited_event_resumes_once(sim_class):
    """A body that catches the interrupt and sleeps wakes once, at the end
    of its sleep, with the timer's value (a stray wake-up resumed it at
    t=0 with None)."""
    log = []

    def body(sim, ev):
        try:
            yield ev
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))
        value = yield sim.timeout(5, value="slept")
        log.append(("woke", sim.now, value))

    sim, proc = _interrupted_by_waited_event_callback(sim_class, body)
    sim.run()
    assert log == [("interrupted", 0.0, "stop"), ("woke", 5.0, "slept")]
    assert proc.ok and sim.now == 5.0


def test_anyof_failure_propagates():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(10.0)

    def waiter():
        try:
            yield sim.any_of([bad, slow])
        except ValueError as exc:
            return str(exc)

    def failer():
        yield sim.timeout(1.0)
        bad.fail(ValueError("boom"))

    p = sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert p.value == "boom"


def test_allof_failure_propagates():
    sim = Simulator()
    bad = sim.event()
    fast = sim.timeout(0.5)

    def waiter():
        try:
            yield sim.all_of([bad, fast])
        except RuntimeError:
            return "caught"

    def failer():
        yield sim.timeout(1.0)
        bad.fail(RuntimeError("nope"))

    p = sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert p.value == "caught"


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(ValueError):
        _ = ev.value
    with pytest.raises(ValueError):
        _ = ev.ok


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_late_callback_on_processed_event_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(1.0, value="v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e._value))
    assert seen == ["v"]


def test_resource_request_context_manager():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        with (yield res.request()):
            assert res.count == 1
            yield sim.timeout(1.0)
        assert res.count == 0

    p = sim.process(worker())
    sim.run(until=p)
    assert p.ok


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = yield res.request()
        yield sim.timeout(10.0)
        res.release(req)

    def impatient():
        req = res.request()
        yield sim.timeout(1.0)
        res.cancel(req)
        return "cancelled"

    sim.process(holder())
    p = sim.process(impatient())
    sim.run()
    assert p.value == "cancelled"
    assert len(res.queue) == 0


def test_store_capacity_change_admits_queued_putters():
    sim = Simulator()
    store = Store(sim, capacity=1)
    admitted = []

    def producer():
        yield store.put("a")
        yield store.put("b")
        admitted.append(sim.now)

    def grower():
        yield sim.timeout(5.0)
        store.set_capacity(2)

    sim.process(producer())
    sim.process(grower())
    sim.run()
    assert admitted == [5.0]


def test_store_set_capacity_invalid():
    sim = Simulator()
    store = Store(sim, capacity=1)
    with pytest.raises(ValueError):
        store.set_capacity(0)


def test_process_error_includes_name():
    sim = Simulator()

    def named():
        yield sim.timeout(1.0)
        raise KeyError("x")

    def parent():
        try:
            yield sim.process(named(), name="my-task")
        except ProcessError as exc:
            return str(exc)

    p = sim.process(parent())
    sim.run()
    assert "my-task" in p.value


def test_schedule_in_past_rejected():
    sim = Simulator()

    def advance():
        yield sim.timeout(5.0)

    sim.process(advance())
    sim.run()
    with pytest.raises(SchedulingError):
        sim._enqueue_at(1.0, Event(sim))


def test_nested_anyof_value_only_triggered_members():
    sim = Simulator()

    def waiter():
        fast = sim.timeout(1.0, value="f")
        slow = sim.timeout(50.0, value="s")
        result = yield AnyOf(sim, [fast, slow])
        return sorted(result.values())

    p = sim.process(waiter())
    sim.run(until=p)
    assert p.value == ["f"]
