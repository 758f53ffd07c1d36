"""Shared test configuration: hypothesis profiles, the kernel probe and
the call counter.

CI runs with ``HYPOTHESIS_PROFILE=ci`` — derandomized (fixed example
order, so failures reproduce across runs) and with the deadline disabled
(shared runners have noisy clocks).  Local runs get the ``dev`` profile:
random exploration, still no wall-clock deadline because simulated
workloads legitimately take variable real time per example.
"""

import cProfile
import os
import pstats
from types import SimpleNamespace

import pytest
from hypothesis import settings

import repro
from repro.simcore import Simulator

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=50)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def kernel_probe(monkeypatch):
    """Count kernel events and spawned processes, as the benchmark does.

    ``events`` sums what every ``Simulator.run`` call advanced
    ``events_processed`` by; ``spawned`` lists the source file of each
    generator passed to ``Simulator.process``.
    """
    probe = SimpleNamespace(events=0, spawned=[])
    run, process = Simulator.run, Simulator.process

    def counted_run(sim, until=None):
        before = sim.events_processed
        try:
            return run(sim, until)
        finally:
            probe.events += sim.events_processed - before

    def counted_process(sim, generator, name=""):
        probe.spawned.append(generator.gi_code.co_filename)
        return process(sim, generator, name)

    monkeypatch.setattr(Simulator, "run", counted_run)
    monkeypatch.setattr(Simulator, "process", counted_process)
    return probe


#: Code objects that Python 3.12 inlines into their enclosing function,
#: left out of call counts so that every supported version counts alike.
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


@pytest.fixture
def package_calls():
    """``count(fn, *args, **kwargs)`` runs ``fn`` under cProfile and returns
    its result and the calls it made into functions of the package,
    comprehensions aside."""
    package = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep

    def count(fn, *args, **kwargs):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = fn(*args, **kwargs)
        finally:
            profiler.disable()
        calls = sum(
            ncalls
            for (filename, _, name), (_, ncalls, *_) in pstats.Stats(profiler).stats.items()
            if name not in COMPREHENSIONS and os.path.realpath(filename).startswith(package)
        )
        return result, calls

    return count
