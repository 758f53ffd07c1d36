"""The end of a run: ``Simulator.close()`` and trials that free themselves.

A finished trial must be freed by reference counting the moment its
runner returns, without a pass of the cyclic collector: the runners close
their simulator, and nothing a trial builds holds a reference cycle.  The
runner tests switch the collector off and save what a collection would
free (``gc.DEBUG_SAVEALL``): no object of a ``repro`` class may be in it.
"""

import gc
import weakref
from collections import Counter
from types import FunctionType

import pytest

from repro.core import PrismaAutotunePolicy
from repro.core.live import LiveController
from repro.experiments import runner
from repro.experiments.ablation import static_grid
from repro.experiments.clairvoyant import run_clairvoyant_comparison
from repro.experiments.cluster import run_cluster_serving
from repro.experiments.config import ExperimentScale, figure2_scale
from repro.experiments.extensions import (
    run_distributed_sweep,
    run_latency_comparison,
    run_multitenant_comparison,
)
from repro.experiments.faults import run_fault_sweep
from repro.experiments.predictive import check_live_parity, run_policy_trial
from repro.experiments.runner import run_tf_trial, run_torch_trial
from repro.experiments.writes import run_write_workloads
from repro.faults import RPC_DELAY, RPC_DROP, FaultEvent, FaultPlan
from repro.frameworks.models import ALEXNET, LENET, RESNET50
from repro.perfmodel.sweep import run_sweep_trial
from repro.simcore import AnyOf, Simulator, Store
from repro.simcore.resources import ResourceRequest
from repro.storage.backend import BackendConfig
from repro.telemetry import Telemetry

SCALE = ExperimentScale(scale=1000, epochs=1)
BATCH = 32


def _of_repro(obj) -> bool:
    """Is ``obj`` an instance, class or function defined in the package?"""
    owner = obj if isinstance(obj, (type, FunctionType)) else type(obj)
    return getattr(owner, "__module__", "").startswith("repro.")


def _cycles(objects):
    """The strongly connected components of ``objects``' references among
    themselves (Tarjan, iterative), each a list of objects; a component of
    one object is kept only if it refers to itself."""
    by_id = {id(obj): obj for obj in objects}

    def successors(key):
        return [id(ref) for ref in gc.get_referents(by_id[key]) if id(ref) in by_id]

    index, low, on_stack, stack, components = {}, {}, set(), [], []
    for root in by_id:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        key = stack.pop()
                        on_stack.discard(key)
                        component.append(key)
                        if key == node:
                            break
                    if len(component) > 1 or node in successors(node):
                        components.append([by_id[key] for key in component])
    return components


def _describe(garbage) -> str:
    """Each cycle as the type names of its strongly connected component."""
    lines = []
    for component in _cycles(garbage):
        if any(_of_repro(obj) for obj in component):
            names = Counter(type(obj).__qualname__ for obj in component)
            lines.append(", ".join(f"{name} x{n}" for name, n in sorted(names.items())))
    return "\n".join(sorted(lines))


def repro_garbage(fn):
    """Run ``fn`` with the collector off; return the ``repro`` objects a
    collection afterwards would have to free, and their cycles."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    left = [obj for obj in garbage if _of_repro(obj)]
    return left, (_describe(garbage) if left else "")


RUNNERS = {
    "tf-baseline": lambda: run_tf_trial("tf-baseline", LENET, BATCH, SCALE),
    "tf-optimized": lambda: run_tf_trial("tf-optimized", LENET, BATCH, SCALE),
    "tf-prisma": lambda: run_tf_trial("tf-prisma", LENET, BATCH, SCALE),
    "tf-prisma-prefetch-validation": lambda: run_tf_trial(
        "tf-prisma", LENET, BATCH, SCALE, prefetch_validation=True
    ),
    "tf-prisma-telemetry": lambda: run_tf_trial(
        "tf-prisma", LENET, BATCH, SCALE, telemetry=Telemetry()
    ),
    "torch-native-w0": lambda: run_torch_trial("torch-native", LENET, BATCH, 0, SCALE),
    "torch-native-w4": lambda: run_torch_trial("torch-native", LENET, BATCH, 4, SCALE),
    "torch-prisma-w0": lambda: run_torch_trial("torch-prisma", LENET, BATCH, 0, SCALE),
    "torch-prisma-w4": lambda: run_torch_trial("torch-prisma", LENET, BATCH, 4, SCALE),
    "write-matrix": lambda: run_write_workloads(0, n_files=64, epochs=1),
    "cluster-serving": lambda: run_cluster_serving(0, n_nodes=4, n_files=32, epochs=1),
    # Retried, timed-out and exhausted peer reads, and fallbacks.
    "cluster-serving-faulted": lambda: run_cluster_serving(
        3, n_nodes=4, n_files=24, epochs=2, rpc_timeout=2e-3,
        fault_plan=FaultPlan([
            FaultEvent(RPC_DROP, time=0.0, duration=5e-3),
            FaultEvent(RPC_DELAY, time=6e-3, duration=5e-3, severity=2e-3),
        ]),
    ),
    # Ends at t = 0.046 s, before the default plan's first fault.
    "fault-sweep": lambda: run_fault_sweep(n_files=60),
    # ``faults-demo``'s run: every fault kind, serve and channel retries.
    "fault-sweep-faulted": run_fault_sweep,
    "clairvoyant": lambda: run_clairvoyant_comparison(n_files=40, epochs=2),
    "distributed": lambda: run_distributed_sweep(node_counts=(2,), scale=1000),
    "multitenant": lambda: run_multitenant_comparison(n_jobs=2, files_per_job=32),
    "policy-trial": lambda: run_policy_trial(
        BackendConfig(), PrismaAutotunePolicy(), "reactive", n_files=32, epochs=1
    ),
    "ablation-static-grid": lambda: static_grid(
        producers=(2,), buffers=(64,), scale=SCALE
    ),
    "latency": lambda: run_latency_comparison(scale=1000, sample_count=200),
    "sweep-trial": lambda: run_sweep_trial(BackendConfig(), 2, 64, n_files=32, epochs=1),
    "live-parity": lambda: check_live_parity(
        run_policy_trial(
            BackendConfig(), PrismaAutotunePolicy(), "reactive", n_files=32, epochs=1
        ).snapshots,
        PrismaAutotunePolicy,
    ),
    "live-controller": LiveController,
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_leaves_no_cycle(name):
    left, cycles = repro_garbage(RUNNERS[name])
    assert not left, f"{len(left)} repro objects left for the collector:\n{cycles}"


def test_back_to_back_trials_free_their_simulators_on_return(monkeypatch):
    """Three quick Figure-2 trials in a row, as the benchmark's ``train-tf``
    runs them: each trial's simulator is gone when its runner returns,
    with the collector switched off throughout."""
    sims = []
    build = runner._build_env

    def recorded(*args):
        env = build(*args)
        sims.append(weakref.ref(env.sim))
        return env

    monkeypatch.setattr(runner, "_build_env", recorded)
    scale = figure2_scale(quick=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for seed, model in enumerate((LENET, ALEXNET, RESNET50)):
            run_tf_trial("tf-prisma", model, 256, scale, seed=seed)
            assert len(sims) == seed + 1
            assert sims[-1]() is None, f"{model.name}: the simulator outlived its trial"
    finally:
        if enabled:
            gc.enable()


def test_released_seek_slots_are_freed_without_the_collector():
    """A granted ``ResourceRequest`` holds itself as its value until it is
    released; cluster reads take thousands of device seek slots."""
    left, _ = repro_garbage(lambda: run_cluster_serving(0, n_nodes=4, n_files=32, epochs=1))
    assert not [obj for obj in left if isinstance(obj, ResourceRequest)]


# -- Simulator.close() ---------------------------------------------------------------
def _busy_simulator():
    """A simulator stopped mid-run, with entries of every kind pending and
    processes suspended on a timer, on a store and not yet started."""
    sim = Simulator()
    log = []
    store = Store(sim, name="jobs")

    def sleeper():
        try:
            yield sim.timeout(10.0)
        finally:
            log.append(("sleeper closed", sim.now))

    def consumer():
        try:
            yield store.get()
        finally:
            log.append(("consumer closed", sim.now))

    sim.process(sleeper())
    sim.process(consumer())
    sim.call_later(3.0, log.append, "timer")
    sim.call_later(3.0, log.append, "second timer at the same time")
    sim.run(until=1.0)
    sim.process(consumer())  # spawned, not started
    sim.timeout(0)
    return sim, log


def test_close_drops_every_pending_entry():
    sim, log = _busy_simulator()
    assert sim.peek() == 1.0
    sim.close()
    assert sim.peek() == float("inf")
    assert not sim._processes
    assert "timer" not in log


def test_close_runs_each_suspended_finally_once():
    sim, log = _busy_simulator()
    assert log == []
    sim.close()
    # Spawn order; the process that never started has no finally to run.
    assert log == [("sleeper closed", 1.0), ("consumer closed", 1.0)]
    sim.close()
    assert log == [("sleeper closed", 1.0), ("consumer closed", 1.0)]


def test_run_after_close_returns_at_once():
    sim, log = _busy_simulator()
    sim.close()
    processed = sim.events_processed
    assert sim.run() is None
    assert sim.now == 1.0 and sim.events_processed == processed
    assert log == [("sleeper closed", 1.0), ("consumer closed", 1.0)]


def test_closed_simulator_is_freed_by_reference_counting():
    sim, _ = _busy_simulator()
    ref = weakref.ref(sim)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.close()
        del sim
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_fired_any_of_drops_its_callback_from_a_pending_deadline():
    """``run(until=AnyOf([done, timeout(limit)]))``: once ``done`` fires,
    the deadline's callback no longer holds the ``AnyOf`` in a cycle."""
    sim = Simulator()
    done, deadline = sim.timeout(1.0, "done"), sim.timeout(10.0)
    first = AnyOf(sim, [done, deadline])
    assert sim.run(until=first) == {done: "done"}
    assert deadline.callbacks == []
    ref = weakref.ref(sim)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.close()
        del first, done, deadline, sim
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
