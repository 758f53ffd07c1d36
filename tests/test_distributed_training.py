"""Tests for multi-node synchronous training (paper §VII direction)."""

import pytest

from repro.dataset import imagenet_like, tiny_dataset
from repro.distributed import (
    DistributedTrainingJob,
    GRADIENT_BYTES,
    StepBarrier,
    allreduce_cost,
)
from repro.frameworks import ALEXNET, LENET
from repro.perfmodel import context_from_decision_args
from repro.simcore import RandomStreams, Simulator
from repro.storage import BlockDevice, Filesystem, PosixLayer, intel_p4600, ramdisk
from repro.telemetry import Telemetry


# ---------------------------------------------------------------- StepBarrier
def test_barrier_releases_when_all_arrive():
    sim = Simulator()
    barrier = StepBarrier(sim, parties=3)
    release_times = []

    def party(delay):
        yield sim.timeout(delay)
        yield barrier.arrive(0)
        release_times.append(sim.now)

    for d in (1.0, 2.0, 5.0):
        sim.process(party(d))
    sim.run()
    assert release_times == [5.0, 5.0, 5.0]
    assert barrier.total_wait == pytest.approx((5 - 1) + (5 - 2))


def test_barrier_round_cost_applied():
    sim = Simulator()
    barrier = StepBarrier(sim, parties=2, round_cost=0.5)

    def party():
        yield barrier.arrive(0)
        return sim.now

    a = sim.process(party())
    b = sim.process(party())
    sim.run()
    assert a.value == pytest.approx(0.5)
    assert b.value == pytest.approx(0.5)


def test_barrier_multiple_rounds():
    sim = Simulator()
    barrier = StepBarrier(sim, parties=2)

    def party(delays):
        for r, d in enumerate(delays):
            yield sim.timeout(d)
            yield barrier.arrive(r)
        return sim.now

    a = sim.process(party([1.0, 1.0]))
    b = sim.process(party([2.0, 3.0]))
    sim.run()
    assert a.value == b.value == pytest.approx(5.0)
    assert barrier.counters.get("rounds") == 2


def test_barrier_out_of_step_party_rejected():
    sim = Simulator()
    barrier = StepBarrier(sim, parties=1)

    def party():
        yield barrier.arrive(0)
        with pytest.raises(ValueError):
            barrier.arrive(0)  # round already completed: party out of step
        yield sim.timeout(0)

    p = sim.process(party())
    sim.run(until=p)
    assert p.ok


def test_barrier_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        StepBarrier(sim, parties=0)
    with pytest.raises(ValueError):
        StepBarrier(sim, parties=1, round_cost=-1.0)
    barrier = StepBarrier(sim, parties=1)
    with pytest.raises(ValueError):
        barrier.arrive(-1)


# ---------------------------------------------------------------- allreduce model
def test_allreduce_cost_shape():
    assert allreduce_cost(LENET, 1) == 0.0
    two = allreduce_cost(ALEXNET, 2)
    eight = allreduce_cost(ALEXNET, 8)
    assert eight > two > 0  # ring term grows with (n-1)/n
    # AlexNet's 244 MB gradients dwarf LeNet's quarter-megabyte.
    assert allreduce_cost(ALEXNET, 4) > allreduce_cost(LENET, 4) * 50
    assert set(GRADIENT_BYTES) == {"lenet", "alexnet", "resnet50"}


# ---------------------------------------------------------------- job execution
def make_job(n_nodes, use_prisma, scale=400, batch=32, epochs=1):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    split = imagenet_like(streams, scale=scale)
    split.train.materialize(fs)
    posix = PosixLayer(sim, fs)
    job = DistributedTrainingJob(
        sim, posix, split.train, LENET, n_nodes=n_nodes, global_batch=batch,
        epochs=epochs, streams=streams.spawn("job"), use_prisma=use_prisma,
        control_period=1.0 / scale,
    )
    return job


def test_job_runs_expected_steps():
    job = make_job(n_nodes=2, use_prisma=False)
    result = job.run()
    assert result.n_nodes == 2
    assert result.steps == job.steps_per_epoch
    assert result.total_time > 0
    assert len(result.nodes) == 2
    assert job.barrier.counters.get("rounds") == result.steps


def test_job_prisma_faster_than_baseline():
    baseline = make_job(2, use_prisma=False).run()
    prisma = make_job(2, use_prisma=True).run()
    assert prisma.total_time < baseline.total_time


def test_node_decisions_are_model_data():
    """Node stages come from the builder, so every control decision
    carries its feature labels and parses as performance-model data."""
    job = make_job(2, use_prisma=True)
    tel = Telemetry().attach(job.sim)
    job.run()
    decisions = [s for s in tel.instants("control") if s.name == "control.decision"]
    assert decisions, "the nodes' controller made no decisions"
    for d in decisions:
        assert d.args["backend_kind"] == "posix"
        assert d.args["lookahead_epochs"] == 0
        assert context_from_decision_args(d.args) is not None


def test_job_prisma_smooths_barrier_jitter():
    baseline = make_job(4, use_prisma=False).run()
    prisma = make_job(4, use_prisma=True).run()
    assert prisma.mean_barrier_wait < baseline.mean_barrier_wait


def test_job_more_nodes_faster_baseline():
    one = make_job(1, use_prisma=False).run()
    four = make_job(4, use_prisma=False).run()
    assert four.total_time < one.total_time
    eff = four.scaling_efficiency(one.total_time)
    assert 0.5 < eff <= 1.05


def test_job_validation():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    streams = RandomStreams(0)
    split = tiny_dataset(streams, n_train=32, n_val=4)
    split.train.materialize(fs)
    posix = PosixLayer(sim, fs)

    def build(**kw):
        return DistributedTrainingJob(
            sim, posix, split.train, LENET, epochs=1, streams=streams, **kw
        )

    with pytest.raises(ValueError):
        build(n_nodes=0, global_batch=8)
    with pytest.raises(ValueError):
        build(n_nodes=3, global_batch=8)  # uneven split
    with pytest.raises(ValueError):
        build(n_nodes=2, global_batch=64)  # dataset too small
