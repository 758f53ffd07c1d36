"""Tests for the multi-tenant shared-storage scenarios."""

import pytest

from repro.core.control.monitor import MetricsHistory
from repro.core.optimization import MetricsSnapshot
from repro.dataset import tiny_dataset
from repro.frameworks import LENET, TrainingConfig
from repro.metrics import jain_fairness
from repro.multitenant import (
    FairShareGlobalPolicy,
    PriorityGlobalPolicy,
    SharedStorageCluster,
)
from repro.perfmodel import context_from_decision_args
from repro.simcore import RandomStreams, Simulator
from repro.storage import BlockDevice, Filesystem, PosixLayer, intel_p4600
from repro.telemetry import Telemetry


def make_cluster(coordination, n_jobs=2, global_policy=None, n_train=48):
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    posix = PosixLayer(sim, fs)
    cluster = SharedStorageCluster(
        sim,
        posix,
        control_period=1e-3,
        coordination=coordination,
        global_policy=global_policy,
    )
    for j in range(n_jobs):
        split = tiny_dataset(streams.spawn(f"job{j}"), n_train=n_train, n_val=8)
        # Distinct path prefixes per tenant.
        split.train.prefix = f"/job{j}/train"  # type: ignore[misc]
        split.validation.prefix = f"/job{j}/val"  # type: ignore[misc]
        split.materialize(fs)
        cluster.add_job(
            split.train, split.validation, LENET,
            TrainingConfig(epochs=1, global_batch=8), streams.spawn(f"seed{j}"),
        )
    return cluster


def hist_with(name, producers, waits, hits, queue=100):
    h = MetricsHistory(name)
    h.append(
        MetricsSnapshot(
            time=1.0, requests=hits + waits, hits=hits, waits=waits,
            buffer_level=0, buffer_capacity=64,
            producers_allocated=producers, producers_active=producers,
            bytes_fetched=1e6, queue_remaining=queue,
        )
    )
    h.append(
        MetricsSnapshot(
            time=2.0, requests=2 * (hits + waits), hits=2 * hits, waits=2 * waits,
            buffer_level=0, buffer_capacity=64,
            producers_allocated=producers, producers_active=producers,
            bytes_fetched=2e6, queue_remaining=queue,
        )
    )
    return h


# ---------------------------------------------------------------- cluster runs
@pytest.mark.parametrize("coordination", ["none", "independent"])
def test_cluster_runs_all_tenants(coordination):
    cluster = make_cluster(coordination)
    result = cluster.run()
    assert len(result.jobs) == 2
    assert all(j.result is not None for j in result.jobs)
    assert result.makespan > 0
    assert result.mean_job_time() > 0


def test_cluster_global_coordination_runs():
    cluster = make_cluster(
        "global",
        global_policy=FairShareGlobalPolicy(total_producer_budget=8, per_job_cap=4),
    )
    result = cluster.run()
    assert all(j.result is not None for j in result.jobs)
    # Global coordination respects the per-job cap.
    for job in result.jobs:
        assert job.prefetcher is not None
        assert job.prefetcher.allocated_producers.max_seen() <= 4


@pytest.mark.parametrize("coordination", ["independent", "global"])
def test_tenant_decisions_are_model_data(coordination):
    """Tenants' stages come from the builder, so every control decision
    carries its feature labels and parses as performance-model data."""
    cluster = make_cluster(
        coordination,
        global_policy=(
            FairShareGlobalPolicy(total_producer_budget=8, per_job_cap=4)
            if coordination == "global" else None
        ),
    )
    tel = Telemetry().attach(cluster.sim)
    cluster.run()
    decisions = [s for s in tel.instants("control") if s.name == "control.decision"]
    assert decisions, "the tenants' controllers made no decisions"
    for d in decisions:
        assert d.args["backend_kind"] == "posix"
        assert d.args["lookahead_epochs"] == 0
        assert context_from_decision_args(d.args) is not None


def test_cluster_prisma_beats_vanilla_on_shared_storage():
    vanilla = make_cluster("none").run()
    prisma = make_cluster("independent").run()
    assert prisma.mean_job_time() < vanilla.mean_job_time()


def test_cluster_validation():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, intel_p4600()))
    posix = PosixLayer(sim, fs)
    with pytest.raises(ValueError):
        SharedStorageCluster(sim, posix, 1e-3, coordination="chaos")
    with pytest.raises(ValueError):
        SharedStorageCluster(sim, posix, 1e-3, coordination="global")


# ---------------------------------------------------------------- fair-share policy
def test_fair_share_gives_starving_tenant_more():
    policy = FairShareGlobalPolicy(total_producer_budget=8, per_job_cap=6)
    histories = {
        "hungry": hist_with("hungry", producers=1, waits=100, hits=0),
        "calm": hist_with("calm", producers=4, waits=0, hits=100),
    }
    decisions = policy.decide_all(histories)
    assert decisions["hungry"].producers > 1
    # The calm tenant stays at (or is reined in toward) its fair share;
    # an unchanged allocation emits no decision.
    if "calm" in decisions:
        assert decisions["calm"].producers <= 4


def test_fair_share_total_allocation_within_budget():
    policy = FairShareGlobalPolicy(total_producer_budget=8, per_job_cap=8)
    histories = {
        f"job{i}": hist_with(f"job{i}", producers=1, waits=50, hits=50)
        for i in range(4)
    }
    allocation = policy._allocate(
        {name: 0.5 for name in histories}
    )
    assert sum(allocation.values()) <= 8
    assert all(v >= 1 for v in allocation.values())


def test_fair_share_idle_tenants_keep_minimum():
    policy = FairShareGlobalPolicy(total_producer_budget=8)
    allocation = policy._allocate({"idle": 0.0, "busy": 0.9})
    assert allocation["idle"] == 1
    assert allocation["busy"] > 1


def test_fair_share_ignores_drained_tenants():
    policy = FairShareGlobalPolicy()
    histories = {"done": hist_with("done", producers=2, waits=50, hits=0, queue=0)}
    assert policy.decide_all(histories) == {}


def test_fair_share_validation():
    with pytest.raises(ValueError):
        FairShareGlobalPolicy(total_producer_budget=0)
    with pytest.raises(ValueError):
        FairShareGlobalPolicy(per_job_cap=0)


# ---------------------------------------------------------------- priority policy
def test_priority_policy_prefers_high_priority():
    policy = PriorityGlobalPolicy(
        high_priority=("vip",), total_producer_budget=8,
        high_priority_producers=6, best_effort_cap=2,
    )
    histories = {
        "vip": hist_with("vip", producers=1, waits=100, hits=0),
        "batch": hist_with("batch", producers=4, waits=100, hits=0),
    }
    decisions = policy.decide_all(histories)
    assert decisions["vip"].producers == 6
    assert decisions["batch"].producers == 2


# ---------------------------------------------------------------- fairness metric
def test_jain_fairness_bounds():
    assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
    skewed = jain_fairness([10, 1, 1, 1])
    assert 0.25 <= skewed < 1.0
    with pytest.raises(ValueError):
        jain_fairness([])
