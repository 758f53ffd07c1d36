"""Sharded peer-to-peer sample serving: shard map, peer serve, faults, scale.

Four concern groups:

* **placement** — the stable-hash shard map: totality (every path exactly
  one owner), determinism across instances and salts, the
  DistributedFilesystem convention match, and input validation;
* **peer serving** — owner reads fill the local tier from the backing
  store once; non-owner reads ride the RPC data plane to the owner and
  coalesce with concurrent fetches, keeping the cooperative invariant
  (at most one backing read per sample per epoch cluster-wide);
* **chaos** — RPC drop/delay plans from :mod:`repro.faults` degrade peer
  serving to backing-store fallback without hangs, duplicate tier inserts,
  or nondeterminism;
* **scale** — ``slow``-marked >=512-node sweeps (run in their own CI step;
  tier-1 deselects the marker).
"""

import hashlib
import json
import os

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterMount,
    ClusterStore,
    ShardMap,
    UnknownSample,
)
from repro.core import RetryPolicy, RpcApplicationError
from repro.experiments.cluster import run_cluster_serving
from repro.faults import RPC_DELAY, RPC_DROP, FaultEvent, FaultInjector, FaultPlan
from repro.simcore import ProcessError, RandomStreams, Simulator
from repro.simcore.event import Event
from repro.storage.distributed import DistributedFilesystem
from repro.storage.filesystem import ReadFault, TransientReadError
from repro.storage.posix import BadFileDescriptor
from repro.telemetry import Telemetry

KiB = 1024


# ---------------------------------------------------------------- helpers
def _drive(sim, gen):
    """Run ``gen`` as a process to completion; return {'value' | 'exc'}."""
    out = {}

    def wrapper():
        try:
            out["value"] = yield from gen()
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            out["exc"] = exc

    sim.process(wrapper())
    sim.run()
    return out


def _cluster(n_nodes=4, n_files=32, file_size=16 * KiB, **config_kw):
    """A backing PFS + cluster store with a staged catalog."""
    sim = Simulator()
    backing = DistributedFilesystem(sim, n_targets=2)
    paths = [f"/data/{i:05d}" for i in range(n_files)]
    backing.create_many((p, file_size) for p in paths)
    config = ClusterConfig(
        n_nodes=n_nodes,
        tier_capacity_bytes=config_kw.pop(
            "tier_capacity_bytes", n_files * file_size
        ),
        **config_kw,
    )
    store = ClusterStore(sim, backing, paths, config)
    return sim, backing, store, paths


def _owned_by(store, node_index):
    """A catalog path owned by ``node_index`` (skip if its shard is empty)."""
    shard = store.shard_map.shard(node_index)
    if not shard:
        pytest.skip(f"hash left node {node_index} without a shard")
    return shard[0]


def _scan(store, paths):
    """Every node reads every path once; returns when all are done."""
    sim = store.sim

    def trainer(node):
        for p in paths:
            yield node.read(p)

    for node in store.nodes:
        sim.process(trainer(node))
    sim.run()


# ---------------------------------------------------------------- shard map
def test_shard_map_total_and_disjoint():
    paths = [f"/d/{i:04d}" for i in range(257)]
    smap = ShardMap(paths, n_nodes=7)
    seen = {}
    for node in range(7):
        for path in smap.shard(node):
            assert path not in seen, "path owned by two nodes"
            seen[path] = node
    assert set(seen) == set(paths)
    assert sum(smap.shard_sizes()) == len(paths) == len(smap)
    for path in paths:
        assert smap.owner_of(path) == seen[path] == smap.place(path)


def test_shard_map_stable_across_instances():
    paths = [f"/d/{i}" for i in range(100)]
    a, b = ShardMap(paths, 5), ShardMap(list(reversed(paths)), 5)
    assert dict(a.assignments()) == dict(b.assignments())
    assert [a.shard(n) for n in range(5)] != [b.shard(n) for n in range(5)] or True
    # catalog order is preserved within each shard
    for n in range(5):
        assert list(a.shard(n)) == [p for p in paths if a.owner_of(p) == n]


def test_shard_map_matches_distributed_fs_placement():
    """salt=0 placement is the same convention as OST hash placement."""
    sim = Simulator()
    pfs = DistributedFilesystem(sim, n_targets=6)
    paths = [f"/data/{i:05d}" for i in range(64)]
    pfs.create_many((p, 1024) for p in paths)
    smap = ShardMap(paths, n_nodes=6)
    for path in paths:
        assert smap.owner_of(path) == pfs.target_of(path).index


def test_shard_map_salt_perturbs_placement():
    paths = [f"/d/{i}" for i in range(200)]
    base, salted = ShardMap(paths, 8, salt=0), ShardMap(paths, 8, salt=1)
    assert any(base.owner_of(p) != salted.owner_of(p) for p in paths)
    # each salt is individually deterministic
    assert dict(salted.assignments()) == dict(ShardMap(paths, 8, salt=1).assignments())


def test_shard_map_unknown_and_coverage():
    smap = ShardMap(["/d/a", "/d/b"], 3)
    assert smap.covers("/d/a") and "/d/b" in smap
    assert not smap.covers("/d/zzz")
    with pytest.raises(UnknownSample):
        smap.owner_of("/d/zzz")
    # place() stays a total function even off-catalog
    assert 0 <= smap.place("/d/zzz") < 3


def test_shard_map_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ShardMap(["/a"], n_nodes=0)
    with pytest.raises(ValueError):
        ShardMap(["/a"], n_nodes=2, salt=-1)
    with pytest.raises(ValueError):
        ShardMap(["/a", "/a"], n_nodes=2)


def test_shard_map_balance_metrics():
    paths = [f"/d/{i:05d}" for i in range(1000)]
    smap = ShardMap(paths, 4)
    assert smap.imbalance() >= 1.0
    assert smap.spread() >= 1.0
    assert smap.imbalance() < 1.5, "hash placement should be roughly even"
    lonely = ShardMap([], 2)
    assert lonely.spread() == 1.0 and lonely.imbalance() == 1.0


# ---------------------------------------------------------------- peer serving
def test_owner_read_hits_backing_once_then_tier():
    sim, backing, store, paths = _cluster(n_nodes=2)
    node = store.node(0)
    path = _owned_by(store, 0)

    def go():
        first = yield node.read(path)
        second = yield node.read(path)
        return first, second

    out = _drive(sim, go)
    assert out["value"] == (16 * KiB, 16 * KiB)
    assert store.counters.get("backing_reads") == 1
    assert node.tier.counters.get("fast_hits") == 1
    assert node.counters.get("local_requests") == 2


def test_remote_read_served_by_owner_peer():
    sim, backing, store, paths = _cluster(n_nodes=2)
    path = _owned_by(store, 1)
    requester, owner = store.node(0), store.node(1)

    out = _drive(sim, lambda: (yield requester.read(path)))
    assert out["value"] == 16 * KiB
    assert requester.counters.get("peer_hits") == 1
    assert requester.counters.get("remote_requests") == 1
    assert owner.counters.get("peer_serves") == 1
    assert store.counters.get("backing_reads") == 1


def test_remote_reads_not_admitted_by_default():
    sim, backing, store, paths = _cluster(n_nodes=2)
    path = _owned_by(store, 1)
    requester, owner = store.node(0), store.node(1)

    def go():
        yield requester.read(path)
        yield requester.read(path)

    _drive(sim, go)
    assert requester.resident_files == 0, "non-owner must not cache by default"
    assert owner.resident_files == 1
    # the second read is a peer *tier* hit, still only one backing read
    assert store.counters.get("backing_reads") == 1
    assert owner.tier.counters.get("fast_hits") >= 1


def test_cache_remote_reads_admits_locally():
    sim, backing, store, paths = _cluster(n_nodes=2, cache_remote_reads=True)
    path = _owned_by(store, 1)
    requester = store.node(0)

    def go():
        yield requester.read(path)
        yield requester.read(path)

    _drive(sim, go)
    assert requester.resident_files == 1
    assert requester.tier.counters.get("fast_hits") == 1
    assert requester.counters.get("peer_hits") == 1, "second read never left the node"


def test_concurrent_cold_reads_coalesce_to_one_backing_read():
    sim, backing, store, paths = _cluster(n_nodes=8, n_files=8)
    path = paths[0]
    for node in store.nodes:
        sim.process((lambda n: (yield n.read(path)))(node))
    sim.run()
    assert store.counters.get("backing_reads") == 1
    assert sum(n.counters.get("reads") for n in store.nodes) == 8


def test_serve_rejects_unowned_path():
    sim, backing, store, paths = _cluster(n_nodes=2)
    path = _owned_by(store, 1)
    wrong = store.node(0)

    out = _drive(
        sim, lambda: (yield wrong.channel.request(wrong.serve, path))
    )
    assert isinstance(out["exc"], RpcApplicationError)
    assert isinstance(out["exc"].__cause__, UnknownSample)


def test_full_scan_upholds_cooperative_invariant():
    sim, backing, store, paths = _cluster(n_nodes=4, n_files=40)
    store.begin_epoch()
    _scan(store, paths)
    totals = store.totals()
    assert totals["reads"] == 4 * 40
    assert store.max_epoch_reads_per_path() == 1
    assert store.epoch_backing_reads == 40
    assert backing.max_epoch_reads_per_path() == 1
    assert store.cluster_hit_rate() == pytest.approx(1 - 40 / 160)
    assert store.peer_hit_rate() == 1.0


def test_second_epoch_is_fully_cluster_resident():
    sim, backing, store, paths = _cluster(n_nodes=4, n_files=24)
    store.begin_epoch()
    _scan(store, paths)
    assert store.epoch_backing_reads == 24
    store.begin_epoch()
    _scan(store, paths)
    assert store.epoch_backing_reads == 0, "warm epoch must not touch the backing store"
    assert store.max_epoch_reads_per_path() == 0
    assert store.resident_files() == 24


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=0, tier_capacity_bytes=1)
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=1, tier_capacity_bytes=0)
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=1, tier_capacity_bytes=1, fast_profile="floppy")
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=1, tier_capacity_bytes=1, rpc_timeout=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=1, tier_capacity_bytes=1, salt=-3)
    with pytest.raises(ValueError):
        ClusterConfig(n_nodes=1, tier_capacity_bytes=1, rpc_latency=-1e-3)


# ---------------------------------------------------------------- POSIX mount
def test_cluster_mount_posix_roundtrip():
    sim, backing, store, paths = _cluster(n_nodes=2)
    mount = store.mount(0)
    assert isinstance(mount, ClusterMount)
    path = paths[0]

    def go():
        fd = mount.open(path)
        assert mount.fstat_size(fd) == 16 * KiB
        nbytes = yield mount.pread(fd, 16 * KiB, 0)
        # pread never moves the cursor; read() starts at offset 0
        tail = yield mount.read(fd, 1)
        mount.close(fd)
        return nbytes, tail

    out = _drive(sim, go)
    nbytes, tail = out["value"]
    assert nbytes == 16 * KiB
    assert tail == 1
    assert store.node(0).counters.get("reads") >= 1, "covered read went through the cluster"
    with pytest.raises(BadFileDescriptor):
        mount.fstat_size(999)


def test_cluster_mount_uncovered_paths_fall_through():
    sim, backing, store, paths = _cluster(n_nodes=2)
    backing.create("/val/000", 4 * KiB)  # outside the sharded catalog
    mount = store.mount(0)

    def go():
        whole = yield mount.read_whole("/val/000")
        fd = mount.open("/val/000")
        part = yield mount.pread(fd, 1 * KiB, 1 * KiB)
        mount.close(fd)
        return whole, part

    out = _drive(sim, go)
    assert out["value"] == (4 * KiB, 1 * KiB)
    assert store.node(0).counters.get("reads") == 0
    assert store.counters.get("backing_reads") == 0, "fall-through skips the cluster ledger"


def test_cluster_mount_read_whole_uses_cooperative_cache():
    sim, backing, store, paths = _cluster(n_nodes=2)
    mount = store.mount(0)
    out = _drive(sim, lambda: (yield mount.read_whole(paths[0])))
    assert out["value"] == 16 * KiB
    assert store.node(0).counters.get("reads") == 1


# ---------------------------------------------------------------- RPC data plane
def test_channel_request_awaits_far_side_event():
    sim = Simulator()
    from repro.core.control.rpc import ControlChannel

    ch = ControlChannel(sim, latency=1e-3)
    ev = Event(sim)
    sim.at(0.05, ev.succeed, 42)
    out = _drive(sim, lambda: (yield ch.request(lambda: ev)))
    assert out["value"] == 42
    assert sim.now >= 0.05 + 1e-3, "reply leg waits for the far-side event"


def test_channel_request_far_side_event_failure_is_fatal():
    sim = Simulator()
    from repro.core.control.rpc import ControlChannel

    ch = ControlChannel(sim, latency=1e-3)
    ev = Event(sim)
    sim.at(0.01, ev.fail, RuntimeError("tier exploded"))
    out = _drive(
        sim,
        lambda: (yield ch.request_with_retry(lambda: ev, policy=RetryPolicy())),
    )
    assert isinstance(out["exc"], RpcApplicationError), (
        "far-side failures must not be retried as transport errors"
    )


# ---------------------------------------------------------------- chaos
def _drop_plan(duration=0.02):
    return FaultPlan([FaultEvent(RPC_DROP, time=0.0, duration=duration)])


def test_rpc_drops_fall_back_to_backing_store():
    sim, backing, store, paths = _cluster(
        n_nodes=2, n_files=12,
        rpc_timeout=2e-3,
        retry=RetryPolicy(max_attempts=2, base_delay=1e-4, budget=0.05),
    )
    injector = FaultInjector(sim, streams=RandomStreams(0))
    for ch in store.channels():
        injector.attach_channel(ch)
    injector.install(_drop_plan(duration=10.0))  # partitioned for the whole run

    store.begin_epoch()
    _scan(store, paths)  # completes: no hang
    totals = store.totals()
    assert totals["reads"] == 2 * 12
    assert totals["peer_hits"] == 0
    assert totals["fallback_reads"] == totals["remote_requests"] > 0
    # every sample was still served, from the backing store
    assert store.epoch_unique_backing_reads == 12


def test_rpc_delay_retries_without_duplicate_inserts():
    sim, backing, store, paths = _cluster(
        n_nodes=2, n_files=16,
        rpc_timeout=1e-3,
        retry=RetryPolicy(max_attempts=4, base_delay=1e-4, budget=0.5),
    )
    injector = FaultInjector(sim, streams=RandomStreams(0))
    for ch in store.channels():
        injector.attach_channel(ch)
    # Delay longer than the timeout: every first attempt times out, retries
    # land after the window closes.
    injector.install(
        FaultPlan([FaultEvent(RPC_DELAY, time=0.0, duration=5e-3, severity=5e-3)])
    )

    store.begin_epoch()
    _scan(store, paths)
    for node in store.nodes:
        shard = store.shard_map.shard(node.index)
        assert node.resident_files == len(shard), "no duplicate/missing inserts"
        assert node.resident_bytes == len(shard) * 16 * KiB
    assert store.max_epoch_reads_per_path() <= 2, (
        "at-most-once ambiguity may add a fallback read, never a storm"
    )


def _failing_serve(path):
    raise RuntimeError(f"peer tier exploded reading {path}")


def test_fatal_peer_failure_falls_back_to_backing_store():
    """DESIGN §9: a peer that fails fatally (``RpcApplicationError``: its
    ``serve`` raised) is not retried; the requester reads the sample from
    the backing store instead."""
    sim, backing, store, paths = _cluster(n_nodes=2, n_files=8)
    path = _owned_by(store, 1)
    store.node(1).serve = _failing_serve
    out = _drive(sim, lambda: (yield store.node(0).read(path)))
    assert out == {"value": 16 * KiB}
    assert store.node(0).counters.get("peer_misses") == 1
    assert store.node(0).counters.get("fallback_reads") == 1
    assert store.counters.get("backing_reads") == 1
    assert store.node(1).channel.counters.get("retries") == 0


def _error_chain(exc):
    """Each error's type, and the process it names if it is a ProcessError."""
    chain = []
    while exc is not None:
        name = str(exc).split(" failed:")[0] if isinstance(exc, ProcessError) else ""
        chain.append((type(exc).__name__, name))
        exc = exc.__cause__
    return chain


@pytest.mark.parametrize("cache_remote_reads", [False, True])
def test_failed_fallback_fails_the_read_through_the_tier_and_the_peer_fetch(
    cache_remote_reads,
):
    """When the fallback read fails too, the read fails with the tier
    fetch's ProcessError around the peer fetch's, whether the tier handed
    its event down (a remote read it does not admit) or not."""
    sim, backing, store, paths = _cluster(
        n_nodes=2, n_files=8, cache_remote_reads=cache_remote_reads
    )
    path = _owned_by(store, 1)
    store.node(1).serve = _failing_serve
    backing.fault_hook = lambda p, nbytes: ReadFault(error=TransientReadError(p))
    out = _drive(sim, lambda: (yield store.node(0).read(path)))
    assert _error_chain(out["exc"]) == [
        ("ProcessError", "process 'cluster.n0.tier.fetch'"),
        ("ProcessError", "process 'cluster.n0.peer_fetch'"),
        ("ProcessError", f"process 'pfsread:{path}'"),
        ("TransientReadError", ""),
    ]
    assert not store.node(0).tier._fetching


def test_unadmitted_fetch_of_an_owned_sample_reads_the_backing_store():
    sim, backing, store, paths = _cluster(n_nodes=2, n_files=8)
    node = store.node(0)
    path = _owned_by(store, 0)
    out = _drive(sim, lambda: (yield node.tier.fetch_through(path, admit=False)))
    assert out == {"value": 16 * KiB}
    assert node.resident_files == 0
    backing.fault_hook = lambda p, nbytes: ReadFault(error=TransientReadError(p))
    out = _drive(sim, lambda: (yield node.tier.fetch_through(path, admit=False)))
    assert _error_chain(out["exc"]) == [
        ("ProcessError", "process 'cluster.n0.tier.fetch'"),
        ("ProcessError", f"process 'pfsread:{path}'"),
        ("TransientReadError", ""),
    ]
    assert store.counters.get("backing_reads") == 2


def test_faulted_run_is_byte_deterministic():
    plan = FaultPlan(
        [
            FaultEvent(RPC_DROP, time=0.0, duration=5e-3),
            FaultEvent(RPC_DELAY, time=6e-3, duration=5e-3, severity=2e-3),
        ]
    )

    def run():
        report = run_cluster_serving(
            seed=3, n_nodes=4, n_files=24, epochs=2, rpc_timeout=2e-3,
            fault_plan=plan,
        )
        return json.dumps(report.metrics_dict(), sort_keys=True)

    first, second = run(), run()
    assert first == second
    report = json.loads(first)
    assert report["completed"]
    assert report["faults_injected"] == 2


# ---------------------------------------------------------------- experiment
def test_cluster_serving_report_invariant_and_determinism():
    a = run_cluster_serving(seed=1, n_nodes=6, n_files=36, epochs=2)
    b = run_cluster_serving(seed=1, n_nodes=6, n_files=36, epochs=2)
    assert a.metrics_dict() == b.metrics_dict()
    assert a.completed
    assert a.worst_reads_per_path == 1
    assert a.worst_backing_per_unique == 1.0  # cold epoch reads each sample once
    assert a.per_epoch[1].backing_reads == 0
    assert a.requests == 6 * 36 * 2


def test_cluster_serving_rejects_bad_args():
    with pytest.raises(ValueError):
        run_cluster_serving(n_nodes=0)
    with pytest.raises(ValueError):
        run_cluster_serving(epochs=0)
    with pytest.raises(ValueError):
        run_cluster_serving(tier_slack=0.0)


def test_cluster_read_path_event_budget(kernel_probe):
    """A fault-free cooperative-cache read costs at most 9.4 kernel events
    (6.17 measured) and spawns no process: the storage, tier, cluster and
    RPC layers are callback chains, and a settled RPC's deadline timer is
    cancelled rather than left to fire.  Counted the way the benchmark
    probe counts them."""
    report = run_cluster_serving(seed=0, n_nodes=8, n_files=64, epochs=2)
    assert report.completed and report.requests == 8 * 64 * 2
    assert kernel_probe.events / report.requests <= 9.4
    # Only the experiment's own driver and per-epoch trainers are processes.
    spawned = kernel_probe.spawned
    assert len(spawned) == 1 + 8 * 2
    assert all(f.endswith(os.path.join("experiments", "cluster.py")) for f in spawned)


def test_cluster_read_costs_no_grant_event(kernel_probe):
    """At most 8.3 kernel events per fault-free read (6.17 measured, 7.92
    while a peer read relayed through two events of its own, 8.91 when
    every fast-tier read waited for a seek-slot grant event): a free
    seek slot is taken in place, so only a contended slot costs an event."""
    report = run_cluster_serving(seed=0, n_nodes=8, n_files=64, epochs=2)
    assert report.completed and report.requests == 8 * 64 * 2
    assert kernel_probe.events / report.requests <= 8.3


def test_cluster_read_call_budget(package_calls):
    """At most 100 calls per fault-free read into functions of the package
    (60.9 measured on Python 3.11, 76.7 while a peer read relayed through
    two events of its own, 117.9 when every one-callback timer was a
    Timeout and every counter an ``add`` call).  Counted the way the
    Figure-2 call budget counts them."""
    report, calls = package_calls(
        run_cluster_serving, seed=0, n_nodes=8, n_files=64, epochs=2
    )
    assert report.completed and report.requests == 8 * 64 * 2
    assert calls / report.requests <= 100


def test_peer_read_settles_one_event(kernel_probe, package_calls):
    """At most 6.5 kernel events and 65 calls into the package per
    fault-free read (6.17 and 60.9 measured; 7.92 and 76.7 while the peer
    fetch and the RPC retry each relayed their child's value through an
    event of their own): the exchange settles the requester's tier fetch
    directly."""
    report, calls = package_calls(
        run_cluster_serving, seed=0, n_nodes=8, n_files=64, epochs=2
    )
    assert report.completed and report.requests == 8 * 64 * 2
    assert kernel_probe.events / report.requests <= 6.5
    assert calls / report.requests <= 65


def _span_digest(fault_plan):
    """The sorted multiset of a traced 4 x 32 run's spans: name, start,
    end and attributes; ids and lanes left out."""
    tel = Telemetry()
    run_cluster_serving(
        seed=0, n_nodes=4, n_files=32, epochs=1, fault_plan=fault_plan, telemetry=tel
    )
    spans = sorted(
        (s.name, s.start, s.end, json.dumps(s.args, sort_keys=True)) for s in tel.events
    )
    return len(spans), hashlib.sha256(json.dumps(spans).encode()).hexdigest()


@pytest.mark.parametrize(
    "fault_plan, pinned",
    [
        (None, (684, "cc1df3c2fa6122e2c7542be2ade8722f4f50ad577ced01c31b8a952f08f76401")),
        (
            FaultPlan([FaultEvent(RPC_DROP, time=0.0, duration=0.01)]),
            (684, "dba7f987e56ccd2eb9ad50633877a8bb94c50770a3a4c4b55f90ac18fd4d3664"),
        ),
    ],
    ids=["fault-free", "rpc-drop"],
)
def test_traced_cluster_spans_are_pinned(fault_plan, pinned):
    """The traced read path's spans, peer and fallback reads alike, as
    they were while every layer of a peer read relayed its own event.
    Spans that share a timestamp may begin and end in another order."""
    assert _span_digest(fault_plan) == pinned


def test_distributed_job_over_cluster_store():
    from repro.dataset.catalog import DatasetCatalog
    from repro.distributed.training import DistributedTrainingJob
    from repro.frameworks.models import get_model

    sim = Simulator()
    streams = RandomStreams(3)
    backing = DistributedFilesystem(sim, n_targets=2)
    catalog = DatasetCatalog("/data/train", [16 * KiB] * 48)
    catalog.materialize(backing)
    store = ClusterStore(
        sim, backing, catalog.filenames(),
        ClusterConfig(n_nodes=4, tier_capacity_bytes=48 * 16 * KiB),
    )
    job = DistributedTrainingJob(
        sim, shared_posix=None, catalog=catalog, model=get_model("lenet"),
        n_nodes=4, global_batch=8, epochs=1, streams=streams,
        cluster_store=store,
    )
    result = job.run()
    assert result.steps == job.epochs * job.steps_per_epoch
    assert store.totals()["reads"] > 0
    assert store.max_epoch_reads_per_path() == 1


def test_multitenant_jobs_share_cooperative_cache():
    from repro.dataset.catalog import DatasetCatalog
    from repro.frameworks.models import get_model
    from repro.frameworks.training import TrainingConfig
    from repro.multitenant.cluster import SharedStorageCluster
    from repro.storage.posix import PosixLayer

    sim = Simulator()
    streams = RandomStreams(5)
    backing = DistributedFilesystem(sim, n_targets=2)
    train = DatasetCatalog("/data/train", [16 * KiB] * 32, name="train")
    val = DatasetCatalog("/data/val", [16 * KiB] * 8, name="val")
    train.materialize(backing)
    val.materialize(backing)
    store = ClusterStore(
        sim, backing, train.filenames(),
        ClusterConfig(n_nodes=2, tier_capacity_bytes=32 * 16 * KiB),
    )
    cluster = SharedStorageCluster(
        sim, shared_posix=PosixLayer(sim, backing), control_period=1e-3,
        coordination="none", cluster_store=store,
    )
    cfg = TrainingConfig(global_batch=8, epochs=1)
    for _ in range(2):
        cluster.add_job(train, val, get_model("lenet"), cfg, streams)
    result = cluster.run()
    assert result.makespan > 0
    # two tenants scanning the same catalog: still one backing read/sample
    assert store.max_epoch_reads_per_path() == 1
    assert store.totals()["reads"] >= 2 * 32


# ---------------------------------------------------------------- scale (slow)
@pytest.mark.slow
def test_cluster_512_nodes_upholds_invariant():
    report = run_cluster_serving(seed=0, n_nodes=512, n_files=64, epochs=1)
    assert report.completed
    assert report.requests == 512 * 64
    assert report.worst_reads_per_path == 1
    assert report.backing_reads == 64
    assert report.cluster_hit_rate >= 0.99


@pytest.mark.slow
def test_cluster_1024_nodes_upholds_invariant():
    report = run_cluster_serving(seed=0, n_nodes=1024, n_files=48, epochs=1)
    assert report.completed
    assert report.worst_reads_per_path == 1
    assert report.backing_reads == 48
    assert report.peer_hit_rate == 1.0
