"""Coverage for corners the main suites don't reach."""

import pytest

from repro.core.integrations import PrismaUDSServer, PrismaTorchClient
from repro.core import PrismaConfig, build_prisma
from repro.dataset import tiny_dataset
from repro.experiments import ExperimentScale, run_torch_trial
from repro.frameworks import GpuEnsemble, LENET
from repro.simcore import RandomStreams, Simulator
from repro.storage import BlockDevice, DeviceProfile, Filesystem, PosixLayer, ramdisk


# ---------------------------------------------------------------- RNG derivation
def test_seed_for_is_pure_and_stable():
    s = RandomStreams(123)
    assert s.seed_for("x") == s.seed_for("x")
    assert s.seed_for("x") == RandomStreams(123).seed_for("x")
    assert s.seed_for("x") != s.seed_for("y")
    # Documented derivation: SHA-256 of "seed:name", little-endian 8 bytes.
    import hashlib

    digest = hashlib.sha256(b"123:x").digest()
    assert s.seed_for("x") == int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------- latency jitter
def test_device_latency_jitter_requires_streams():
    profile = DeviceProfile(
        "jittery", 1e9, 1e9, 1.0, 1.0, 1e-3, 1e-3, latency_jitter=0.5
    )

    def total_time(streams):
        sim = Simulator()
        dev = BlockDevice(sim, profile, streams=streams)

        def reader():
            for _ in range(50):
                yield dev.read(1000)

        p = sim.process(reader())
        sim.run(until=p)
        return sim.now

    deterministic = total_time(None)
    jittered_a = total_time(RandomStreams(1))
    jittered_b = total_time(RandomStreams(1))
    jittered_c = total_time(RandomStreams(2))
    # Without streams: exact; with: reproducible per seed, varies by seed.
    assert deterministic == pytest.approx(50 * (1e-3 + 1000 / (1e9 / 2)), rel=1e-6)
    assert jittered_a == jittered_b
    assert jittered_a != jittered_c


# ---------------------------------------------------------------- gpu drain chaining
def test_gpu_multiple_drain_waiters():
    sim = Simulator()
    gpu = GpuEnsemble(sim)
    done_times = []

    def submitter():
        yield gpu.submit(5.0)

    def waiter():
        yield sim.timeout(1.0)
        yield gpu.drain()
        done_times.append(sim.now)

    sim.process(submitter())
    sim.process(waiter())
    sim.process(waiter())
    sim.run()
    assert done_times == [5.0, 5.0]


# ---------------------------------------------------------------- cache/write interplay
def test_write_invalidates_cache():
    from repro.storage import PageCache

    sim = Simulator()
    cache = PageCache(sim, capacity_bytes=10_000)
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()), cache=cache)
    fs.create("/a", 100)

    def scenario():
        yield fs.read_whole("/a")  # populate cache
        assert "/a" in cache
        yield fs.write("/a", 50, offset=100)
        assert "/a" not in cache  # invalidated
        yield fs.read_whole("/a")
        return fs.stat("/a").size

    p = sim.process(scenario())
    sim.run(until=p)
    assert p.value == 150


# ---------------------------------------------------------------- UDS backlog gauge
def test_uds_backlog_tracks_queue_depth():
    streams = RandomStreams(0)
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    split = tiny_dataset(streams, n_train=8, n_val=2)
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    stage, pf, ctl = build_prisma(sim, posix, PrismaConfig(control_period=1e3))
    server = PrismaUDSServer(sim, stage, service_time=1e-3)
    client = PrismaTorchClient(sim, server, lambda p: 0, client_overhead=0.0)
    stage.load_epoch(split.train.filenames())
    events = [client.read_whole(split.train.path(i)) for i in range(8)]
    sim.run(until=sim.all_of(events))
    ctl.stop()
    assert server.backlog.max_seen() >= 4  # requests piled behind service
    assert server.backlog.value == 0  # all drained
    assert server.counters.get("served") == 8


# ---------------------------------------------------------------- runner guards
def test_torch_granularity_guard_scales_with_workers():
    # scale=400/bs=16 gives 200 batches: fine for 4 workers,
    # too coarse for 64 workers (needs 6*64=384).
    scale = ExperimentScale(scale=400, epochs=1)
    with pytest.raises(ValueError):
        run_torch_trial("torch-native", LENET, 16, 64, scale)


def test_trial_result_fields_populated():
    scale = ExperimentScale(scale=400, epochs=1)
    trial = run_torch_trial("torch-prisma", LENET, 16, 2, scale)
    assert trial.setup == "torch-prisma"
    assert trial.num_workers == 2
    assert trial.sim_seconds > 0
    assert trial.paper_equivalent_seconds == pytest.approx(
        trial.sim_seconds * 400 * 10, rel=1e-9
    )
    assert trial.training.epoch_stats
    assert trial.reader_activity


# ---------------------------------------------------------------- determinism end-to-end
def test_whole_stack_bit_deterministic():
    """Same seed -> identical training time across repeated builds."""

    def run_once():
        from repro.experiments import run_tf_trial

        scale = ExperimentScale(scale=1000, epochs=1)
        return run_tf_trial("tf-prisma", LENET, 8, scale, seed=3).sim_seconds

    assert run_once() == run_once()
