"""Conformance suite for the ``StorageBackend`` base class.

One parametric battery over all three implementations — local filesystem,
distributed PFS, object store — plus the config-driven construction path
(``BackendConfig`` / ``build_backend`` / ``PrismaConfig.backend``).
"""

import pytest

from repro.core import PrismaConfig, build_prisma
from repro.simcore import ProcessError, Simulator
from repro.storage import (
    BackendConfig,
    BlockDevice,
    DistributedFilesystem,
    FileExists,
    FileNotFound,
    Filesystem,
    InvalidRead,
    KiB,
    MiB,
    ObjectStore,
    PosixLayer,
    ReadFault,
    SampleSource,
    StorageBackend,
    TransientReadError,
    build_backend,
    intel_p4600,
    ramdisk,
    s3_like,
    validate_byte_count,
)
from repro.storage.device import DeviceProfile
from repro.telemetry import Telemetry

KINDS = ("posix", "pfs", "object")

#: expected telemetry span names per backend kind
READ_SPAN = {"posix": "fs.read", "pfs": "pfs.read", "object": "objstore.get"}
WRITE_SPAN = {"posix": "fs.write", "pfs": "pfs.write", "object": "objstore.put"}


def make_backend(kind, sim):
    if kind == "posix":
        return Filesystem(sim, BlockDevice(sim, ramdisk()))
    if kind == "pfs":
        return DistributedFilesystem(sim, n_targets=4, target_profile=ramdisk())
    return ObjectStore(sim, s3_like())


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


# ---------------------------------------------------------------- protocol
@pytest.mark.parametrize("kind", KINDS)
def test_backend_satisfies_protocols(kind):
    sim = Simulator()
    backend = make_backend(kind, sim)
    assert isinstance(backend, StorageBackend)
    assert isinstance(backend, SampleSource)


def test_posix_layer_is_a_sample_source_but_not_a_backend():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    layer = PosixLayer(sim, fs)
    assert isinstance(layer, SampleSource)
    assert not isinstance(layer, StorageBackend)


# ---------------------------------------------------------------- round trip
@pytest.mark.parametrize("kind", KINDS)
def test_namespace_round_trip(kind):
    sim = Simulator()
    backend = make_backend(kind, sim)
    backend.create("/data/a", 100)
    backend.create_many((f"/data/b{i}", 50) for i in range(3))
    assert backend.file_count == 4
    with pytest.raises(FileExists):
        backend.create("/data/a", 1)
    assert backend.exists("/data/a")
    assert not backend.exists("/nope")
    assert backend.stat("/data/a").size == 100
    assert backend.total_bytes() == 100 + 3 * 50
    assert sorted(backend.list_prefix("/data/b")) == ["/data/b0", "/data/b1", "/data/b2"]
    backend.unlink("/data/a")
    assert not backend.exists("/data/a")
    assert backend.file_count == 3
    for op in (backend.stat, backend.unlink, backend.read, lambda p: backend.write(p, 1)):
        with pytest.raises(FileNotFound):
            op("/data/a")
    for path in backend.list_prefix("/data/"):
        backend.unlink(path)
    assert backend.file_count == 0
    if kind == "pfs":
        assert [t.file_count for t in backend.targets] == [0] * len(backend.targets)


@pytest.mark.parametrize("kind", KINDS)
def test_read_whole_and_ranged_read(kind):
    sim = Simulator()
    backend = make_backend(kind, sim)
    backend.create("/f", 64 * KiB)
    out = _drive(sim, lambda: (yield backend.read_whole("/f")))
    assert out["value"] == 64 * KiB
    out = _drive(sim, lambda: (yield backend.read("/f", offset=16 * KiB, length=4 * KiB)))
    assert out["value"] == 4 * KiB
    for offset in (64 * KiB, 80 * KiB):  # at and past EOF
        out = _drive(sim, lambda: (yield backend.read("/f", offset=offset, length=4 * KiB)))
        assert out["value"] == 0
    with pytest.raises(InvalidRead):
        backend.read("/f", offset=-1)
    assert backend.bytes_read() == 68 * KiB


@pytest.mark.parametrize("kind", KINDS)
def test_write_accounting(kind):
    sim = Simulator()
    backend = make_backend(kind, sim)
    backend.create("/ckpt", 0)
    out = _drive(sim, lambda: (yield backend.write("/ckpt", 1 * MiB)))
    assert out["value"] == 1 * MiB
    assert backend.stat("/ckpt").size == 1 * MiB
    assert backend.bytes_written() == 1 * MiB
    assert sim.now > 0  # writes take simulated time


def test_posix_write_extends_but_object_put_replaces():
    sim = Simulator()
    fs = make_backend("posix", sim)
    fs.create("/f", 10 * KiB)
    _drive(sim, lambda: (yield fs.write("/f", 1 * KiB, offset=0)))
    assert fs.stat("/f").size == 10 * KiB  # in-place write keeps the max

    store = make_backend("object", sim)
    store.create("/f", 10 * KiB)
    _drive(sim, lambda: (yield store.write("/f", 1 * KiB)))
    assert store.stat("/f").size == 1 * KiB  # whole-object PUT replaces
    with pytest.raises(InvalidRead):
        store.write("/f", 1, offset=5)  # no partial PUTs


# ---------------------------------------------------------------- fault seam
@pytest.mark.parametrize("kind", KINDS)
def test_fault_hook_injects_errors(kind):
    sim = Simulator()
    backend = make_backend(kind, sim)
    backend.create("/a", 4 * KiB)
    backend.fault_hook = lambda path, nbytes: ReadFault(error=TransientReadError(path))
    out = _drive(sim, lambda: (yield backend.read_whole("/a")))
    assert isinstance(out["exc"], ProcessError)
    assert isinstance(out["exc"].__cause__, TransientReadError)


# ---------------------------------------------------------------- telemetry
@pytest.mark.parametrize("kind", KINDS)
def test_read_write_spans_and_write_counter(kind):
    sim = Simulator()
    tel = Telemetry().attach(sim)
    backend = make_backend(kind, sim)
    backend.create("/f", 8 * KiB)
    _drive(sim, lambda: (yield backend.read_whole("/f")))
    _drive(sim, lambda: (yield backend.write("/f", 2 * KiB)))
    names = [s.name for s in tel.spans("storage")]
    assert READ_SPAN[kind] in names
    assert WRITE_SPAN[kind] in names
    counter = tel.registry.counter("storage.write_bytes_total", object=backend.name)
    assert counter.value == 2 * KiB
    tel.detach()


# ---------------------------------------------------------------- determinism
@pytest.mark.parametrize("kind", KINDS)
def test_backend_timing_is_deterministic(kind):
    def run():
        sim = Simulator()
        backend = make_backend(kind, sim)
        backend.create_many((f"/d/{i}", 32 * KiB) for i in range(8))

        def workload():
            for i in range(8):
                yield backend.read_whole(f"/d/{i}")
                if i % 2 == 0:
                    yield backend.write(f"/d/{i}", 16 * KiB)

        _drive(sim, workload)
        return sim.now, backend.bytes_read(), backend.bytes_written()

    assert run() == run()


# ---------------------------------------------------------------- deprecations
@pytest.mark.parametrize("kind", KINDS)
def test_read_file_shim_is_gone(kind):
    sim = Simulator()
    backend = make_backend(kind, sim)
    assert not hasattr(backend, "read_file")


# ---------------------------------------------------------------- validation
def test_validate_byte_count():
    assert validate_byte_count(5) == 5
    assert validate_byte_count(0.75e6) == 750_000
    assert validate_byte_count(0, allow_zero=True) == 0
    for bad in (0, -1, 1.5, float("nan"), float("inf"), True, "10"):
        with pytest.raises(ValueError):
            validate_byte_count(bad)


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="tape")
    with pytest.raises(ValueError):
        BackendConfig(device_profile="floppy")
    with pytest.raises(ValueError):
        BackendConfig(object_profile="minio")
    with pytest.raises(ValueError):
        BackendConfig(write_penalty=1.0)
    with pytest.raises(ValueError):
        BackendConfig(cache_bytes=-1)
    with pytest.raises(ValueError):
        BackendConfig(kind="object", request_latency=-1e-3)
    with pytest.raises(ValueError):
        BackendConfig(kind="object", bandwidth=0)
    with pytest.raises(ValueError):
        BackendConfig(kind="object", max_concurrency=0)
    cfg = BackendConfig().with_overrides(kind="object", name="s3a")
    assert cfg.kind == "object" and cfg.name == "s3a"


def test_build_backend_posix():
    sim = Simulator()
    fs = build_backend(sim, BackendConfig(cache_bytes=1 * MiB, write_penalty=0.3))
    assert isinstance(fs, Filesystem)
    assert fs.cache is not None
    assert fs.device.profile.mixed_write_penalty == pytest.approx(0.3)
    default = build_backend(sim)
    assert isinstance(default, Filesystem)
    assert default.device.profile.mixed_write_penalty == 0.0


def test_build_backend_object_with_overrides():
    sim = Simulator()
    store = build_backend(
        sim,
        BackendConfig(
            kind="object", request_latency=5e-3, put_latency=9e-3,
            bandwidth=1e9, kappa=10.0, max_concurrency=32, name="custom",
        ),
    )
    assert isinstance(store, ObjectStore)
    assert store.profile.get_latency == pytest.approx(5e-3)
    assert store.profile.put_latency == pytest.approx(9e-3)
    assert store.profile.aggregate_bandwidth == pytest.approx(1e9)
    assert store.profile.kappa == pytest.approx(10.0)
    assert store.profile.max_concurrency == 32
    assert store.name == "custom"


def test_build_backend_accepts_profile_instances():
    sim = Simulator()
    fs = build_backend(sim, BackendConfig(device_profile=ramdisk()))
    assert isinstance(fs.device.profile, DeviceProfile)
    store = build_backend(sim, BackendConfig(kind="object", object_profile=s3_like()))
    assert isinstance(store, ObjectStore)


# ---------------------------------------------------------------- prisma wiring
def test_prisma_config_selects_object_backend():
    sim = Simulator()
    stage, prefetcher, controller = build_prisma(
        sim, config=PrismaConfig(backend=BackendConfig(kind="object"))
    )
    store = stage.backend.fs
    assert isinstance(store, ObjectStore)
    store.create_many((f"/data/{i}", 16 * KiB) for i in range(8))
    stage.load_epoch([f"/data/{i}" for i in range(8)])
    # The controller (and prefetcher producers) run forever: drive the
    # simulator only until the read completes.
    ev = stage.read_whole("/data/0")
    sim.run(until=ev)
    assert ev.value == 16 * KiB
    controller.stop()


def test_build_prisma_rejects_ambiguous_or_missing_backend():
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    posix = PosixLayer(sim, fs)
    with pytest.raises(ValueError, match="not both"):
        build_prisma(sim, posix, PrismaConfig(backend=BackendConfig()))
    with pytest.raises(ValueError, match="needs a backend"):
        build_prisma(sim)
    with pytest.raises(ValueError, match="BackendConfig"):
        PrismaConfig(backend="posix")


# ---------------------------------------------------------------- interference
def test_mixed_write_penalty_slows_reads_only_during_writes():
    # Reads stay below large_read_threshold: the penalty targets the
    # small-random-read channel the data path actually uses.
    def read_time(with_write):
        sim = Simulator()
        profile = intel_p4600()
        from dataclasses import replace

        dev = BlockDevice(sim, replace(profile, mixed_write_penalty=0.5))
        fs = Filesystem(sim, dev)
        fs.create("/r", 2 * MiB)
        fs.create("/w", 0)

        def workload():
            if with_write:
                fs.write("/w", 32 * MiB)  # long write in flight
            start = sim.now
            yield fs.read_whole("/r")
            return sim.now - start

        out = _drive(sim, workload)
        return out["value"]

    clean = read_time(with_write=False)
    contended = read_time(with_write=True)
    assert contended > clean * 1.5  # penalty=0.5 halves read bandwidth

    # And the device recovers once the write lands.
    sim = Simulator()
    from dataclasses import replace

    dev = BlockDevice(sim, replace(intel_p4600(), mixed_write_penalty=0.5))
    fs = Filesystem(sim, dev)
    fs.create("/r", 2 * MiB)
    fs.create("/w", 0)

    def after():
        yield fs.write("/w", 8 * MiB)
        start = sim.now
        yield fs.read_whole("/r")
        return sim.now - start

    out = _drive(sim, after)
    assert out["value"] == pytest.approx(clean)


def test_zero_penalty_profiles_are_unchanged():
    # Stock presets keep mixed_write_penalty=0.0, and with it the exact
    # event timings of the pre-write-path code: no capacity-fn swap ever
    # happens, so seed benchmarks stay byte-identical.
    assert intel_p4600().mixed_write_penalty == 0.0
    sim = Simulator()
    dev = BlockDevice(sim, intel_p4600())
    fs = Filesystem(sim, dev)
    fs.create("/r", 1 * MiB)
    fs.create("/w", 0)

    def workload():
        fs.write("/w", 64 * MiB)
        start = sim.now
        yield fs.read_whole("/r")
        return sim.now - start

    contended = _drive(sim, workload)["value"]

    sim2 = Simulator()
    fs2 = Filesystem(sim2, BlockDevice(sim2, intel_p4600()))
    fs2.create("/r", 1 * MiB)

    def clean():
        start = sim2.now
        yield fs2.read_whole("/r")
        return sim2.now - start

    assert contended == _drive(sim2, clean)["value"]
