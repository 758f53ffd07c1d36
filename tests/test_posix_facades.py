"""Conformance suite for the ``PosixLike`` descriptor table.

One parametric battery over all five facades — the raw ``PosixLayer``, a
``PrismaStage``, a ``ClusterMount``, a ``TracingPosix`` and the PyTorch
socket client.  Each supplies only ``read_whole``, ``read_range`` and
``size``; ``open``/``pread``/``read``/``fstat_size``/``close`` are the one
table they share, so a descriptor means the same thing on each.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterStore
from repro.core import ParallelPrefetcher, PrismaStage
from repro.core.integrations import PrismaTorchClient, PrismaTorchDataLoader, PrismaUDSServer
from repro.dataset import EpochShuffler, tiny_dataset
from repro.frameworks.models import LENET
from repro.simcore import RandomStreams, Simulator
from repro.storage import (
    BadFileDescriptor,
    BlockDevice,
    FileNotFound,
    Filesystem,
    InvalidRead,
    PosixLayer,
    ramdisk,
)
from repro.traces import TracingPosix

FACADES = ("posix", "stage", "cluster", "tracing", "torch")
SIZE = 100
PATHS = [f"/data/{i}" for i in range(4)]


def make_facade(kind):
    """A facade of ``kind`` over a filesystem holding ``PATHS``."""
    sim = Simulator()
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    fs.create_many((path, SIZE) for path in PATHS)
    posix = PosixLayer(sim, fs)
    if kind == "posix":
        return sim, posix
    if kind == "tracing":
        return sim, TracingPosix(sim, posix)
    if kind == "cluster":
        config = ClusterConfig(n_nodes=1, tier_capacity_bytes=len(PATHS) * SIZE)
        return sim, ClusterStore(sim, fs, PATHS, config).mount(0)
    stage = PrismaStage(sim, posix, [ParallelPrefetcher(sim, posix, producers=1)])
    stage.load_epoch(PATHS)
    if kind == "stage":
        return sim, stage
    client = PrismaTorchClient(sim, PrismaUDSServer(sim, stage), lambda p: fs.stat(p).size)
    return sim, client


def run(sim, gen):
    """Run the generator ``gen`` as a process; return its value."""
    proc = sim.process(gen)
    sim.run(until=proc)
    return proc.value


def wait(event):
    """A generator that waits for ``event`` and returns its value."""
    return (yield event)


@pytest.mark.parametrize("kind", FACADES)
def test_open_of_a_missing_path_raises(kind):
    _, facade = make_facade(kind)
    with pytest.raises(FileNotFound):
        facade.open("/data/missing")


@pytest.mark.parametrize("kind", FACADES)
def test_bad_or_closed_descriptor_raises(kind):
    _, facade = make_facade(kind)
    fd = facade.open(PATHS[0])
    facade.close(fd)
    for bad in (fd, 999):
        with pytest.raises(BadFileDescriptor):
            facade.close(bad)
        with pytest.raises(BadFileDescriptor):
            facade.fstat_size(bad)
        with pytest.raises(BadFileDescriptor):
            facade.pread(bad, 10, 0)
        with pytest.raises(BadFileDescriptor):
            facade.read(bad, 10)


@pytest.mark.parametrize("kind", FACADES)
def test_fstat_size_is_the_file_size(kind):
    _, facade = make_facade(kind)
    fd = facade.open(PATHS[0])
    assert facade.fstat_size(fd) == SIZE


@pytest.mark.parametrize("kind", FACADES)
def test_pread_at_offset_zero_clamps_to_length(kind):
    sim, facade = make_facade(kind)
    short, long = facade.open(PATHS[0]), facade.open(PATHS[1])

    def reads():
        return (yield facade.pread(short, 10, 0)), (yield facade.pread(long, 10 * SIZE, 0))

    assert run(sim, reads()) == (10, SIZE)


@pytest.mark.parametrize("kind", FACADES)
def test_pread_near_eof_returns_the_remainder(kind):
    sim, facade = make_facade(kind)
    fd = facade.open(PATHS[0])
    if kind == "torch":  # the socket carries whole samples, from offset 0 only
        with pytest.raises(InvalidRead):
            facade.pread(fd, 100, SIZE - 5)
        return
    assert run(sim, wait(facade.pread(fd, 100, SIZE - 5))) == 5


@pytest.mark.parametrize("kind", FACADES)
def test_sequential_reads_advance_to_eof_then_return_zero(kind):
    sim, facade = make_facade(kind)
    fd = facade.open(PATHS[0])
    chunk = SIZE if kind == "torch" else 60

    def reads():
        got = []
        for _ in range(3):
            got.append((yield facade.read(fd, chunk)))
        return got

    expected = [SIZE, 0, 0] if kind == "torch" else [60, 40, 0]
    assert run(sim, reads()) == expected


def test_torch_client_read_past_offset_zero_raises():
    sim, client = make_facade("torch")
    fd = client.open(PATHS[0])
    assert run(sim, wait(client.read(fd, 60))) == 60
    with pytest.raises(InvalidRead):
        client.read(fd, 60)


def test_torch_loader_client_sizes_come_from_the_backend():
    """A loader's client sizes any stored path by the backend's metadata,
    not by an index parsed from the path, so a validation file has its own
    size and a missing path raises ``FileNotFound``."""
    sim, streams = Simulator(), RandomStreams(0)
    split = tiny_dataset(streams, n_train=8, n_val=2)
    fs = Filesystem(sim, BlockDevice(sim, ramdisk()))
    split.materialize(fs)
    posix = PosixLayer(sim, fs)
    stage = PrismaStage(sim, posix, [ParallelPrefetcher(sim, posix, producers=1)])
    loader = PrismaTorchDataLoader(
        sim, split.train, EpochShuffler(8, streams.spawn("t")), 4, stage,
        PrismaUDSServer(sim, stage), LENET,
    )
    client = loader.posix_factory(0)
    val_path = split.validation.paths[1]
    assert client.fstat_size(client.open(val_path)) == fs.stat(val_path).size
    for missing in ("/data/tiny/train/999", "/nope/missing"):
        with pytest.raises(FileNotFound):
            client.open(missing)
