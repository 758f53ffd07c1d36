"""Sim/live parity of the prefetch state machine.

:class:`ParallelPrefetcher` (simulation processes) and
:class:`LivePrefetcher` (OS threads over real files) drive the same
:class:`~repro.core.filename_queue.PrefetchCore`.  Given the same epochs,
schedule and failing read, both must fetch in the same order and report
the same counters; and both must refuse a bad epoch load without moving
the schedule or the queue.
"""

import threading
import time

import pytest

from repro.core import LookaheadSchedule, ParallelPrefetcher
from repro.core.live import LivePrefetcher
from repro.simcore import Simulator
from repro.storage import BlockDevice, FileNotFound, Filesystem, PosixLayer, intel_p4600


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


class _Recording:
    """A backend that logs the order in which producers fetch."""

    def __init__(self, backend, fetched):
        self.backend = backend
        self.fetched = fetched

    def read_whole(self, path):
        self.fetched.append(path)
        return self.backend.read_whole(path)


class _SimPlane:
    def __init__(self, sizes, capacity, lookahead):
        self.sim = Simulator()
        fs = Filesystem(self.sim, BlockDevice(self.sim, intel_p4600()))
        fs.create_many(sizes.items())
        self.fetched = []
        backend = _Recording(PosixLayer(self.sim, fs), self.fetched)
        self.pf = ParallelPrefetcher(
            self.sim, backend, producers=1, buffer_capacity=capacity,
            lookahead_epochs=lookahead,
        )

    def load(self, epoch):
        self.pf.on_epoch(epoch)

    def consume(self, epoch):
        """Read the epoch, then run until the plane is idle."""
        served = []

        def reader():
            for path in epoch:
                try:
                    yield self.pf.serve(path)
                except FileNotFound:  # the missing path
                    pass
                served.append(path)

        self.sim.process(reader())
        self.sim.run()
        assert served == epoch

    def close(self):
        pass


class _LivePlane:
    def __init__(self, sizes, capacity, lookahead):
        self.pf = LivePrefetcher(
            producers=1, buffer_capacity=capacity, lookahead_epochs=lookahead
        )
        self.fetched = []
        #: cleared, it holds every producer read until set again
        self.gate = threading.Event()
        self.gate.set()
        read_file = self.pf._read_file

        def recording_read(path):
            self.fetched.append(path)
            assert self.gate.wait(10.0)
            return read_file(path)

        self.pf._read_file = recording_read

    def load(self, epoch):
        self.pf.load_epoch(epoch)

    def consume(self, epoch):
        """Read the epoch, then wait until the plane is idle."""
        for path in epoch:
            try:
                self.pf.read(path, timeout=10.0)
            except FileNotFoundError:  # the missing path
                pass
        _wait_until(lambda: self.pf.live_producers == 0)

    def close(self):
        self.gate.set()
        self.pf.close()


@pytest.fixture()
def files(tmp_path):
    """Two epochs of real files, one of whose paths does not exist."""
    sizes = {}
    for i in range(8):
        path = tmp_path / f"s{i}.bin"
        path.write_bytes(bytes([i]) * (512 + 64 * i))
        sizes[str(path)] = 512 + 64 * i
    paths = list(sizes)
    # Never created on either plane: each fetch of it fails.
    epoch0 = paths[:3] + [str(tmp_path / "missing.bin")] + paths[3:]
    return sizes, [epoch0, list(reversed(epoch0))]


def _counters(pf):
    return {
        "files_fetched": pf.files_fetched,
        "read_errors": pf.read_errors,
        "lookahead_fetches": pf.lookahead_fetches,
        "bytes_fetched": pf.bytes_fetched,
        "queue_remaining": pf.queue_remaining,
    }


def test_sim_and_live_fetch_alike(files):
    sizes, epochs = files
    runs = {}
    for name, plane_cls in (("sim", _SimPlane), ("live", _LivePlane)):
        plane = plane_cls(sizes, capacity=2 * len(epochs[0]), lookahead=1)
        try:
            plane.pf.install_schedule(LookaheadSchedule(epochs))
            counters = []
            for epoch in epochs:
                plane.load(epoch)
                plane.consume(epoch)
                counters.append(_counters(plane.pf))
            runs[name] = (plane.fetched, counters)
        finally:
            plane.close()
    assert runs["sim"] == runs["live"]
    fetched, counters = runs["sim"]
    # Each path fetched once per epoch, the second epoch wholly ahead of
    # its load; the missing path failed both times.
    assert fetched == epochs[0] + epochs[1]
    assert counters[-1]["lookahead_fetches"] == len(epochs[1])
    assert counters[-1]["read_errors"] == 2
    assert counters[-1]["bytes_fetched"] == 2 * sum(sizes.values())


@pytest.mark.parametrize("plane_cls", [_SimPlane, _LivePlane], ids=["sim", "live"])
def test_rejected_epoch_load_changes_nothing(files, plane_cls):
    """A load refused for pending work leaves the schedule where it was, so
    the same load succeeds once the epoch drains; one whose order diverges
    from the schedule leaves the queue unloaded."""
    sizes, epochs = files
    plane = plane_cls(sizes, capacity=4, lookahead=0)
    try:
        schedule = LookaheadSchedule(epochs)
        plane.pf.install_schedule(schedule)
        if isinstance(plane, _LivePlane):
            plane.gate.clear()  # keep the first epoch pending
        plane.load(epochs[0])
        with pytest.raises(ValueError):
            plane.load(epochs[1])
        assert schedule.epochs_started == 1
        if isinstance(plane, _LivePlane):
            plane.gate.set()
        plane.consume(epochs[0])
        with pytest.raises(ValueError):
            plane.load(epochs[0])  # the schedule expects epochs[1]
        assert plane.pf.queue.epochs_loaded == 1
        assert plane.pf.queue_remaining == 0
        plane.load(epochs[1])
        plane.consume(epochs[1])
        assert schedule.epochs_started == 2
        assert plane.pf.files_fetched == 2 * len(sizes)
    finally:
        plane.close()
