"""PRISMA ↔ PyTorch integration (paper §IV).

The paper: *"because PyTorch uses processes instead of threads, we
implemented an inter-process communication client-server through UNIX
Domain Sockets.  For each spawned process, a PRISMA client instance is
created to intercept all read invocations and submit them to the server to
be handled.  This required changing 35 LoC."*

Model:

* :class:`PrismaUDSServer` — one dispatch loop (epoll-style) in the PRISMA
  process.  Every request pays a serialized per-message service cost
  (socket read, demux, buffer bookkeeping); the possibly-blocking buffer
  wait itself is handed to a helper so one cold request cannot head-of-line
  block the others.  This serialized per-request cost is the
  *consumer/producer synchronization* the paper identifies as PRISMA's
  bottleneck beyond 8 workers (§V-B).
* :class:`PrismaTorchClient` — the per-worker client; a
  :class:`~repro.storage.posix.PosixLike`, so it drops into
  :class:`~repro.frameworks.pytorch.TorchDataLoader`'s ``posix_factory``
  unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...frameworks.pytorch.dataloader import TorchDataLoader
from ...simcore.event import Event, chain_result
from ...simcore.resources import Store
from ...telemetry import CounterSet, TimeWeightedGauge
from ...storage.filesystem import InvalidRead
from ...storage.posix import PosixLike
from ..stage import PrismaStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...simcore.kernel import Simulator

#: Serialized server-side cost per request: socket read + demux + reply
#: write on one core (epoll loop).  ~25 µs is a measured UDS round-trip
#: handling cost for small messages on a Xeon of the paper's vintage.
SERVER_SERVICE_TIME = 25e-6
#: Client-side cost to marshal/send a request and unmarshal the reply.
CLIENT_OVERHEAD = 8e-6


class PrismaUDSServer:
    """The PRISMA-side endpoint of the UNIX-domain-socket protocol."""

    def __init__(
        self,
        sim: "Simulator",
        stage: PrismaStage,
        service_time: float = SERVER_SERVICE_TIME,
        name: str = "prisma.uds",
    ) -> None:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self.sim = sim
        self.stage = stage
        self.service_time = service_time
        self.name = name
        self._requests: Store = Store(sim, name=f"{name}.reqs")
        self.counters = CounterSet(sim.metrics, "frameworks", name)
        #: requests currently queued or being handled (contention signal)
        self.backlog = TimeWeightedGauge(sim, 0, name=f"{name}.backlog")
        sim.process(self._dispatch_loop(), name=f"{name}.loop")

    def submit(self, path: str) -> Event:
        """Client entry point: request one whole-file read."""
        reply = Event(self.sim, name=f"{self.name}.reply")
        self.counters.add("requests")
        self.backlog.increment()
        self._requests.put((path, reply))
        return reply

    def _dispatch_loop(self):
        while True:
            path, reply = yield self._requests.get()
            # Serialized portion: one message handled at a time.
            if self.service_time > 0:
                yield self.sim.timeout(self.service_time)
            # The (possibly blocking) buffer fetch runs off-loop so a
            # not-yet-produced sample doesn't stall every other worker.
            self.sim.process(self._fulfil(path, reply), name=f"{self.name}.fulfil")

    def _fulfil(self, path: str, reply: Event):
        try:
            nbytes = yield self.stage.read_whole(path)
        except Exception as exc:  # noqa: BLE001 - surface to the client
            self.backlog.decrement()
            reply.fail(exc)
            return
        self.counters.add("served")
        self.counters.add("bytes", nbytes)
        self.backlog.decrement()
        reply.succeed(nbytes)


class PrismaTorchClient(PosixLike):
    """Per-worker PRISMA client (the paper's per-process client instance).

    Data reads travel over the socket to the server; ``size`` (behind
    ``open`` and ``fstat``) is resolved locally by ``size_lookup`` (the
    loaders pass the stage's ``size``: the backend's metadata, which the
    stage does not intercept), mirroring the prototype where only ``read``
    is intercepted (§IV: "PRISMA's POSIX interface exposes a single read
    method").  The protocol carries whole samples: a read from offset 0 is
    served whole, clamped to its length, and a read from any other offset
    raises :class:`~repro.storage.filesystem.InvalidRead`.
    """

    def __init__(
        self,
        sim: "Simulator",
        server: PrismaUDSServer,
        size_lookup,
        worker_id: int = -1,
        client_overhead: float = CLIENT_OVERHEAD,
    ) -> None:
        if client_overhead < 0:
            raise ValueError("client_overhead must be non-negative")
        super().__init__(sim)
        self.server = server
        self.size_lookup = size_lookup
        self.worker_id = worker_id
        self.client_overhead = client_overhead
        self.counters = CounterSet(
            sim.metrics, "frameworks", f"{server.name}.w{worker_id}"
        )

    def size(self, path: str) -> int:
        return int(self.size_lookup(path))

    def read_whole(self, path: str) -> Event:
        """One whole-sample request over the socket."""
        done = Event(self.sim, name=f"uds.client{self.worker_id}")

        def round_trip():
            if self.client_overhead > 0:
                yield self.sim.timeout(self.client_overhead)
            nbytes = yield self.server.submit(path)
            if self.client_overhead > 0:
                yield self.sim.timeout(self.client_overhead)
            self.counters.add("reads")
            return nbytes

        proc = self.sim.process(round_trip(), name=f"uds.rt{self.worker_id}")
        return chain_result(proc, done)

    def read_range(self, path: str, offset: int, length: int) -> Event:
        if offset != 0:
            raise InvalidRead(f"{path!r}: the socket carries whole samples, not offset {offset}")
        done = Event(self.sim, name="uds.pread")
        return chain_result(self.read_whole(path), done, lambda nbytes: min(nbytes, length))


class PrismaTorchDataLoader(TorchDataLoader):
    """A DataLoader whose epoch list is shared with PRISMA.

    Reads go through one :class:`PrismaTorchClient` per worker, and the
    job-script change of the paper is mirrored: at the start of every
    epoch the shuffled filenames list is written for the data plane.
    """

    def __init__(self, sim, catalog, shuffler, batch_size, stage, server, model, **kwargs):
        factory = make_torch_posix_factory(sim, server, stage.size)
        super().__init__(sim, catalog, shuffler, batch_size, factory, model, **kwargs)
        self.stage = stage

    def begin_epoch(self, epoch: int) -> None:
        super().begin_epoch(epoch)
        paths = self.catalog.paths
        self.stage.load_epoch([paths[i] for i in self.shuffler.order(epoch)])


def make_torch_posix_factory(sim: "Simulator", server: PrismaUDSServer, size_lookup):
    """``posix_factory`` for :class:`TorchDataLoader`: one client per worker.

    This function *is* the integration: the 35-LoC change swaps PyTorch's
    direct ``open``/``read`` for these client instances.
    """

    def factory(worker_id: int) -> PrismaTorchClient:
        return PrismaTorchClient(sim, server, size_lookup, worker_id=worker_id)

    return factory


def integration_loc() -> int:
    """Lines a PyTorch integrator writes (paper: 35 LoC).

    Counted over every method :class:`PrismaTorchClient` defines itself
    but its constructor (the descriptor table is the one every
    :class:`~repro.storage.posix.PosixLike` shares) plus the factory,
    excluding blank lines, comments and docstrings.
    """
    import inspect

    def count(obj) -> int:
        src = inspect.getsource(obj).splitlines()
        total = 0
        in_doc = False
        for line in src:
            stripped = line.strip()
            if stripped.startswith(('"""', "'''")):
                if not (len(stripped) > 3 and stripped.endswith(('"""', "'''"))):
                    in_doc = not in_doc
                continue
            if in_doc or not stripped or stripped.startswith("#"):
                continue
            total += 1
        return total

    methods = [
        obj for name, obj in vars(PrismaTorchClient).items()
        if inspect.isfunction(obj) and name != "__init__"
    ]
    return sum(count(method) for method in methods) + count(make_torch_posix_factory)
