"""Block-device model: a fluid bandwidth channel plus per-request latency.

A :class:`BlockDevice` serves read/write requests.  Each request pays a fixed
submission latency (seek/NVMe command overhead) and then streams its payload
through a :class:`~repro.storage.fluid.FairShareChannel`, whose saturating
capacity curve reproduces queue-depth throughput scaling.

Profiles are calibrated so that, on ~110 KiB ImageNet-sized files, a single
reader sustains ≈330 MiB/s and ≥4 concurrent readers approach the device's
aggregate ceiling — the regime measured in the paper on ABCI's Intel DC
P4600 (§V, Figs. 2–4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..simcore.event import Event
from ..simcore.resources import Resource, ResourceRequest
from ..telemetry import CounterSet
from .fluid import FairShareChannel, saturating_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..simcore.kernel import Simulator
    from ..simcore.random import RandomStreams

KiB = 1024
MiB = 1024**2
GiB = 1024**3


@dataclass(frozen=True)
class DeviceProfile:
    """Static performance parameters of a storage device.

    Attributes
    ----------
    max_read_bandwidth / max_write_bandwidth:
        Aggregate rate at high concurrency (bytes/s).
    read_kappa / write_kappa:
        Concurrency-knee parameter of the saturating capacity curve:
        one stream achieves ``max_bw / (1 + kappa)``.
    read_latency / write_latency:
        Fixed per-request submission latency (seconds).
    latency_jitter:
        Fractional stddev of lognormal latency noise (0 disables noise and
        makes the device fully deterministic).
    max_queue_depth:
        Requests beyond this limit queue before entering service.
    seek_concurrency:
        How many requests may be in the *latency* phase simultaneously.
        SSDs overlap command submissions freely (high); a spinning disk has
        one actuator, so seeks serialize (1) — without this, parallel
        readers would overlap seek time and a mechanical disk would appear
        to scale like flash.  Slots exist only below ``max_queue_depth``:
        the default of 256 creates them on ``ramdisk`` and ``nvme-gen4``
        but not on the P4600 (queue depth 128).  A request that finds a
        slot free takes it with no kernel event; only a full set of slots
        queues it for a grant.
    """

    name: str
    max_read_bandwidth: float
    max_write_bandwidth: float
    read_kappa: float
    write_kappa: float
    read_latency: float
    write_latency: float
    latency_jitter: float = 0.0
    max_queue_depth: int = 256
    seek_concurrency: int = 256
    #: Streaming bandwidth for large sequential reads.  Small-random-read
    #: throughput (``max_read_bandwidth``) is throttled by per-request
    #: filesystem work that large streaming reads amortize away — the
    #: asymmetry record-sharded formats (TFRecord) exploit.  0 means "same
    #: as max_read_bandwidth" (no sequential advantage).
    sequential_read_bandwidth: float = 0.0
    #: Reads at least this large use the sequential channel.
    large_read_threshold: int = 4 * 1024 * 1024
    #: Fraction of *random-read* bandwidth lost while at least one write is
    #: in flight (mixed-workload interference: SSD reads slow down behind
    #: program/erase cycles and shared controller queues).  Large
    #: sequential streams keep their own channel — the penalty models the
    #: small-random-read data path checkpoints actually contend with.
    #: 0 keeps reads and writes fully independent — the read-only
    #: calibration regime of the stock presets; the write-path experiments
    #: opt in explicitly.
    mixed_write_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.max_read_bandwidth <= 0 or self.max_write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.read_latency < 0 or self.write_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.latency_jitter < 0:
            raise ValueError("latency_jitter must be non-negative")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.seek_concurrency < 1:
            raise ValueError("seek_concurrency must be >= 1")
        if self.sequential_read_bandwidth < 0:
            raise ValueError("sequential_read_bandwidth must be >= 0")
        if self.large_read_threshold < 1:
            raise ValueError("large_read_threshold must be >= 1")
        if not 0.0 <= self.mixed_write_penalty < 1.0:
            raise ValueError("mixed_write_penalty must be in [0, 1)")

    def effective_sequential_bandwidth(self) -> float:
        return self.sequential_read_bandwidth or self.max_read_bandwidth

    def effective_read_throughput(self, request_bytes: float, concurrency: int = 1) -> float:
        """Analytic per-stream throughput including request latency.

        Useful for calibration: solves the paper's "330 MiB/s single thread
        on 110 KiB files" anchor without running a simulation.
        """
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        agg = self.max_read_bandwidth * concurrency / (concurrency + self.read_kappa)
        per_stream = agg / concurrency
        per_request = self.read_latency + request_bytes / per_stream
        return request_bytes / per_request


# -- profile presets -----------------------------------------------------------
def intel_p4600() -> DeviceProfile:
    """The paper's 1.6 TiB Intel SSD DC P4600 (NVMe, XFS), as calibrated.

    Calibration anchors (paper §V):

    * one reader on ~113 KiB files sustains ≈341 MiB/s (TF-baseline moves
      138 GiB in ≈418 s/epoch);
    * 4 readers — PRISMA's tuned operating point — reach ≈790 MiB/s
      (PRISMA's ≈190-205 s LeNet epochs);
    * the through-filesystem random-read ceiling is ≈1.3 GiB/s (TF-opt's
      30 threads and PyTorch's 16 workers both land there — spec sequential
      bandwidth is 3.2 GB/s, but small random files through XFS pay per-file
      overheads).

    The marginal gains per added thread (+61 %, +25 %, +15 %, +9 %, …)
    position the auto-tuner's knee at t=4, matching Fig. 3.
    """
    return DeviceProfile(
        name="intel-p4600-1.6tb",
        max_read_bandwidth=1387 * MiB,
        max_write_bandwidth=1.20 * GiB,
        read_kappa=2.45,
        write_kappa=2.0,
        read_latency=50e-6,
        write_latency=30e-6,
        latency_jitter=0.0,
        max_queue_depth=128,
        sequential_read_bandwidth=3.2 * GiB,  # spec streaming rate
    )


def sata_hdd() -> DeviceProfile:
    """A 7.2k RPM SATA disk: seek-dominated, parallelism barely helps."""
    return DeviceProfile(
        name="sata-hdd-7200",
        max_read_bandwidth=180 * MiB,
        max_write_bandwidth=160 * MiB,
        read_kappa=0.15,
        write_kappa=0.15,
        read_latency=8e-3,
        write_latency=9e-3,
        latency_jitter=0.0,
        max_queue_depth=32,
        seek_concurrency=1,  # one actuator: seeks serialize
    )


def nvme_gen4() -> DeviceProfile:
    """A modern gen4 NVMe: high ceiling, needs deep queues to saturate."""
    return DeviceProfile(
        name="nvme-gen4",
        max_read_bandwidth=6.8 * GiB,
        max_write_bandwidth=5.0 * GiB,
        read_kappa=5.0,
        write_kappa=4.0,
        read_latency=80e-6,
        write_latency=15e-6,
        latency_jitter=0.0,
        max_queue_depth=512,
    )


def ramdisk() -> DeviceProfile:
    """tmpfs-like: memory bandwidth, negligible latency."""
    return DeviceProfile(
        name="ramdisk",
        max_read_bandwidth=12 * GiB,
        max_write_bandwidth=12 * GiB,
        read_kappa=0.3,
        write_kappa=0.3,
        read_latency=2e-6,
        write_latency=2e-6,
        latency_jitter=0.0,
        max_queue_depth=4096,
    )


PROFILES = {
    "intel-p4600": intel_p4600,
    "sata-hdd": sata_hdd,
    "nvme-gen4": nvme_gen4,
    "ramdisk": ramdisk,
}


class BlockDevice:
    """A simulated block device executing read/write requests.

    Reads and writes share nothing but the queue-depth budget in this model
    (DL training is read-dominated; the paper's workload issues no writes on
    the data path), so each direction gets its own fluid channel.
    """

    def __init__(
        self,
        sim: "Simulator",
        profile: Optional[DeviceProfile] = None,
        streams: Optional["RandomStreams"] = None,
        name: str = "dev0",
    ) -> None:
        self.sim = sim
        self.profile = profile or intel_p4600()
        self.name = name
        self._io_name = f"io:{name}"
        self._track = f"storage.{name}"
        self._read_channel = FairShareChannel(
            sim,
            saturating_capacity(self.profile.max_read_bandwidth, self.profile.read_kappa),
            name=f"{name}.read",
            max_concurrency=self.profile.max_queue_depth,
        )
        self._write_channel = FairShareChannel(
            sim,
            saturating_capacity(self.profile.max_write_bandwidth, self.profile.write_kappa),
            name=f"{name}.write",
            max_concurrency=self.profile.max_queue_depth,
        )
        # Large streaming reads amortize per-request filesystem work and
        # run at the device's spec sequential rate on their own channel.
        self._seq_read_channel = FairShareChannel(
            sim,
            saturating_capacity(self.profile.effective_sequential_bandwidth(), 0.2),
            name=f"{name}.seqread",
            max_concurrency=self.profile.max_queue_depth,
        )
        self._latency_rng: Optional[np.random.Generator] = None
        if streams is not None and self.profile.latency_jitter > 0:
            self._latency_rng = streams.stream(f"device.{name}.latency")
        # Requests in the latency (seek/submission) phase hold one of these
        # slots; an HDD profile sets a single slot so seeks serialize.
        self._seek_slots: Optional[Resource] = None
        if self.profile.seek_concurrency < self.profile.max_queue_depth:
            self._seek_slots = Resource(
                sim, capacity=self.profile.seek_concurrency, name=f"{name}.seek"
            )
        self.counters = CounterSet(sim.metrics, "storage", name)
        #: current read-bandwidth scale (1.0 = healthy; see degrade_reads)
        self.read_degradation = 1.0
        #: writes currently in flight (drives mixed-workload interference)
        self._writes_in_flight = 0

    # -- helpers --------------------------------------------------------------
    def _latency(self, base: float) -> float:
        if base <= 0:
            return 0.0
        if self._latency_rng is None or self.profile.latency_jitter <= 0:
            return base
        # Lognormal noise with unit median keeps latency positive.
        sigma = self.profile.latency_jitter
        return base * float(self._latency_rng.lognormal(mean=0.0, sigma=sigma))

    def _request(
        self,
        channel: FairShareChannel,
        latency: float,
        nbytes: float,
        weight: float,
        op: str = "read",
        done: Optional[Event] = None,
        value: Any = None,
    ) -> Event:
        """Submission latency, then the transfer: a callback chain.

        The returned event is the one the channel settles, valued at the
        total service time (latency plus transfer duration); with no
        latency and no telemetry it is simply the channel's own event.  A
        caller that hands in ``done`` (and the ``value`` to settle it with)
        has the channel settle that event instead.
        """
        sim = self.sim
        tel = sim.telemetry
        # A positive latency without jitter is used as given (_latency's
        # common case, without its frame).
        lat = latency if latency > 0 and self._latency_rng is None else self._latency(latency)
        if lat <= 0 and tel is None:
            return channel.transfer(nbytes, weight, event=done, value=value)
        if done is None:
            done = Event(sim, name=self._io_name)
        span = service = None
        if tel is not None:
            span = tel.begin(
                f"dev.{op}", self._track, "storage", lane=True, bytes=float(nbytes)
            )

            def finish(ev: Event) -> None:
                tel.end(service)
                tel.end(span, ok=ev.ok)

            # Ahead of any waiter: a caller that issues its next request
            # from this one's completion finds the lane free again.
            done.callbacks.insert(0, finish)

        def transfer(_ev: Optional[Event] = None) -> None:
            nonlocal service
            if span is not None:
                service = tel.begin("dev.transfer", span.track, "storage")
            channel.transfer(nbytes, weight, event=done, elapsed=lat, value=value)

        slots = self._seek_slots
        if lat <= 0:
            transfer()
        elif slots is None:
            sim.call_later(lat, transfer)
        else:
            # Hold a seek slot through the latency phase.  The wait nests on
            # the request's own lane, which it owns until the outer span ends.
            wait = tel.begin("dev.seek_wait", span.track, "storage") if tel else None

            def seeked(request: ResourceRequest) -> None:
                slots.release(request)
                transfer()

            held = slots.try_request()
            if held is not None:
                # A free slot: no grant event, the latency timer starts now.
                if wait is not None:
                    tel.end(wait)
                sim.call_later(lat, seeked, held)
            else:
                # Every slot is held (one actuator): queue for the next.
                def seek(request: ResourceRequest) -> None:
                    if wait is not None:
                        tel.end(wait)
                    sim.call_later(lat, seeked, request)

                slots.request().add_callback(seek)
        return done

    # -- public API -------------------------------------------------------------
    def read(
        self,
        nbytes: float,
        weight: float = 1.0,
        event: Optional[Event] = None,
        value: Any = None,
    ) -> Event:
        """Read ``nbytes``; the event value is the total service time.

        Reads of at least ``large_read_threshold`` bytes stream at the
        sequential rate (one request, no per-file overhead amplification).
        A caller that already handed out ``event`` (a filesystem read) has
        the device settle it with ``value`` when the transfer lands, instead
        of forwarding a fresh event.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        counters = self.counters
        counters.reads.value += 1
        counters.read_bytes.value += nbytes
        if nbytes >= self.profile.large_read_threshold:
            counters.sequential_reads.value += 1
            return self._request(
                self._seq_read_channel, self.profile.read_latency, nbytes, weight,
                "seqread", event, value,
            )
        return self._request(
            self._read_channel, self.profile.read_latency, nbytes, weight,
            "read", event, value,
        )

    def write(self, nbytes: float, weight: float = 1.0) -> Event:
        """Write ``nbytes``; the event value is the total service time.

        On profiles with a ``mixed_write_penalty``, reads run at reduced
        bandwidth while any write is in flight (and recover when the last
        one lands) — the read/write interference checkpoint bursts inflict
        on the data path.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.counters.add("writes")
        self.counters.add("write_bytes", nbytes)
        request = self._request(
            self._write_channel, self.profile.write_latency, nbytes, weight, op="write"
        )
        if self.profile.mixed_write_penalty > 0:
            self._writes_in_flight += 1
            if self._writes_in_flight == 1:
                self._apply_read_capacity()
            request.add_callback(self._write_landed)
        return request

    def _write_landed(self, _ev: Event) -> None:
        self._writes_in_flight -= 1
        if self._writes_in_flight == 0:
            self._apply_read_capacity()

    def _apply_read_capacity(self) -> None:
        """Recompute read bandwidth from degradation x write interference."""
        scale = self.read_degradation
        if self._writes_in_flight > 0:
            scale *= 1.0 - self.profile.mixed_write_penalty
        self._read_channel.set_capacity_fn(
            saturating_capacity(
                self.profile.max_read_bandwidth * scale, self.profile.read_kappa
            )
        )

    def degrade_reads(self, factor: float) -> None:
        """Scale read bandwidth by ``factor`` at run time (fault injection).

        Models device wear-out, thermal throttling, or a noisy neighbour;
        the adaptivity tests use it to show the control loop re-converging,
        and :class:`~repro.faults.FaultInjector` drives slowdown windows
        through it.  The factor is absolute (relative to the profile), not
        cumulative, so overlapping windows are last-writer-wins.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.read_degradation = factor
        self._apply_read_capacity()

    def restore_reads(self) -> None:
        """Undo :meth:`degrade_reads`: back to the profile's full bandwidth."""
        self.degrade_reads(1.0)

    # -- observability ------------------------------------------------------------
    def bytes_read(self) -> float:
        return self._read_channel.bytes_served + self._seq_read_channel.bytes_served

    def bytes_written(self) -> float:
        return self._write_channel.bytes_served

    def __repr__(self) -> str:
        return f"<BlockDevice {self.name!r} profile={self.profile.name!r}>"
