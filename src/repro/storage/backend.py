"""The storage-backend seam every PRISMA consumer codes against.

The paper's decoupling argument cuts both ways: if storage optimizations
live in a layer of their own, that layer must not care *which* storage it
optimizes.  :class:`StorageBackend` (defined beside
:class:`~repro.storage.filesystem.SimFile` and re-exported here) is that
contract as a base class: it owns the flat namespace (``create``,
``create_many``, ``exists``, ``stat``, ``unlink``, ``list_prefix``,
``file_count``, ``total_bytes``), ``read_whole`` and the read extent, and
each backend supplies only its data path (``read``, ``write``,
``bytes_read``, ``bytes_written``).  Three backends subclass it —

* :class:`~repro.storage.filesystem.Filesystem` — local device + page cache;
* :class:`~repro.storage.distributed.DistributedFilesystem` — hash-placed
  OSTs behind a shared network link;
* :class:`~repro.storage.object_store.ObjectStore` — S3-like: high
  per-request latency, high parallelism, whole-object GET/PUT, no page
  cache —

and every consumer (the POSIX facade, prefetcher, tiering promotion source,
cluster backing store, checkpoint writer, experiment runners) types against
the base class, never a concrete one.  CI greps enforce that no consumer
reintroduces an ``isinstance(..., Filesystem)`` check and that the
namespace stays in the base class.

Canonical read spelling: **``read_whole(path)``** is *the* whole-file read
(the older ``read_file`` alias has been removed).

:class:`BackendConfig` + :func:`build_backend` let configuration select the
backend (``kind="posix"`` or ``"object"``) so callers — including
:func:`repro.core.build_prisma` via ``PrismaConfig.backend`` — construct
either stack without code changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Protocol, Union, runtime_checkable

from .device import PROFILES, BlockDevice, DeviceProfile
from .filesystem import Filesystem, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.event import Event
    from ..simcore.kernel import Simulator
    from ..simcore.random import RandomStreams
    from .object_store import ObjectStoreProfile


def validate_byte_count(value: object, name: str = "bytes", allow_zero: bool = False) -> int:
    """Normalize a byte quantity to an int (the discrete-byte convention).

    Byte accounting across the codebase is integer arithmetic — buffer
    capacities, tier residency, checkpoint payloads.  ``bool``, NaN,
    infinities, and fractional floats are rejected; integral floats (a
    config written ``0.75e6`` or a policy computing ``0.5 * total``) are
    normalized to int.  ``allow_zero`` admits 0 for "disabled" knobs.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if value != int(value):
            raise ValueError(f"{name} must be a whole number of bytes, got {value!r}")
        value = int(value)
    if value < 0 or (value == 0 and not allow_zero):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


@runtime_checkable
class SampleSource(Protocol):
    """The minimal read surface a data-plane optimization needs.

    Prefetchers and tiering objects only ever *read whole samples*; typing
    them against this one-method protocol (rather than the full backend)
    is what lets optimization objects stack — a tiering object is itself a
    valid ``SampleSource`` for the prefetcher above it, and a cluster
    node's peer adapter is a valid promotion source for its tier.
    """

    def read_whole(self, path: str) -> "Event":
        """Whole-file read; event value = bytes read."""
        ...  # pragma: no cover - protocol


BACKEND_KINDS = ("posix", "object")


@dataclass(frozen=True)
class BackendConfig:
    """Validated backend selection for :func:`build_backend`.

    ``kind="posix"`` builds a :class:`~repro.storage.filesystem.Filesystem`
    over a :class:`~repro.storage.device.BlockDevice`; ``kind="object"``
    builds an :class:`~repro.storage.object_store.ObjectStore`.  Profiles
    may be named presets (a key of :data:`~repro.storage.device.PROFILES`
    or :data:`~repro.storage.object_store.OBJECT_PROFILES`) or full profile
    objects; the scalar overrides apply on top of the resolved profile so a
    config can express "the stock S3 preset but 5 ms GETs" without
    defining a whole new preset.
    """

    kind: str = "posix"
    #: posix: the block-device preset name or a full profile
    device_profile: Union[str, DeviceProfile] = "intel-p4600"
    #: posix: page-cache capacity in bytes (0 = no cache)
    cache_bytes: int = 0
    #: posix: override the profile's ``mixed_write_penalty`` (None = keep)
    write_penalty: Optional[float] = None
    #: object: the object-store preset name or a full profile
    object_profile: Union[str, "ObjectStoreProfile"] = "s3"
    #: object: override per-request GET / PUT latency (seconds)
    request_latency: Optional[float] = None
    put_latency: Optional[float] = None
    #: object: override the aggregate service bandwidth (bytes/s)
    bandwidth: Optional[float] = None
    #: object: override the concurrency-knee parameter (higher = more
    #: streams needed to approach the aggregate rate)
    kappa: Optional[float] = None
    #: object: override the request-parallelism ceiling
    max_concurrency: Optional[int] = None
    #: component name; None picks a per-kind default ("fs" / "objstore")
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; choose one of {list(BACKEND_KINDS)}"
            )
        if isinstance(self.device_profile, str) and self.device_profile not in PROFILES:
            raise ValueError(
                f"unknown device_profile {self.device_profile!r}; "
                f"choose one of {sorted(PROFILES)}"
            )
        object.__setattr__(
            self, "cache_bytes",
            validate_byte_count(self.cache_bytes, "cache_bytes", allow_zero=True),
        )
        if self.write_penalty is not None and not 0.0 <= self.write_penalty < 1.0:
            raise ValueError("write_penalty must be in [0, 1)")
        if isinstance(self.object_profile, str):
            from .object_store import OBJECT_PROFILES

            if self.object_profile not in OBJECT_PROFILES:
                raise ValueError(
                    f"unknown object_profile {self.object_profile!r}; "
                    f"choose one of {sorted(OBJECT_PROFILES)}"
                )
        for field_name in ("request_latency", "put_latency"):
            value = getattr(self, field_name)
            if value is not None and value < 0:
                raise ValueError(f"{field_name} must be non-negative")
        for field_name in ("bandwidth", "kappa"):
            value = getattr(self, field_name)
            if value is not None and value <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")

    def with_overrides(self, **overrides) -> "BackendConfig":
        """A copy with the given fields replaced (sugar over ``replace``)."""
        return replace(self, **overrides)


def build_backend(
    sim: "Simulator",
    config: Optional[BackendConfig] = None,
    streams: Optional["RandomStreams"] = None,
) -> StorageBackend:
    """Construct the backend a :class:`BackendConfig` describes.

    ``streams`` feeds the device's latency-jitter RNG for posix backends
    whose profile enables it (the stock presets are fully deterministic).
    """
    config = config or BackendConfig()
    if config.kind == "posix":
        from .cache import PageCache

        profile = config.device_profile
        if isinstance(profile, str):
            profile = PROFILES[profile]()
        if config.write_penalty is not None:
            profile = replace(profile, mixed_write_penalty=config.write_penalty)
        name = config.name or "fs"
        device = BlockDevice(sim, profile, streams=streams, name=f"{name}.dev")
        cache = PageCache(sim, config.cache_bytes) if config.cache_bytes else None
        return Filesystem(sim, device, cache=cache, name=name)

    from .object_store import OBJECT_PROFILES, ObjectStore

    profile = config.object_profile
    if isinstance(profile, str):
        profile = OBJECT_PROFILES[profile]()
    overrides = {
        key: value
        for key, value in (
            ("get_latency", config.request_latency),
            ("put_latency", config.put_latency),
            ("aggregate_bandwidth", config.bandwidth),
            ("kappa", config.kappa),
            ("max_concurrency", config.max_concurrency),
        )
        if value is not None
    }
    if overrides:
        profile = replace(profile, **overrides)
    return ObjectStore(sim, profile, name=config.name or "objstore")
