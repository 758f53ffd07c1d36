"""``repro.storage`` — the storage backend substrate.

Models the I/O stack under the DL frameworks: block devices with realistic
concurrency scaling (:mod:`.device`, :mod:`.fluid`), an LRU page cache
(:mod:`.cache`), the backend base class and the local filesystem
(:mod:`.filesystem`), an S3-like object store (:mod:`.object_store`), the
POSIX interception seam PRISMA hooks (:mod:`.posix`), and a shared
distributed PFS for multi-tenant scenarios (:mod:`.distributed`).

All three backends subclass :class:`~repro.storage.filesystem.StorageBackend`,
which owns the namespace every backend shares and leaves each its data
path; :mod:`.backend` re-exports it, and
:func:`~repro.storage.backend.build_backend` constructs a local filesystem or
an object store from a validated :class:`~repro.storage.backend.BackendConfig`.
"""

from .backend import (
    BACKEND_KINDS,
    BackendConfig,
    SampleSource,
    StorageBackend,
    build_backend,
    validate_byte_count,
)
from .cache import PageCache
from .device import (
    GiB,
    KiB,
    MiB,
    PROFILES,
    BlockDevice,
    DeviceProfile,
    intel_p4600,
    nvme_gen4,
    ramdisk,
    sata_hdd,
)
from .distributed import DistributedFilesystem, StorageTarget
from .filesystem import (
    FaultHook,
    FileExists,
    FileNotFound,
    Filesystem,
    InvalidRead,
    ReadFault,
    SimFile,
    StorageError,
    TransientReadError,
)
from .fluid import FairShareChannel, constant_capacity, saturating_capacity
from .object_store import (
    OBJECT_PROFILES,
    ObjectStore,
    ObjectStoreProfile,
    premium_object,
    s3_like,
)
from .posix import BadFileDescriptor, PosixLayer, PosixLike

__all__ = [
    "BACKEND_KINDS",
    "BackendConfig",
    "BadFileDescriptor",
    "BlockDevice",
    "DeviceProfile",
    "DistributedFilesystem",
    "FairShareChannel",
    "FaultHook",
    "FileExists",
    "FileNotFound",
    "Filesystem",
    "GiB",
    "InvalidRead",
    "KiB",
    "MiB",
    "OBJECT_PROFILES",
    "ObjectStore",
    "ObjectStoreProfile",
    "PROFILES",
    "PageCache",
    "PosixLayer",
    "PosixLike",
    "ReadFault",
    "SampleSource",
    "SimFile",
    "StorageBackend",
    "StorageError",
    "StorageTarget",
    "TransientReadError",
    "build_backend",
    "constant_capacity",
    "intel_p4600",
    "nvme_gen4",
    "premium_object",
    "ramdisk",
    "s3_like",
    "sata_hdd",
    "saturating_capacity",
    "validate_byte_count",
]
