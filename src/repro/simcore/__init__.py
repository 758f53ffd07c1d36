"""``repro.simcore`` — a dependency-free discrete-event simulation kernel.

The kernel is the substrate for every simulated component in this
reproduction (storage devices, DL framework pipelines, the PRISMA data and
control planes).  It provides:

* :class:`Simulator` — the slot-scheduled event loop and clock: a FIFO
  slot per timestamp, an immediate queue for the current time, and a heap
  of distinct future timestamps (see DESIGN.md on kernel internals).
* :class:`Process` — generator-based cooperative processes.
* Events: :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf`.
* Resources: :class:`Store`, :class:`FilterStore`, :class:`KeyedStore`
  (O(1) key-addressed buffering over a dict), :class:`KeyedIndex` (the
  page cache's ordered map), :class:`Resource`, :class:`Lock`,
  :class:`Container`.  Pending operations are :class:`RequestEvent`\\ s
  with an explicit run-queue state
  (``WAITING``/``READY``/``RUNNING``/``CANCELLED``).
* :class:`RandomStreams` — named deterministic RNG streams.

The telemetry primitives live in :mod:`repro.telemetry`.
"""

from .errors import (
    DuplicateKeyError,
    DuplicateRequestError,
    EventAlreadyTriggered,
    Interrupt,
    ProcessError,
    SchedulingError,
    SimulationError,
    StopSimulation,
    process_error,
)
from .event import AllOf, AnyOf, Event, Timeout
from .kernel import Process, Simulator
from .random import RandomStreams
from .resources import (
    CANCELLED,
    READY,
    RUNNING,
    WAITING,
    Container,
    FilterStore,
    KeyedIndex,
    KeyedStore,
    KeyedStoreGet,
    KeyedStorePut,
    Lock,
    RequestEvent,
    Resource,
    ResourceRequest,
    Store,
    StoreGet,
    StorePut,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CANCELLED",
    "Container",
    "DuplicateKeyError",
    "DuplicateRequestError",
    "Event",
    "EventAlreadyTriggered",
    "FilterStore",
    "Interrupt",
    "KeyedIndex",
    "KeyedStore",
    "KeyedStoreGet",
    "KeyedStorePut",
    "Lock",
    "Process",
    "ProcessError",
    "READY",
    "RUNNING",
    "RandomStreams",
    "RequestEvent",
    "Resource",
    "ResourceRequest",
    "SchedulingError",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "WAITING",
    "process_error",
]
