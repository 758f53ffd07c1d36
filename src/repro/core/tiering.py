"""Storage-tiering optimization objects (the paper's §VII extension).

The paper's future work: *"it would be interesting to explore the impact of
storage tiering policies under different datasets and models."*  Because the
data plane treats optimizations as self-contained objects, tiering slots in
next to (or in front of) the prefetcher with no stage or framework changes —
which is precisely the extensibility claim of §III.

Two policies share one mechanism (:class:`TieringObject` holds the resident
map, integer byte accounting, background promotion, and eviction; the
policy hooks decide *what* to promote and *whom* to evict):

* :class:`TieringObject` — the **reactive** baseline: a file is promoted
  (copied to the fast tier, in the background) once it has been read
  ``promote_after`` times; the least-recently-used resident is demoted when
  the fast tier fills.
* :class:`ClairvoyantTieringObject` — the **schedule-driven** policy
  (ROADMAP item 1): promotions and evictions consult a
  :class:`~repro.core.schedule.LookaheadSchedule`.  A file is promoted on
  its *first* slow read iff it is used again within the lookahead horizon;
  the eviction victim is the resident with the **farthest next use**
  (Belady's optimal replacement — realizable because the seeded shuffle
  makes the future access order known); promotion is declined entirely when
  every resident is needed sooner than the candidate (no cache thrash).

Both tiers sit *under* the prefetcher in the full hierarchy
(RAM buffer → node-local fast tier → backing FS): :meth:`read_whole` lets a
tiering object act as the prefetcher's backend, and :meth:`serve` lets it
catch uncovered (e.g. validation) reads as a stage optimization object.

Two seams added for the cluster-wide cooperative cache (:mod:`repro.cluster`):

* ``promotion_source`` — an alternative byte source for tier fills.  In a
  peer-to-peer deployment the copy comes from the *owning peer's* tier over
  RPC, not from the backing store, so a promotion never re-reads the PFS.
  ``promotion_source(path)`` returns an event for the byte count;
  ``promotion_source(path, done)`` settles the caller's ``done`` instead,
  failing it as the caller's own chain would (``process_error(done.name,
  exc)``).
* :meth:`fetch_through` — read-through semantics: a miss fetches from the
  source **exactly once** (concurrent fetches for the same path coalesce
  onto one in-flight read) and admits the bytes inline, which is what makes
  "each sample hits the backing store at most once per epoch cluster-wide"
  an invariant rather than a tendency.

Knobs are control-plane tunable via ``TuningSettings.extra``
(``"promote_after"``, ``"fast_capacity_bytes"``); capacities follow the
discrete-byte convention — integers only, ``float("inf")``/NaN rejected.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set

from ..simcore.errors import process_error
from ..simcore.event import Event
from ..telemetry import CounterSet
from ..storage.backend import validate_byte_count
from ..storage.filesystem import Filesystem
from .optimization import MetricsSnapshot, OptimizationObject, TuningSettings
from .schedule import NEVER, LookaheadSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.kernel import Simulator
    from ..storage.backend import SampleSource


@dataclass(frozen=True)
class TieringConfig:
    """Validated tier-hierarchy knobs for :class:`~repro.core.PrismaConfig`.

    ``fast_profile`` names a :data:`~repro.storage.device.PROFILES` preset
    for the node-local fast tier.  ``backing_capacity_bytes``, when known,
    lets validation reject a nonsensical hierarchy (a "fast tier" at least
    as large as the backing store needs no tiering at all — and usually
    indicates swapped arguments).
    """

    fast_capacity_bytes: int
    promote_after: int = 2
    clairvoyant: bool = False
    fast_profile: str = "ramdisk"
    backing_capacity_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "fast_capacity_bytes",
            validate_byte_count(self.fast_capacity_bytes, "fast_capacity_bytes"),
        )
        if isinstance(self.promote_after, bool) or not isinstance(self.promote_after, int):
            raise ValueError(f"promote_after must be an int, got {self.promote_after!r}")
        if self.promote_after < 1:
            raise ValueError("promote_after must be >= 1")
        from ..storage.device import PROFILES

        if self.fast_profile not in PROFILES:
            raise ValueError(
                f"unknown fast_profile {self.fast_profile!r}; "
                f"choose one of {sorted(PROFILES)}"
            )
        if self.backing_capacity_bytes is not None:
            object.__setattr__(
                self,
                "backing_capacity_bytes",
                validate_byte_count(self.backing_capacity_bytes, "backing_capacity_bytes"),
            )
            if self.fast_capacity_bytes >= self.backing_capacity_bytes:
                raise ValueError(
                    "fast tier must be smaller than the backing store "
                    f"({self.fast_capacity_bytes} >= {self.backing_capacity_bytes}); "
                    "a fast tier that holds everything is just the backing store"
                )


class TieringObject(OptimizationObject):
    """Two-level tier hierarchy; reactive promote-on-Nth-access policy."""

    def __init__(
        self,
        sim: "Simulator",
        backend: "SampleSource",
        fast_fs: Filesystem,
        fast_capacity_bytes: int,
        promote_after: int = 2,
        name: str = "prisma.tiering",
        promotion_source: Optional[Callable[..., Event]] = None,
    ) -> None:
        super().__init__(sim, backend, name)
        if promote_after < 1:
            raise ValueError("promote_after must be >= 1")
        self.fast_fs = fast_fs
        self.fast_capacity_bytes = validate_byte_count(fast_capacity_bytes, "fast_capacity_bytes")
        self.promote_after = promote_after
        #: where tier fills read their bytes from; ``None`` means the
        #: backend.  The cluster layer points this at a peer's tier so a
        #: promotion never re-reads the backing store.
        self.promotion_source = promotion_source
        #: path -> bytes resident on the fast tier (LRU order)
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        self._resident_bytes = 0
        self._access_counts: Dict[str, int] = {}
        #: paths with a background promotion in flight (pruned in the
        #: promotion's ``finally`` — crashes and injected faults included)
        self._promoting: Set[str] = set()
        #: path -> in-flight read-through fetch (concurrent requests coalesce)
        self._fetching: Dict[str, Event] = {}
        self._fetch_name = f"{name}.fetch"
        self.counters = CounterSet(sim.metrics, "tiering", name)

    # -- data path --------------------------------------------------------------
    def read_whole(self, path: str) -> Event:
        """Serve a whole-file read from the tier hierarchy.

        This is the :class:`~repro.storage.posix.PosixLike` read operation
        the prefetcher's producers use, so a tiering object can sit directly
        under the RAM buffer as the prefetcher's backend.
        """
        if path in self._resident:
            self._resident.move_to_end(path)
            self.counters.add("fast_hits")
            return self.fast_fs.read_whole(self._tier_path(path))
        self.counters.add("slow_reads")
        count = self._access_counts.get(path, 0) + 1
        self._access_counts[path] = count
        if path not in self._promoting and self._should_promote(path, count):
            self._promoting.add(path)
            self.sim.process(self._promote(path), name=f"{self.name}.promote")
        return self.backend.read_whole(path)

    def serve(self, path: str) -> Optional[Event]:
        return self.read_whole(path)

    def fetch_through(self, path: str, admit: bool = True) -> Event:
        """Read-through: a miss reads the source exactly once, then resides.

        The cooperative-cache read operation (:mod:`repro.cluster`): a
        resident path is served from the fast tier; a miss reads the
        promotion source (or backend) **once**, admits the bytes inline
        when ``admit`` is true, and returns the byte count.  Concurrent
        fetches for the same path coalesce onto the single in-flight read —
        the mechanism behind "at most one backing-store read per sample",
        and what makes retried (at-most-once ambiguous) peer requests safe.

        ``admit=False`` reads through without caching — a requester that
        does not own the sample and should not displace its own shard.
        Such a fetch hands its event down to the promotion source, which
        settles it; there is nothing to do between the source's bytes and
        the caller.
        """
        if path in self._resident:
            self._resident.move_to_end(path)
            self.counters.fast_hits.value += 1
            return self.fast_fs.read_whole(self._tier_path(path))
        inflight = self._fetching.get(path)
        if inflight is not None:
            self.counters.coalesced_fetches.value += 1
            return inflight
        self.counters.slow_reads.value += 1
        done = Event(self.sim, name=self._fetch_name)
        self._fetching[path] = done
        done.callbacks.append(lambda _ev: self._fetching.pop(path, None))
        if not admit and self.promotion_source is not None:
            self.promotion_source(path, done)
            return done

        def fail(exc: BaseException) -> None:
            done.fail(process_error(self._fetch_name, exc))

        def fetched(ev: Event) -> None:
            if not ev.ok:
                fail(ev.exception)
                return
            nbytes = ev.value
            written = self._admit(path, nbytes) if admit else None
            if written is None:
                done.succeed(nbytes)
                return
            written.add_callback(
                lambda w: done.succeed(nbytes) if w.ok else fail(w.exception)
            )

        self._source_read(path).add_callback(fetched)
        return done

    def _source_read(self, path: str) -> Event:
        """Read the bytes a tier fill needs (promotion source or backend)."""
        if self.promotion_source is not None:
            return self.promotion_source(path)
        return self.backend.read_whole(path)

    def _tier_path(self, path: str) -> str:
        return f"/fast{path}"

    # -- policy hooks ----------------------------------------------------------
    def _should_promote(self, path: str, count: int) -> bool:
        """Reactive policy: promote once the access count hits the knob."""
        return count >= self.promote_after

    def _pick_victim(self) -> str:
        """Reactive policy: demote the least-recently-used resident."""
        return next(iter(self._resident))

    def _make_room(self, path: str, nbytes: int) -> bool:
        """Evict until ``nbytes`` fit; return False to abort the promotion."""
        while self._resident and self._resident_bytes + nbytes > self.fast_capacity_bytes:
            self._demote(self._pick_victim())
        return self._resident_bytes + nbytes <= self.fast_capacity_bytes

    # -- promotion / demotion --------------------------------------------------
    def _promote(self, path: str):
        """Background copy slow → fast, then mark resident."""
        try:
            try:
                nbytes = yield self._source_read(path)
            except Exception:  # noqa: BLE001 - promotion is best-effort
                self.counters.add("promotion_failures")
                return
            written = self._admit(path, nbytes)
            if written is not None:
                yield written
        finally:
            # Unconditional: a crash (Interrupt) or injected fault mid-copy
            # must not leave the path stuck in "promotion in flight" forever.
            self._promoting.discard(path)

    def _admit(self, path: str, nbytes: int) -> Optional[Event]:
        """Make room, copy onto the fast tier, and mark ``path`` resident.

        Shared tail of background promotion and read-through fetches.
        Returns the fast-tier write, which marks the path resident when it
        lands, or None when the bytes were declined (too large, or eviction
        could not free enough room under the policy).
        """
        if nbytes > self.fast_capacity_bytes:
            self.counters.add("too_large")
            return None
        if not self._make_room(path, nbytes):
            self.counters.add("promotions_declined")
            return None
        tier_path = self._tier_path(path)
        if not self.fast_fs.exists(tier_path):
            self.fast_fs.create(tier_path, 0)
        written = self.fast_fs.write(tier_path, nbytes)
        written.add_callback(lambda ev: self._resident_now(path, nbytes) if ev.ok else None)
        return written

    def _resident_now(self, path: str, nbytes: int) -> None:
        # A racing promotion/demotion interleaving may have made the
        # path resident meanwhile; replace, never double-count.
        old = self._resident.pop(path, None)
        if old is not None:
            self._resident_bytes -= old
        self._resident[path] = int(nbytes)
        self._resident_bytes += int(nbytes)
        self.counters.add("promotions")

    def _demote(self, victim: str) -> None:
        """Drop one resident file (the slow tier remains authoritative)."""
        size = self._resident.pop(victim)
        self._resident_bytes -= size
        # A demoted file must re-earn promotion: keeping its access count
        # would re-promote it on the very next read, thrashing the tier —
        # and the stale entry is the unbounded-growth leak this fixes.
        self._access_counts.pop(victim, None)
        tier_path = self._tier_path(victim)
        if self.fast_fs.exists(tier_path):
            self.fast_fs.unlink(tier_path)
        self.counters.add("demotions")

    def _evict_for(self, nbytes: int) -> None:
        while self._resident and self._resident_bytes + nbytes > self.fast_capacity_bytes:
            self._demote(self._pick_victim())

    # -- epoch lifecycle --------------------------------------------------------
    def on_epoch(self, paths) -> None:
        """Prune bookkeeping for files that left the dataset.

        Access counts deliberately survive epoch boundaries (a once-per-
        epoch workload needs cross-epoch counting to ever promote), but
        entries for paths no longer in the filenames list are dead weight —
        the second half of the unbounded-growth leak.
        """
        covered = set(paths)
        for path in list(self._access_counts):
            if path not in covered:
                del self._access_counts[path]
        for path in [p for p in self._resident if p not in covered]:
            self._demote(path)

    # -- control interface -------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        hits = self.counters.get("fast_hits")
        misses = self.counters.get("slow_reads")
        return MetricsSnapshot(
            time=self.sim.now,
            requests=hits + misses,
            hits=hits,
            waits=misses,
            buffer_level=len(self._resident),
            buffer_capacity=self.fast_capacity_bytes,
            bytes_fetched=self.counters.get("promotions"),
            queue_remaining=0,
        )

    def apply_settings(self, settings: TuningSettings) -> None:
        promote_after = settings.extra.get("promote_after")
        if promote_after is not None:
            if int(promote_after) < 1:
                raise ValueError("promote_after must be >= 1")
            self.promote_after = int(promote_after)
        capacity = settings.extra.get("fast_capacity_bytes")
        if capacity is not None:
            self.fast_capacity_bytes = validate_byte_count(capacity, "fast_capacity_bytes")
            self._evict_for(0)

    # -- observability -----------------------------------------------------------
    def fast_tier_hit_rate(self) -> float:
        hits = self.counters.get("fast_hits")
        total = hits + self.counters.get("slow_reads")
        return hits / total if total > 0 else 0.0

    @property
    def resident_files(self) -> int:
        return len(self._resident)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def promotions_in_flight(self) -> int:
        return len(self._promoting)

    @property
    def tracked_access_paths(self) -> int:
        """Size of the access-count table (the leak regression surface)."""
        return len(self._access_counts)


class ClairvoyantTieringObject(TieringObject):
    """Schedule-driven tiering: Belady eviction, next-use-aware promotion.

    Without an installed schedule it behaves like an always-decline cache
    (nothing is promoted); :meth:`install_schedule` — called directly or
    propagated from :meth:`ParallelPrefetcher.install_schedule
    <repro.core.prefetcher.ParallelPrefetcher.install_schedule>` — turns
    the oracle on.
    """

    def __init__(
        self,
        sim: "Simulator",
        backend: "SampleSource",
        fast_fs: Filesystem,
        fast_capacity_bytes: int,
        name: str = "prisma.tiering",
        promotion_source: Optional[Callable[..., Event]] = None,
    ) -> None:
        super().__init__(
            sim, backend, fast_fs, fast_capacity_bytes, promote_after=1,
            name=name, promotion_source=promotion_source,
        )
        self.schedule: Optional[LookaheadSchedule] = None

    def install_schedule(self, schedule: LookaheadSchedule) -> None:
        self.schedule = schedule

    # -- policy hooks ----------------------------------------------------------
    def _should_promote(self, path: str, count: int) -> bool:
        """Promote on first read iff the schedule shows a future use."""
        return (
            self.schedule is not None
            and self.schedule.next_use_distance(path) != NEVER
        )

    def _pick_victim(self) -> str:
        """Belady: evict the resident whose next use is farthest away."""
        schedule = self.schedule
        assert schedule is not None  # _make_room only runs under a schedule
        victim, farthest = None, -1
        for path in self._resident:
            distance = schedule.next_use_distance(path)
            if distance == NEVER:
                return path  # never used again: the perfect victim
            if distance > farthest:
                victim, farthest = path, distance
        assert victim is not None
        return victim

    def _make_room(self, path: str, nbytes: int) -> bool:
        """Evict farthest-use residents, but never one needed sooner.

        Declining the promotion when every resident's next use is nearer
        than the candidate's is what makes the policy Belady-optimal rather
        than merely Belady-flavored: admitting the candidate anyway would
        evict a file we will stall on sooner.
        """
        if self.schedule is None:
            return False
        distance = self.schedule.next_use_distance(path)
        if distance == NEVER:
            return False
        while self._resident and self._resident_bytes + nbytes > self.fast_capacity_bytes:
            victim = self._pick_victim()
            if self.schedule.next_use_distance(victim) <= distance:
                return False
            self._demote(victim)
        return self._resident_bytes + nbytes <= self.fast_capacity_bytes
