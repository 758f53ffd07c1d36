"""Clairvoyant lookahead schedule (ROADMAP item 1; Dryden et al.).

The moment a training run fixes its shuffle seed, the access order of
*every* future epoch is known — the per-epoch permutations are pure
functions of ``(seed, epoch)`` (see :class:`~repro.dataset.shuffle.
EpochShuffler`).  A reactive prefetcher throws that information away and
rediscovers each epoch's order from the FIFO filename list; a clairvoyant
one plans against the full horizon:

* the prefetcher keeps fetching **across the epoch boundary** while its
  buffer has slack (the next epoch's prefix is known);
* the tier hierarchy places files by **next-use distance** — promote what
  is needed soonest, evict what is needed farthest in the future (Belady's
  optimal replacement, which is actually realizable here because the future
  is not a guess).

:class:`LookaheadSchedule` is the shared oracle: a window of K epochs of
shuffled filenames flattened into one global access order, a *clock* that
tracks how far the fetch frontier has advanced, and two queries —
``peek_ahead`` (what should be fetched next, beyond the live epoch) and
``next_use_distance`` (how soon a file is needed again).  It is pure data
(no simulator dependency), so the simulated and the live
(:class:`~repro.core.live.LivePrefetcher`) data planes share it unchanged.

Clock protocol: drivers hand each epoch's list to the data plane in
schedule order (``start_epoch`` validates this), and the prefetcher calls
``mark_fetched(path)`` once per dequeue.  Dequeues happen in schedule
order, so each mark matches the clock position exactly and advances it by
one; out-of-band fetches — a crash-requeued path being refetched, an
uncovered validation file — match nothing and leave the clock alone.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence

__all__ = ["NEVER", "LookaheadSchedule"]

#: Sentinel next-use distance for "not used again within the horizon".
#: An int (not ``inf``) so distance arithmetic stays in integer byte/slot
#: accounting land, and it compares greater than any real distance.
NEVER = sys.maxsize


class LookaheadSchedule:
    """The known access order for the next K epochs, with a fetch clock.

    Parameters
    ----------
    epochs:
        One shuffled filenames list per epoch, oldest first.  Every epoch
        must be a permutation of the same path set (the DL contract: each
        sample is read exactly once per epoch).
    """

    def __init__(self, epochs: Sequence[Sequence[str]], name: str = "prisma.schedule") -> None:
        if not epochs:
            raise ValueError("schedule needs at least one epoch")
        self.name = name
        self._epochs: List[List[str]] = [list(e) for e in epochs]
        first = set(self._epochs[0])
        if len(first) != len(self._epochs[0]):
            raise ValueError(f"{name}: duplicate paths in epoch 0")
        for i, epoch in enumerate(self._epochs[1:], start=1):
            if len(epoch) != len(self._epochs[0]) or set(epoch) != first:
                raise ValueError(
                    f"{name}: epoch {i} is not a permutation of epoch 0's paths"
                )
        self._epoch_len = len(self._epochs[0])
        #: the flattened global access order across all scheduled epochs
        self._order: List[str] = [p for epoch in self._epochs for p in epoch]
        #: path -> global positions of its future uses (ascending)
        self._positions: Dict[str, Deque[int]] = {}
        for pos, path in enumerate(self._order):
            self._positions.setdefault(path, deque()).append(pos)
        #: fetch frontier: every position < clock has been claimed for fetch
        self._clock = 0
        #: epochs handed to the data plane via :meth:`start_epoch`
        self._started = 0

    @classmethod
    def from_seed(
        cls,
        paths: Sequence[str],
        seed: int = 0,
        epochs: int = 1,
        name: str = "prisma.schedule",
        stream_name: str = "shuffle",
    ) -> "LookaheadSchedule":
        """Generate the schedule the seeded shuffle determines.

        Uses the same derived-stream convention as
        :class:`~repro.dataset.shuffle.EpochShuffler` (stream
        ``"<stream_name>.epoch<e>"`` per epoch), so a framework shuffling
        with the same seed produces byte-identical epoch orders.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        # Only a seeded schedule needs the RNG streams (and numpy under
        # them); the live plane imports this module without either.
        from ..simcore.random import RandomStreams

        paths = list(paths)
        streams = RandomStreams(seed)
        orders = []
        for e in range(epochs):
            rng = streams.fresh(f"{stream_name}.epoch{e}")
            orders.append([paths[int(i)] for i in rng.permutation(len(paths))])
        return cls(orders, name=name)

    # -- introspection ---------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return len(self._epochs)

    @property
    def epoch_length(self) -> int:
        return self._epoch_len

    @property
    def clock(self) -> int:
        return self._clock

    @property
    def epochs_started(self) -> int:
        return self._started

    def epoch_order(self, epoch: int) -> List[str]:
        """The shuffled filenames list for ``epoch`` (a copy)."""
        if not 0 <= epoch < len(self._epochs):
            raise IndexError(f"epoch {epoch} outside schedule horizon")
        return list(self._epochs[epoch])

    def covers(self, path: str) -> bool:
        return path in self._positions

    @property
    def remaining(self) -> int:
        """Accesses not yet claimed by the fetch frontier."""
        return len(self._order) - self._clock

    # -- driver protocol -------------------------------------------------------
    def start_epoch(self, paths: Iterable[str]) -> int:
        """Validate and account one epoch handed to the data plane.

        The data plane must receive epochs in schedule order — a diverging
        list means the framework's shuffle and the schedule disagree, and
        every clairvoyant decision after that point would be wrong, so the
        mismatch is rejected loudly.  Returns the epoch index started.
        """
        if self._started >= len(self._epochs):
            raise ValueError(
                f"{self.name}: all {len(self._epochs)} scheduled epochs already started"
            )
        expected = self._epochs[self._started]
        if list(paths) != expected:
            raise ValueError(
                f"{self.name}: epoch {self._started} order diverges from the schedule "
                "(is the framework shuffling with a different seed?)"
            )
        self._started += 1
        return self._started - 1

    def mark_fetched(self, path: str) -> bool:
        """Advance the fetch clock past ``path``'s next scheduled use.

        Returns True when the mark matched the clock position (the normal
        in-order dequeue); out-of-band fetches (crash-requeued retries,
        uncovered paths) return False and leave the clock untouched — their
        scheduled position was already claimed the first time around.
        """
        positions = self._positions.get(path)
        if not positions:
            return False
        while positions and positions[0] < self._clock:
            positions.popleft()
        if positions and positions[0] == self._clock:
            positions.popleft()
            self._clock += 1
            return True
        return False

    def peek_ahead(self, max_epochs: int) -> Optional[str]:
        """The next unfetched path, if it lies beyond the live epoch.

        Returns None while the fetch frontier is still inside the current
        (started) epoch — those fetches belong to the FIFO queue — and when
        the frontier is more than ``max_epochs`` epochs past the live one,
        or past the schedule horizon entirely.
        """
        if max_epochs < 1 or self._clock >= len(self._order):
            return None
        epoch = self._clock // self._epoch_len
        current = self._started - 1
        if epoch <= current or epoch > current + max_epochs:
            return None
        return self._order[self._clock]

    # -- the Belady query ------------------------------------------------------
    def next_use_distance(self, path: str) -> int:
        """Accesses until ``path`` is needed again (:data:`NEVER` if not).

        Distance 0 means "needed right now" (its next scheduled position is
        the fetch frontier).  The tier hierarchy evicts the resident file
        with the *largest* distance and declines to promote files whose
        distance is :data:`NEVER` — Belady's algorithm, realizable because
        the shuffle makes the future access order known.
        """
        positions = self._positions.get(path)
        if not positions:
            return NEVER
        while positions and positions[0] < self._clock:
            positions.popleft()
        if not positions:
            return NEVER
        return positions[0] - self._clock

    def __repr__(self) -> str:
        return (
            f"<LookaheadSchedule {self.name!r} epochs={len(self._epochs)} "
            f"clock={self._clock}/{len(self._order)}>"
        )
