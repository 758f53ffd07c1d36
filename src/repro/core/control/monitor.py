"""Monitoring bookkeeping for the control plane.

Stores the time series of :class:`MetricsSnapshot` the controller collects
from each stage, plus derived statistics the experiments report (starvation
series, producer allocation over time).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, List, Optional, Tuple

from ..optimization import MetricsSnapshot

#: Default retention bound: long-running live controllers poll for hours, so
#: an unbounded history is a slow leak.  10k snapshots ≈ 17 minutes at the
#: default 0.1 s live period — far more than any policy looks back — while
#: capping memory at a few MB per stage.
DEFAULT_MAX_ENTRIES = 10_000


class MetricsHistory:
    """Bounded history of one stage's snapshots (oldest evicted first).

    ``max_entries=None`` disables the bound (useful for short deterministic
    experiments that post-process the full series).
    """

    def __init__(
        self, stage_name: str, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.stage_name = stage_name
        self.max_entries = max_entries
        # deque(maxlen=None) is unbounded; otherwise appends auto-evict O(1).
        self._snapshots: Deque[MetricsSnapshot] = deque(maxlen=max_entries)

    def append(self, snapshot: MetricsSnapshot) -> None:
        self._snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def latest(self) -> Optional[MetricsSnapshot]:
        return self._snapshots[-1] if self._snapshots else None

    @property
    def previous(self) -> Optional[MetricsSnapshot]:
        return self._snapshots[-2] if len(self._snapshots) >= 2 else None

    def snapshots(self) -> List[MetricsSnapshot]:
        return list(self._snapshots)

    # -- derived series ----------------------------------------------------------
    def starvation_series(self) -> List[Tuple[float, float]]:
        """(time, per-period starvation fraction) for every interval."""
        out: List[Tuple[float, float]] = []
        for prev, cur in zip(self._snapshots, islice(self._snapshots, 1, None)):
            out.append((cur.time, cur.starvation(prev)))
        return out

    def producer_series(self) -> List[Tuple[float, int]]:
        return [(s.time, s.producers_allocated) for s in self._snapshots]

    def peak_producers(self) -> int:
        return max((s.producers_allocated for s in self._snapshots), default=0)

    def final_settings(self) -> Tuple[int, int]:
        """(producers, buffer capacity) at the last observation."""
        last = self.latest
        if last is None:
            return (0, 0)
        return (last.producers_allocated, last.buffer_capacity)
