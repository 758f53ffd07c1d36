"""Deterministic, named RNG streams for simulations.

A single experiment seed fans out into independent per-component streams
(``streams.stream("shuffle.epoch3")``), so adding a new random consumer never
perturbs the draws of existing ones — the standard trick for reproducible
parallel simulation.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class RandomStreams:
    """Factory of independent named :class:`numpy.random.Generator` streams.

    Each stream is seeded by ``SHA-256(root_seed || name)`` so streams are
    statistically independent and stable across processes and platforms.

    numpy loads when the first factory is built, not when this module is
    imported: a process that builds none (the live plane) never loads it,
    and a simulation loads it while it sets up, before its first run.
    """

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        from numpy.random import default_rng

        self.root_seed = int(root_seed)
        self._default_rng = default_rng
        self._streams: Dict[str, np.random.Generator] = {}

    def seed_for(self, name: str) -> int:
        """The derived 64-bit seed for a stream name (pure function)."""
        digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """The (cached) generator for ``name``; same name → same object."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._default_rng(self.seed_for(name))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """A brand-new generator for ``name`` (not cached, state reset)."""
        return self._default_rng(self.seed_for(name))

    def spawn(self, name: str) -> "RandomStreams":
        """A child stream-factory rooted at a derived seed."""
        return RandomStreams(self.seed_for(name) % (2**63))
