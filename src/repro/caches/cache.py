"""MRU-ordered set-associative cache."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.caches.mru import MRUSet
from repro.timing.cacti import CacheGeometry


class AccessOutcome(enum.Enum):
    """Where an access was satisfied."""

    HIT_A = "hit_a"
    HIT_B = "hit_b"
    MISS = "miss"


@dataclass(slots=True)
class CacheStats:
    """Aggregate counters over the lifetime of a cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    b_hits: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when there were no accesses)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses


class SetAssociativeCache:
    """A set-associative cache with exact MRU ordering in every set.

    The cache is a timing/occupancy model only: it tracks which block
    addresses are resident, not their data.  Sets are created on first
    access, so a cache costs in proportion to the sets a run touches; an
    untouched set behaves exactly like an empty one.

    Parameters
    ----------
    geometry:
        Physical organisation (capacity, associativity, line size).
    name:
        Identifier used in statistics and log output.
    """

    def __init__(self, geometry: CacheGeometry, *, name: str = "cache") -> None:
        self.name = name
        self.geometry = geometry
        self._block_bytes = geometry.block_bytes
        self._num_sets = geometry.num_sets
        self._ways = geometry.associativity
        self._sets: list[MRUSet | None] = [None] * self._num_sets
        self.stats = CacheStats()

    # ------------------------------------------------------------------ API

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self._num_sets

    @property
    def ways(self) -> int:
        """Physical associativity of the cache."""
        return self.geometry.associativity

    def block_address(self, address: int) -> int:
        """Return the block-aligned address containing *address*."""
        return address - (address % self._block_bytes)

    def set_index(self, address: int) -> int:
        """Return the set index for *address*."""
        return (address // self._block_bytes) % self._num_sets

    def tag(self, address: int) -> int:
        """Return the tag for *address*."""
        return address // (self._block_bytes * self._num_sets)

    def lookup(self, address: int) -> int:
        """Access *address*; return the block's previous MRU position (-1 on miss)."""
        # One combined block/index/tag computation: this is the innermost
        # operation of every cache access, so the separate set_index()/tag()
        # helpers (two extra calls and divisions) are folded in here.
        block = address // self._block_bytes
        num_sets = self._num_sets
        index = block % num_sets
        mru_set = self._sets[index]
        if mru_set is None:
            mru_set = self._sets[index] = MRUSet(self._ways)
        position = mru_set.access(block // num_sets)
        stats = self.stats
        stats.accesses += 1
        if position < 0:
            stats.misses += 1
        else:
            stats.hits += 1
        return position

    def probe(self, address: int) -> int:
        """Return the MRU position of *address* without touching recency."""
        mru_set = self._sets[self.set_index(address)]
        return -1 if mru_set is None else mru_set.probe(self.tag(address))

    def contains(self, address: int) -> bool:
        """Return True if the block holding *address* is resident."""
        return self.probe(address) >= 0

    def invalidate(self, address: int) -> bool:
        """Invalidate the block holding *address*; return True if present."""
        mru_set = self._sets[self.set_index(address)]
        return mru_set is not None and mru_set.invalidate(self.tag(address))

    def flush(self) -> None:
        """Invalidate the entire cache."""
        self._sets = [None] * self._num_sets

    def resident_blocks(self) -> int:
        """Total number of valid blocks in the cache."""
        return sum(s.occupancy for s in self._sets if s is not None)
