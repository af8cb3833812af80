"""The Accounting Cache (Dropsho et al.), used for all three caches.

An Accounting Cache is physically a full-size set-associative cache whose
ways are partitioned into an *A* partition (the first ``a_ways`` MRU
positions) and a *B* partition (the rest).  The A partition is accessed
first; on an A miss a second access probes the B partition and the blocks are
swapped (which the MRU ordering captures implicitly).  Because every set
keeps exact MRU ordering, simple per-MRU-position hit counters are enough to
reconstruct the number of A hits, B hits and misses that *any* partitioning
would have experienced over an interval — the property the phase-adaptive
controller exploits to avoid exploring configurations online.

Two operating modes are supported:

* ``b_enabled=True`` — the adaptive MCD machine: an A miss falls back to the
  B partition before going to the next level.
* ``b_enabled=False`` — the fully synchronous machine and the whole-program
  adaptive machine: the cache holds only ``a_ways`` ways; an A miss goes
  straight to the next level.  (The stack property of LRU makes the full-size
  array an exact model of the truncated cache.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caches.cache import AccessOutcome, CacheStats, SetAssociativeCache
from repro.timing.cacti import CacheGeometry


@dataclass(slots=True)
class CacheIntervalStats:
    """Counters accumulated over one adaptation interval."""

    ways: int
    accesses: int = 0
    misses: int = 0
    hits_by_mru_position: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.hits_by_mru_position:
            self.hits_by_mru_position = [0] * self.ways

    def record(self, mru_position: int) -> None:
        """Record one access that hit at *mru_position* (or missed if negative)."""
        self.accesses += 1
        if mru_position < 0:
            self.misses += 1
        else:
            self.hits_by_mru_position[mru_position] += 1

    def hits_within(self, ways: int) -> int:
        """Hits that a cache restricted to the first *ways* MRU positions sees."""
        return sum(self.hits_by_mru_position[:ways])

    def hits_beyond(self, ways: int) -> int:
        """Hits at MRU positions *ways* and beyond (B-partition hits)."""
        return sum(self.hits_by_mru_position[ways:])

    def what_if(self, a_ways: int, *, b_enabled: bool) -> tuple[int, int, int]:
        """Return ``(a_hits, b_hits, misses)`` for a hypothetical configuration."""
        a_hits = self.hits_within(a_ways)
        if b_enabled:
            b_hits = self.hits_beyond(a_ways)
            misses = self.misses
        else:
            b_hits = 0
            misses = self.misses + self.hits_beyond(a_ways)
        return a_hits, b_hits, misses

    def reset(self) -> None:
        """Zero every counter (hardware reset at the end of each interval)."""
        self.accesses = 0
        self.misses = 0
        for index in range(len(self.hits_by_mru_position)):
            self.hits_by_mru_position[index] = 0


class AccountingCache(SetAssociativeCache):
    """Set-associative cache with A/B partitioning and what-if accounting.

    Parameters
    ----------
    geometry:
        Physical (maximum) organisation of the cache.
    a_ways:
        Initial width of the A partition.
    b_enabled:
        Whether the B partition is accessible (adaptive MCD mode) or skipped
        (synchronous / whole-program mode).
    name:
        Identifier used in statistics output.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        *,
        a_ways: int = 1,
        b_enabled: bool = True,
        name: str = "accounting-cache",
    ) -> None:
        super().__init__(geometry, name=name)
        if not 1 <= a_ways <= geometry.associativity:
            raise ValueError(
                f"a_ways must be in [1, {geometry.associativity}], got {a_ways}"
            )
        self._a_ways = a_ways
        self._b_enabled = b_enabled
        self.interval_stats = CacheIntervalStats(ways=geometry.associativity)
        self.lifetime_a_hits = 0
        self.lifetime_b_hits = 0
        self.lifetime_misses = 0
        #: Probe-width histogram for energy accounting (observation-only):
        #: ways activated by a probe -> number of such probes.  An A access
        #: activates the current ``a_ways``; the fallback B probe activates
        #: the remaining ways of the physical array.
        self.access_profile: dict[int, int] = {}

    # ------------------------------------------------------------------ API

    @property
    def a_ways(self) -> int:
        """Current width of the A partition."""
        return self._a_ways

    @property
    def b_enabled(self) -> bool:
        """True when the B partition is accessible."""
        return self._b_enabled

    @property
    def b_ways(self) -> int:
        """Width of the B partition under the current configuration."""
        if not self._b_enabled:
            return 0
        return self.geometry.associativity - self._a_ways

    def set_a_ways(self, a_ways: int) -> None:
        """Repartition the cache so the A partition spans *a_ways* ways."""
        if not 1 <= a_ways <= self.geometry.associativity:
            raise ValueError(
                f"a_ways must be in [1, {self.geometry.associativity}], got {a_ways}"
            )
        self._a_ways = a_ways

    def set_b_enabled(self, enabled: bool) -> None:
        """Enable or disable the B partition."""
        self._b_enabled = enabled

    def access(self, address: int) -> AccessOutcome:
        """Access *address* and classify the outcome under the current config."""
        position = self.lookup(address)
        self.interval_stats.record(position)
        a_ways = self._a_ways
        profile = self.access_profile
        profile[a_ways] = profile.get(a_ways, 0) + 1
        if 0 <= position < a_ways:
            self.lifetime_a_hits += 1
            return AccessOutcome.HIT_A
        if self._b_enabled:
            # The A miss fell through to a B-partition probe (hit or not),
            # activating the remaining ways of the physical array.
            b_ways = self.geometry.associativity - a_ways
            if b_ways:
                profile[b_ways] = profile.get(b_ways, 0) + 1
        if self.is_miss(position):
            self.lifetime_misses += 1
            return AccessOutcome.MISS
        self.lifetime_b_hits += 1
        self.stats.b_hits += 1
        return AccessOutcome.HIT_B

    def is_miss(self, position: int) -> bool:
        """Whether a block found at MRU *position* (-1: absent) misses.

        An access misses when the block is absent, or when it lies beyond
        the A partition while the B partition is disabled.  :meth:`access`
        classifies by this rule, and warm-up (which drives :meth:`lookup`
        alone) uses it to decide when the next level is touched.
        """
        return position < 0 or (position >= self._a_ways and not self._b_enabled)

    def snapshot_interval(self) -> CacheIntervalStats:
        """Return a copy of the current interval counters."""
        copy = CacheIntervalStats(ways=self.interval_stats.ways)
        copy.accesses = self.interval_stats.accesses
        copy.misses = self.interval_stats.misses
        copy.hits_by_mru_position = list(self.interval_stats.hits_by_mru_position)
        return copy

    def reset_interval(self) -> None:
        """Reset the per-interval counters (called by the controller)."""
        self.interval_stats.reset()

    def reset_statistics(self) -> None:
        """Zero every counter while keeping the cache contents (post-warm-up)."""
        self.stats = CacheStats()
        self.interval_stats.reset()
        self.lifetime_a_hits = 0
        self.lifetime_b_hits = 0
        self.lifetime_misses = 0
        self.access_profile.clear()
