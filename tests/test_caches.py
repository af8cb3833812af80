"""Tests for the MRU cache substrate and the Accounting Cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import (
    AccessOutcome,
    AccountingCache,
    CacheIntervalStats,
    MRUSet,
    SetAssociativeCache,
)
from repro.timing.cacti import CacheGeometry
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS


class TestMRUSet:
    def test_miss_then_hit(self):
        mru = MRUSet(ways=4)
        assert mru.access(10) == -1
        assert mru.access(10) == 0

    def test_mru_ordering(self):
        mru = MRUSet(ways=4)
        for tag in (1, 2, 3):
            mru.access(tag)
        assert mru.tags_in_mru_order() == (3, 2, 1)
        assert mru.access(1) == 2
        assert mru.tags_in_mru_order() == (1, 3, 2)

    def test_eviction_is_lru(self):
        mru = MRUSet(ways=2)
        mru.access(1)
        mru.access(2)
        mru.access(3)  # evicts 1
        assert mru.probe(1) == -1
        assert mru.probe(2) == 1
        assert mru.probe(3) == 0

    def test_probe_does_not_touch_recency(self):
        mru = MRUSet(ways=4)
        mru.access(1)
        mru.access(2)
        assert mru.probe(1) == 1
        assert mru.tags_in_mru_order() == (2, 1)

    def test_invalidate(self):
        mru = MRUSet(ways=4)
        mru.access(7)
        assert mru.invalidate(7)
        assert not mru.invalidate(7)
        assert mru.probe(7) == -1

    def test_flush(self):
        mru = MRUSet(ways=4)
        for tag in range(4):
            mru.access(tag)
        mru.flush()
        assert mru.occupancy == 0

    def test_requires_at_least_one_way(self):
        with pytest.raises(ValueError):
            MRUSet(ways=0)

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_stack_property(self, tags):
        """The LRU stack property: a hit in a small cache implies a hit in any
        larger cache for the same access sequence."""
        small = MRUSet(ways=2)
        large = MRUSet(ways=6)
        for tag in tags:
            pos_small = small.access(tag)
            pos_large = large.access(tag)
            if pos_small >= 0:
                assert 0 <= pos_large <= pos_small


class TestSetAssociativeCache:
    def geometry(self, size_kb=32, assoc=4):
        return CacheGeometry(size_kb=size_kb, associativity=assoc, sub_banks=32)

    def test_block_and_set_mapping(self):
        cache = SetAssociativeCache(self.geometry())
        assert cache.block_address(0x1234) == 0x1200
        assert cache.set_index(0x1240) != cache.set_index(0x1240 + 64 * cache.num_sets + 64)

    def test_lookup_miss_then_hit(self):
        cache = SetAssociativeCache(self.geometry())
        assert cache.lookup(0x4000) == -1
        assert cache.lookup(0x4000) == 0
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_block_different_words_hit(self):
        cache = SetAssociativeCache(self.geometry())
        cache.lookup(0x4000)
        assert cache.lookup(0x4038) == 0

    @pytest.mark.parametrize(
        "geometry, touched",
        [
            (CacheGeometry(size_kb=32, associativity=4, sub_banks=32), True),
            # Sets are built on first access: a fresh 2 MB L2 has none yet.
            (ADAPTIVE_DCACHE_CONFIGS[-1].l2, False),
        ],
        ids=["touched-set", "fresh-2MB-L2"],
    )
    def test_contains_and_invalidate(self, geometry, touched):
        cache = SetAssociativeCache(geometry)
        if touched:
            cache.lookup(0x8000)
        assert cache.probe(0x8000) == (0 if touched else -1)
        assert cache.contains(0x8000) is touched
        assert cache.invalidate(0x8000) is touched
        assert not cache.contains(0x8000)
        assert not cache.invalidate(0x8000)
        assert cache.resident_blocks() == 0

    @pytest.mark.parametrize("blocks", [0, 100])
    def test_flush_empties_cache(self, blocks):
        cache = SetAssociativeCache(self.geometry())
        for index in range(blocks):
            cache.lookup(index * 64)
        cache.flush()
        assert cache.resident_blocks() == 0
        assert cache.probe(0) == -1
        # A flushed cache fills again from empty sets.
        assert cache.lookup(0) == -1
        assert cache.lookup(0) == 0
        assert cache.resident_blocks() == 1

    def test_conflict_evictions_in_direct_mapped(self):
        cache = SetAssociativeCache(self.geometry(assoc=1))
        stride = cache.num_sets * 64
        cache.lookup(0)
        cache.lookup(stride)  # maps to the same set, evicts block 0
        assert cache.lookup(0) == -1

    def test_miss_rate(self):
        cache = SetAssociativeCache(self.geometry())
        assert cache.stats.miss_rate == 0.0
        cache.lookup(0)
        assert cache.stats.miss_rate == 1.0


class TestAccountingCache:
    def geometry(self):
        return CacheGeometry(size_kb=256, associativity=8, sub_banks=32)

    def test_a_partition_hit(self):
        cache = AccountingCache(self.geometry(), a_ways=2)
        cache.access(0x1000)
        assert cache.access(0x1000) is AccessOutcome.HIT_A

    def test_b_partition_hit(self):
        cache = AccountingCache(self.geometry(), a_ways=1, b_enabled=True)
        sets = cache.num_sets
        # Two blocks in the same set: the second access pushes the first to
        # MRU position 1, which is in the B partition when a_ways == 1.
        cache.access(0x1000)
        cache.access(0x1000 + sets * 64)
        assert cache.access(0x1000) is AccessOutcome.HIT_B

    def test_b_disabled_turns_b_hits_into_misses(self):
        cache = AccountingCache(self.geometry(), a_ways=1, b_enabled=False)
        sets = cache.num_sets
        cache.access(0x1000)
        cache.access(0x1000 + sets * 64)
        assert cache.access(0x1000) is AccessOutcome.MISS

    def test_interval_counters_reconstruct_all_configs(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        sets = cache.num_sets
        addresses = [0x1000 + i * sets * 64 for i in range(4)]
        for address in addresses:
            cache.access(address)
        # Re-touch them most-recently-used-last.
        for address in addresses:
            cache.access(address)
        stats = cache.interval_stats
        # With 4 distinct blocks in one set re-touched in order, the second
        # pass hits at MRU position 3 each time.
        a_hits, b_hits, misses = stats.what_if(4, b_enabled=True)
        assert a_hits == 4
        assert misses == 4
        a_hits1, b_hits1, misses1 = stats.what_if(1, b_enabled=True)
        assert a_hits1 == 0
        assert b_hits1 == 4

    def test_what_if_without_b_moves_hits_to_misses(self):
        stats = CacheIntervalStats(ways=4)
        stats.record(0)
        stats.record(2)
        stats.record(-1)
        assert stats.what_if(1, b_enabled=True) == (1, 1, 1)
        assert stats.what_if(1, b_enabled=False) == (1, 0, 2)

    def test_interval_reset(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        cache.access(0x1000)
        cache.reset_interval()
        assert cache.interval_stats.accesses == 0
        assert sum(cache.interval_stats.hits_by_mru_position) == 0

    def test_snapshot_is_independent_copy(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        cache.access(0x1000)
        snapshot = cache.snapshot_interval()
        cache.access(0x2000)
        assert snapshot.accesses == 1
        assert cache.interval_stats.accesses == 2

    def test_set_a_ways_bounds(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        with pytest.raises(ValueError):
            cache.set_a_ways(0)
        with pytest.raises(ValueError):
            cache.set_a_ways(9)
        cache.set_a_ways(8)
        assert cache.a_ways == 8
        assert cache.b_ways == 0

    def test_repartitioning_preserves_contents(self):
        cache = AccountingCache(self.geometry(), a_ways=1)
        cache.access(0x1000)
        cache.set_a_ways(4)
        assert cache.access(0x1000) is AccessOutcome.HIT_A

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=5, max_size=300),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40)
    def test_what_if_matches_direct_simulation(self, block_ids, a_ways):
        """The counter-based reconstruction must match simulating that
        configuration directly (the core Accounting Cache property)."""
        geometry = CacheGeometry(size_kb=256, associativity=8, sub_banks=32)
        accounting = AccountingCache(geometry, a_ways=1, b_enabled=True)
        direct = AccountingCache(geometry, a_ways=a_ways, b_enabled=True)
        sets = accounting.num_sets
        addresses = [0x1000 + (b % 3) * 64 + (b // 3) * sets * 64 for b in block_ids]
        direct_a = direct_b = direct_miss = 0
        for address in addresses:
            accounting.access(address)
            outcome = direct.access(address)
            if outcome is AccessOutcome.HIT_A:
                direct_a += 1
            elif outcome is AccessOutcome.HIT_B:
                direct_b += 1
            else:
                direct_miss += 1
        a_hits, b_hits, misses = accounting.interval_stats.what_if(
            a_ways, b_enabled=True
        )
        assert (a_hits, b_hits, misses) == (direct_a, direct_b, direct_miss)
