"""Unit tests for the set-associative cache models.

Every test runs against both :class:`LruCache` and the policy-driven
``Cache(policy="lru")``: they share one public surface and must behave
identically (``tests/test_properties.py`` holds them against each other
on random operation sequences).
"""

import pytest

from repro.memory.cache import Cache, LruCache


def caches(size=4096, ways=4):
    """One cache of each class with the given geometry."""
    return [LruCache("T", size, ways), Cache("T", size, ways, policy="lru")]


def test_geometry():
    for cache in caches(size=4096, ways=4):  # 4096 / (64*4) = 16 sets
        assert cache.num_sets == 16
        assert cache.total_ways == 4
        assert cache.active_size_bytes == 4096
        assert cache.set_of(17) == 1


def test_bad_geometry_rejected():
    for cls in (LruCache, Cache):
        with pytest.raises(ValueError):
            cls("bad", 1000, 3)  # not a power-of-two set count


def test_miss_then_fill_then_hit():
    for cache in caches():
        assert not cache.access(100).hit
        cache.fill(100)
        assert cache.access(100).hit
        assert cache.contains(100)


def test_fill_evicts_lru_victim():
    for cache in caches(size=1024, ways=2):  # 8 sets
        s = cache.num_sets
        lines = [s * i for i in range(3)]  # all map to set 0
        cache.fill(lines[0])
        cache.fill(lines[1], dirty=True)
        cache.access(lines[0])  # lines[1] is now LRU
        assert cache.fill(lines[2]) == (lines[1], True)
        assert cache.contains(lines[0]) and cache.contains(lines[2])


def test_fetch_probes_then_fills():
    for cache in caches(size=1024, ways=2):  # 8 sets
        s = cache.num_sets
        lines = [s * i for i in range(4)]  # all map to set 0
        assert cache.fetch(lines[0]) is False  # miss, free way
        cache.fill(lines[1], dirty=True)
        # A prefetch probe of a resident line leaves its recency alone,
        # so lines[0] stays least recent ...
        assert cache.fetch(lines[0], demand=False) is None
        assert cache.fetch(lines[2]) is False  # evicts clean lines[0]
        assert not cache.contains(lines[0])
        # ... and a demand probe makes it most recent.
        assert cache.fetch(lines[1]) is None
        assert cache.fetch(lines[3]) is False  # evicts lines[2]
        assert cache.fetch(lines[0]) is True  # evicts dirty lines[1]
        cache.set_active_ways(0)
        assert cache.fetch(lines[2]) is False and not cache.contains(lines[2])


def test_dirty_bit_set_on_write_and_merge_on_refill():
    for cache in caches():
        cache.fill(7)
        cache.access(7, is_write=True)
        cache.fill(7, dirty=False)  # re-fill must not clear dirty
        assert cache.invalidate(7) == (7, True)


def test_prefetched_flag_cleared_on_first_demand_touch():
    for cache in caches():
        cache.fill(9, prefetched="l2")
        cache.fill(10, prefetched="l1")
        first = cache.access(9)
        second = cache.access(9)
        assert first.prefetch_hit == "l2"
        assert second.prefetch_hit is None
        assert cache.access(10).prefetch_hit == "l1"


def test_invalidate_missing_line_is_none():
    for cache in caches():
        assert cache.invalidate(42) is None


def test_mark_dirty():
    for cache in caches():
        assert not cache.mark_dirty(5)
        cache.fill(5)
        assert cache.mark_dirty(5)
        assert cache.invalidate(5) == (5, True)


def test_occupancy_counts_valid_lines():
    for cache in caches():
        assert cache.occupancy() == 0
        for line in range(10):
            cache.fill(line)
        assert cache.occupancy() == 10


def test_shrink_active_ways_evicts_and_restricts():
    for cache in caches(size=1024, ways=4):  # 4 sets
        s = cache.num_sets
        for i in range(4):
            cache.fill(s * i, dirty=i == 3)  # fill all 4 ways of set 0
        evicted = cache.set_active_ways(2)
        assert sorted(evicted) == [(s * 2, False), (s * 3, True)]
        assert cache.occupancy() == 2
        # New fills never use deactivated ways: set 0 can hold at most 2.
        for i in range(4, 8):
            cache.fill(s * i)
        assert sum(1 for i in range(8) if cache.contains(s * i)) == 2


def test_grow_active_ways_reenables_capacity():
    for cache in caches(size=1024, ways=4):
        cache.set_active_ways(1)
        cache.set_active_ways(4)
        s = cache.num_sets
        for i in range(4):
            cache.fill(s * i)
        assert all(cache.contains(s * i) for i in range(4))


def test_zero_active_ways_bypasses_fill():
    for cache in caches(size=1024, ways=4):
        cache.set_active_ways(0)
        assert cache.fill(1) is None
        assert not cache.contains(1)


def test_set_active_ways_range_checked():
    for cache in caches(size=1024, ways=4):
        with pytest.raises(ValueError):
            cache.set_active_ways(5)
        with pytest.raises(ValueError):
            cache.set_active_ways(-1)
