"""Unit tests for the cache hierarchy."""

import pytest

from repro.memory.hierarchy import (
    L1_HIT,
    L1D_MISS,
    CacheHierarchy,
    trains_l2_prefetcher,
)
from tests.demand import Demand


def small_hierarchy(n_cores=1):
    """A small hierarchy and its demand path through 1 KB 2-way L1Ds."""
    h = CacheHierarchy(
        n_cores=n_cores,
        l2_size=4096,
        l2_ways=4,
        llc_size_per_core=16384,
        llc_ways=8,
    )
    return h, Demand(h, l1_size=1024, l1_ways=2)


def test_first_access_goes_to_dram():
    h, demand = small_hierarchy()
    assert demand(0, pc=1, addr=0x1000) == ("dram", None)
    assert h.counters[0].dram_accesses == 1
    assert h.traffic.bytes_by_category["demand"] == 64


def test_second_access_hits_l1():
    h, demand = small_hierarchy()
    demand(0, 1, 0x1000)
    assert demand(0, 1, 0x1000) is L1_HIT
    assert h.counters[0].l1_hits == 1


def test_l2_hit_after_l1_eviction():
    h, demand = small_hierarchy()
    demand(0, 1, 0)
    # Evict line 0 from L1 (2-way, 8 sets -> two same-set fills).
    sets_l1 = demand.l1s[0].set_mask + 1
    demand(0, 1, sets_l1 * 64)
    demand(0, 1, 2 * sets_l1 * 64)
    assert demand(0, 1, 0) == ("l2", None)


def test_prefetch_paths():
    h, demand = small_hierarchy()
    # Cold prefetch -> DRAM, counted as prefetch traffic.
    assert h.prefetch(0, line=5) == "dram"
    assert h.traffic.bytes_by_category["prefetch"] == 64
    # Already in L2 -> redundant.
    assert h.prefetch(0, line=5) == "redundant"
    c = h.counters[0]
    assert c.prefetches_issued == 1
    assert c.prefetches_redundant == 1


def test_prefetch_from_llc_moves_without_traffic():
    h, demand = small_hierarchy()
    demand(0, 1, 0x40 * 7)  # line 7 now in all levels
    # Push line 7 out of L2 but not LLC: fill L2 set with conflicting lines.
    sets_l2 = h.l2s[0].num_sets
    for i in range(1, 6):
        demand(0, 1, (7 + i * sets_l2) * 64)
    assert not h.l2s[0].contains(7)
    before = h.traffic.total_bytes
    assert h.prefetch(0, line=7) == "llc"
    assert h.traffic.total_bytes == before


def test_prefetch_hit_reported_once_and_kind_tagged():
    h, demand = small_hierarchy()
    h.prefetch(0, line=9, kind="l2")
    assert demand(0, 1, 9 * 64) == ("l2", "l2")
    assert h.counters[0].l2_prefetch_hits == 1
    # Reported once: the prefetch mark is gone after the first touch
    # (the L1D holds line 9 now; the access below is one it missed).
    assert h.access(0, 1, 9, False, L1D_MISS) == ("l2", None)


def test_l1_prefetch_kind_counted_separately():
    h, demand = small_hierarchy()
    h.prefetch(0, line=9, kind="l1")
    assert demand(0, 1, 9 * 64) == ("l2", "l1")
    c = h.counters[0]
    assert c.l1pf_useful == 1
    assert c.l2_prefetch_hits == 0
    assert c.l1pf_issued == 1


def test_trains_l2_prefetcher_stream():
    h, demand = small_hierarchy()
    miss = demand(0, 1, 0x2000)
    hit = demand(0, 1, 0x2000)
    assert trains_l2_prefetcher(*miss)  # L2 miss
    assert not trains_l2_prefetcher(*hit)  # plain L1 hit


def test_writeback_traffic_on_dirty_llc_eviction():
    h, demand = small_hierarchy()
    sets = h.llc.num_sets
    # Write a line, then evict it from every level via conflicts.
    demand(0, 1, 0, is_write=True)
    for i in range(1, 12):
        demand(0, 1, i * sets * 64)
    assert h.traffic.bytes_by_category["writeback"] >= 64


def test_shared_llc_between_cores():
    h, demand = small_hierarchy(n_cores=2)
    demand(0, 1, 0x5000)
    # Core 1 misses its private L1/L2 but hits the shared LLC.
    assert demand(1, 1, 0x5000) == ("llc", None)


def test_resize_llc_data_ways_flushes_dirty():
    h, demand = small_hierarchy()
    sets = h.llc.num_sets
    # Two conflicting LLC lines: the second lands in way 1, which the
    # shrink to 1 active way must flush (dirty -> write back).
    demand(0, 1, 0)
    demand(0, 1, sets * 64)
    h.llc.mark_dirty(sets)
    before = h.traffic.bytes_by_category["writeback"]
    h.resize_llc_data_ways(1)
    assert h.traffic.bytes_by_category["writeback"] > before
    assert h.llc.active_ways == 1


def test_invalid_core_count():
    with pytest.raises(ValueError):
        CacheHierarchy(n_cores=0)
