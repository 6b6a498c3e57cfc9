"""Unit tests for LRU / Random / SRRIP replacement.

``victim()`` follows the allocation-free contract: the policy picks from
its own per-way state over ways ``0..num_ways-1`` (the owner guarantees
the set is full), with ties breaking toward the lowest way.
"""

import random

from repro.replacement.lru import LruPolicy
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.srrip import SrripPolicy


def test_lru_victims_oldest():
    lru = LruPolicy(1, 4)
    for way in range(4):
        lru.on_fill(0, way)
    assert lru.victim(0) == 0
    lru.on_hit(0, 0)
    assert lru.victim(0) == 1


def test_lru_eviction_resets_recency():
    lru = LruPolicy(1, 2)
    lru.on_fill(0, 0)
    lru.on_fill(0, 1)
    lru.on_evict(0, 0)
    lru.on_fill(0, 0)
    assert lru.victim(0) == 1


def test_lru_ties_break_toward_lowest_way():
    lru = LruPolicy(1, 4)
    lru.on_fill(0, 0)  # ways 1..3 share the never-touched timestamp
    assert lru.victim(0) == 1
    lru.on_fill(0, 1)
    assert lru.victim(0) == 2


def test_lru_resize_grows():
    lru = LruPolicy(2, 2)
    lru.on_fill(0, 0)
    lru.resize_ways(4)
    lru.on_fill(0, 3)
    # Ways 1 and 2 were never touched; the tie breaks to way 1.
    assert lru.victim(0) == 1
    lru.on_fill(0, 1)
    lru.on_fill(0, 2)
    assert lru.victim(0) == 0


def test_lru_resize_shrink_truncates_recency():
    lru = LruPolicy(1, 4)
    for way in range(4):
        lru.on_fill(0, way)
    lru.on_hit(0, 0)
    lru.on_hit(0, 1)  # ways 2 and 3 are now the stalest
    lru.resize_ways(2)
    # Victims must come from the surviving ways: without truncation the
    # (staler) timestamps of disabled ways 2/3 would win the min.
    assert lru.victim(0) == 0


def test_lru_shrink_then_grow_forgets_stale_timestamps():
    lru = LruPolicy(1, 4)
    for way in range(4):
        lru.on_fill(0, way)
    lru.on_hit(0, 2)
    lru.on_hit(0, 3)  # ways 2 and 3 most recently used
    lru.resize_ways(2)
    lru.resize_ways(4)
    # Re-enabled ways come back as never-touched; their pre-shrink
    # timestamps must not resurface as fake recency.
    assert lru.victim(0) == 2


def test_random_is_deterministic_and_in_range():
    rnd1 = RandomPolicy(4, 4)
    rnd2 = RandomPolicy(4, 4)
    picks1 = [rnd1.victim(0) for _ in range(20)]
    picks2 = [rnd2.victim(0) for _ in range(20)]
    assert picks1 == picks2
    assert set(picks1) <= {0, 1, 2, 3}


def test_lru_victim_matches_reference_scan():
    """Randomized agreement with the pre-optimization victim scan.

    The old hot path computed ``min(candidates, key=lambda w: touch[w])``
    over the occupied ways in ascending order; the optimized
    ``index(min(...))`` form must pick the identical way on every state,
    including ties between never-touched (or evicted) ways.
    """
    rng = random.Random(1234)
    for _ in range(50):
        ways = rng.choice([2, 4, 8, 16])
        lru = LruPolicy(4, ways)
        for _ in range(200):
            op = rng.random()
            set_idx = rng.randrange(4)
            way = rng.randrange(ways)
            if op < 0.45:
                lru.on_fill(set_idx, way)
            elif op < 0.8:
                lru.on_hit(set_idx, way)
            else:
                lru.on_evict(set_idx, way)  # resets to -1: creates ties
            touches = lru._last_touch[set_idx * ways : (set_idx + 1) * ways]
            reference = min(range(ways), key=lambda w: touches[w])
            assert lru.victim(set_idx) == reference


def test_srrip_hit_promotes():
    srrip = SrripPolicy(1, 2)
    srrip.on_fill(0, 0)
    srrip.on_fill(0, 1)
    srrip.on_hit(0, 0)
    # Way 1 still has the long re-reference interval; way 0 was promoted.
    assert srrip.victim(0) == 1


def test_srrip_ages_until_victim_found():
    srrip = SrripPolicy(1, 2)
    srrip.on_fill(0, 0)
    srrip.on_hit(0, 0)
    srrip.on_fill(0, 1)
    assert srrip.victim(0) == 1  # inserted at max-1, ages to max before way 0


def test_srrip_scan_resistance():
    """A one-time scan should not displace a re-referenced line."""
    srrip = SrripPolicy(1, 4)
    srrip.on_fill(0, 0)
    srrip.on_hit(0, 0)  # hot line at RRPV 0
    for way in (1, 2, 3):
        srrip.on_fill(0, way)  # scan fills at distant RRPV
    assert srrip.victim(0) != 0
