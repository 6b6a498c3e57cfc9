"""Unit tests for Triage's on-chip metadata store."""

import pytest

from repro.core.metadata_store import (
    ENTRIES_PER_LINE,
    ENTRY_BYTES,
    MetadataStore,
)


def test_geometry_from_capacity():
    store = MetadataStore(capacity_bytes=64 * 1024)
    assert store.capacity_entries == 64 * 1024 // ENTRY_BYTES
    assert store.num_sets == store.capacity_entries // ENTRIES_PER_LINE


def test_lookup_miss_then_update_then_hit():
    store = MetadataStore(capacity_bytes=4096)
    assert store.lookup(10) is None
    store.update(10, 999)
    assert store.lookup(10) == 999


def test_successor_roundtrip_via_compressed_tags():
    store = MetadataStore(capacity_bytes=4096, use_compressed_tags=True)
    successor = (0x3F << 11) | 0x2A5  # non-trivial tag + set_id
    store.update(1, successor)
    assert store.lookup(1) == successor


def test_uncompressed_mode():
    store = MetadataStore(capacity_bytes=4096, use_compressed_tags=False)
    store.update(1, 0xDEADBEEF)
    assert store.lookup(1) == 0xDEADBEEF


def test_confidence_protects_then_replaces():
    store = MetadataStore(capacity_bytes=4096)
    store.update(5, 100)  # entry (5 -> 100), confidence 1
    store.update(5, 200)  # disagreement: confidence 0, keeps 100
    assert store.lookup(5) == 100
    store.update(5, 200)  # second disagreement: replace
    assert store.lookup(5) == 200


def test_confidence_rearms_on_agreement():
    store = MetadataStore(capacity_bytes=4096)
    store.update(5, 100)
    store.update(5, 200)  # conf -> 0
    store.update(5, 100)  # agreement re-arms
    store.update(5, 300)  # one disagreement only drops confidence
    assert store.lookup(5) == 100


def test_capacity_bound_and_eviction():
    store = MetadataStore(capacity_bytes=ENTRY_BYTES * ENTRIES_PER_LINE)  # 1 set
    for trigger in range(ENTRIES_PER_LINE + 4):
        store.update(trigger * store.num_sets if store.num_sets else trigger, trigger)
    assert store.occupancy() <= ENTRIES_PER_LINE
    assert store.evictions >= 4


def test_zero_capacity_discards_everything():
    store = MetadataStore(capacity_bytes=0)
    store.update(1, 2)
    assert store.lookup(1) is None
    assert store.occupancy() == 0


def test_unbounded_store():
    store = MetadataStore(capacity_bytes=None, use_compressed_tags=False)
    for trigger in range(10_000):
        store.update(trigger, trigger + 1)
    assert store.occupancy() == 10_000
    assert store.lookup(1234) == 1235
    with pytest.raises(ValueError):
        store.resize(1024)
    with pytest.raises(ValueError):
        _ = store.capacity_entries


def test_resize_preserves_entries_up_to_capacity():
    store = MetadataStore(capacity_bytes=8192)
    for trigger in range(100):
        store.update(trigger, trigger + 1)
    store.resize(16384)
    assert store.lookup(50) == 51
    store.resize(1024)
    assert store.occupancy() <= 1024 // ENTRY_BYTES


def test_llc_access_accounting():
    store = MetadataStore(capacity_bytes=4096)
    store.lookup(1)
    store.update(1, 2)
    assert store.llc_accesses == 2


def test_reuse_tracking():
    store = MetadataStore(capacity_bytes=4096, track_reuse=True)
    store.update(1, 2)
    store.lookup(1)
    store.lookup(1)
    assert store.reuse_counts[1] == 2


def test_lru_policy_variant():
    store = MetadataStore(capacity_bytes=4096, policy="lru")
    store.update(1, 2)
    assert store.lookup(1) == 2


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        MetadataStore(capacity_bytes=4096, policy="fifo")


def test_record_prefetch_outcome_redundant_ignored():
    store = MetadataStore(capacity_bytes=4096)
    # Redundant outcomes must not feed the Hawkeye sampler.
    policy = store._policy
    before = sum(s.accesses for s in policy._samplers.values())
    store.record_prefetch_outcome(1, pc=5, redundant=True)
    after = sum(s.accesses for s in policy._samplers.values())
    assert before == after
    store.record_prefetch_outcome(1, pc=5, redundant=False)
    final = sum(s.accesses for s in policy._samplers.values())
    assert final == after + 1


# -- policy="reuse" (Triangel family) ----------------------------------------


def test_reuse_policy_variant_evicts_never_reused_first():
    store = MetadataStore(capacity_bytes=4096, policy="reuse")
    num_sets = store.num_sets
    # Fill set 0 completely; reuse (look up) every entry except one.
    triggers = [w * num_sets for w in range(ENTRIES_PER_LINE)]
    for t in triggers:
        store.update(t, t + 1)
    cold = triggers[5]
    for t in triggers:
        if t != cold:
            store.lookup(t)
    # The next insert into set 0 must displace the never-reused entry.
    newcomer = ENTRIES_PER_LINE * num_sets
    store.update(newcomer, newcomer + 1)
    assert not store.contains(cold)
    assert store.contains(newcomer)
    for t in triggers:
        if t != cold:
            assert store.contains(t)


# -- index_mode="nonuniform" (Trimma-style near/far) -------------------------


def test_nonuniform_near_hits_skip_the_llc():
    store = MetadataStore(capacity_bytes=4096, index_mode="nonuniform")
    store.update(1, 2)
    assert store.lookup(1) == 2  # far hit: charged, promotes to near
    charged = store.llc_accesses
    assert store.lookup(1) == 2  # near hit: free
    assert store.llc_accesses == charged
    assert store.near_hits == 1
    assert store.lookup_hits == 2


def test_near_hit_returns_the_current_successor():
    """A successor replaced after its entry entered the near level is
    what the next near hit returns."""
    store = MetadataStore(capacity_bytes=4096, index_mode="nonuniform")
    store.update(1, 2)
    assert store.lookup(1) == 2  # far hit: promotes to near
    store.update(1, 3)  # conflict: confidence drops, successor kept
    store.update(1, 3)  # conflict at confidence 0: successor replaced
    assert store.lookup(1) == 3
    assert store.near_hits == 1


def test_nonuniform_near_is_lru_bounded():
    store = MetadataStore(
        capacity_bytes=64 * 1024, index_mode="nonuniform", near_entries=2
    )
    for t in (1, 2, 3):
        store.update(t, t + 10)
        store.lookup(t)  # promote each into the near level
    assert len(store._near) == 2
    charged = store.llc_accesses
    store.lookup(1)  # evicted from near (LRU): must fall through to far
    assert store.llc_accesses == charged + 1


def test_nonuniform_eviction_invalidates_near_copy():
    store = MetadataStore(capacity_bytes=4096, index_mode="nonuniform")
    num_sets = store.num_sets
    triggers = [w * num_sets for w in range(ENTRIES_PER_LINE)]
    for t in triggers:
        store.update(t, t + 1)
    store.lookup(triggers[0])  # near-resident
    # Overflow set 0: some resident entry is evicted; if it was the
    # near-resident one its near copy must go too.
    newcomer = ENTRIES_PER_LINE * num_sets
    store.update(newcomer, newcomer + 1)
    for trigger in store._near:
        assert store.contains(trigger)


def test_nonuniform_resize_clears_near_level():
    store = MetadataStore(capacity_bytes=4096, index_mode="nonuniform")
    store.update(1, 2)
    store.lookup(1)
    assert store._near
    store.resize(8192)
    assert not store._near


def test_uniform_mode_never_touches_near_level():
    store = MetadataStore(capacity_bytes=4096, index_mode="uniform")
    store.update(1, 2)
    store.lookup(1)
    store.lookup(1)
    assert store.near_hits == 0
    assert not store._near


def test_unknown_index_mode_rejected():
    with pytest.raises(ValueError):
        MetadataStore(capacity_bytes=4096, index_mode="diagonal")
