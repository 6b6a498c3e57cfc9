"""Triage's compressed tags (paper Section 3.2), through the store's
tag table: each successor is stored as a small tag id plus its set_id."""

import pytest

from repro.core.metadata_store import SET_ID_BITS, MetadataStore


def line_with(tag: int, set_id: int = 5) -> int:
    return tag << SET_ID_BITS | set_id


def tagged_store(bits: int) -> MetadataStore:
    return MetadataStore(capacity_bytes=1 << 16, tag_bits=bits)


def test_round_trip():
    store = tagged_store(4)
    store.update(1, line_with(0xABCDE))
    assert store.lookup(1) == line_with(0xABCDE)


def test_same_tag_same_id():
    store = tagged_store(4)
    store.update(1, line_with(7, 1))
    store.update(2, line_with(7, 2))
    assert store._tag_ids == {7: 0}


def test_capacity_and_recycling():
    store = tagged_store(2)  # 4 ids
    for trigger, tag in enumerate(range(4)):
        store.update(trigger, line_with(tag))
    assert sorted(store._tag_ids.values()) == [0, 1, 2, 3]
    assert store.recycled == 0
    store.update(9, line_with(99))  # recycles the LRU id (tag 0)
    assert store.recycled == 1
    # The entry that referenced tag 0 now decompresses wrong.
    assert store.lookup(0) == line_with(99)
    assert len(store._tag_ids) == 4


def test_recent_use_protects_id():
    store = tagged_store(2)
    for trigger, tag in enumerate(range(4)):
        store.update(trigger, line_with(tag))
    store.update(8, line_with(0))  # refresh tag 0
    store.update(9, line_with(99))  # should recycle tag 1's id, not tag 0's
    assert store.lookup(0) == line_with(0)
    assert store.lookup(1) == line_with(99)
    assert store.lookup(9) == line_with(99)


def test_expand_unknown_id():
    store = tagged_store(4)
    store.update(1, line_with(3))
    store._id_tags.clear()  # the entry's id now has no owner
    assert store.lookup(1) is None


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        MetadataStore(capacity_bytes=4096, tag_bits=0)
