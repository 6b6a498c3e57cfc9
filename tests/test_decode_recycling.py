"""The tag-recycling failure mode, end to end through the store.

Paper Section 3.2 stores compressed tags in 4-byte entries.  When the
tag table recycles an id, entries still referencing it silently
decompress to the *new* owner's tag.  These tests pin down the exact
externally-visible behaviour so future refactors keep it honest.
"""

from repro.core.metadata_store import SET_ID_BITS, MetadataStore


def line_with(tag: int, set_id: int = 5) -> int:
    return (tag << SET_ID_BITS) | set_id


def test_recycled_tag_produces_wrong_but_wellformed_prediction():
    store = MetadataStore(capacity_bytes=1 << 16, tag_bits=2)  # 4 tag slots
    victims = [line_with(tag) for tag in range(1, 5)]
    store.update(10, victims[0])
    # Exhaust the tag table so victims[0]'s tag id gets recycled.
    for extra_tag in range(10, 14):
        store.update(100 + extra_tag, line_with(extra_tag))
    predicted = store.lookup(10)
    # The entry still exists and decodes, but to the recycled id's new
    # owner -- a wrong prefetch, not a crash.
    assert predicted is not None
    assert predicted != victims[0]
    assert predicted & ((1 << SET_ID_BITS) - 1) == 5  # set_id survives


def test_unrecycled_tags_decode_exactly():
    store = MetadataStore(capacity_bytes=1 << 16, tag_bits=10)
    successor = line_with(777, set_id=123)
    store.update(42, successor)
    assert store.lookup(42) == successor


def test_tag_table_shared_across_entries():
    """Two successors under the same tag share one table slot."""
    store = MetadataStore(capacity_bytes=1 << 16, tag_bits=10)
    store.update(1, line_with(99, 3))
    store.update(2, line_with(99, 7))
    assert len(store._tag_ids) == 1
    assert store.lookup(1) == line_with(99, 3)
    assert store.lookup(2) == line_with(99, 7)


def test_expired_tag_reference_returns_none_when_id_unassigned():
    store = MetadataStore(capacity_bytes=1 << 16, tag_bits=2)
    store.update(10, line_with(1))
    # Manually strip the owner so expand() finds nothing (models a reset
    # tag table, e.g. after a partition flush).
    store._tag_ids.clear()
    store._id_tags.clear()
    assert store.lookup(10) is None
