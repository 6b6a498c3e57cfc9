"""Tag compression for 4-byte metadata entries (paper Section 3.2).

A full 64-bit line address does not fit twice in a 4-byte entry, so
Triage stores *compressed tags*: a lookup table maps the high bits of an
address (everything above the set_id) to a small id -- 10 bits in the
paper.  An entry then records the compressed tag of the trigger plus the
compressed tag and set_id of the successor, 31 bits total, leaving one
bit for confidence.

Compression is lossy in exactly one way: the lookup table has 2**bits
slots, and when it runs out, the oldest id is reassigned.  Entries that
still reference the recycled id silently decompress to the *new* owner's
tag, producing an occasional wrong prefetch.  This class models that
faithfully (and exposes ``recycled`` so experiments can quantify it).
"""

from __future__ import annotations

from typing import Dict, Optional


class CompressedTagTable:
    """Bidirectional tag <-> small-id map with LRU id recycling.

    The tag -> id dict is kept in recency order, least recent first: a
    hit pops and re-inserts its tag, and the id to recycle belongs to
    the first key.
    """

    def __init__(self, bits: int = 10):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.capacity = 1 << bits
        self._tag_to_id: Dict[int, int] = {}
        self._id_to_tag: Dict[int, int] = {}
        self._next_id = 0
        self.recycled = 0  # times an id was reassigned to a new tag

    def compress(self, tag: int) -> int:
        """Return the compact id for ``tag``, allocating one if needed."""
        tag_to_id = self._tag_to_id
        compact = tag_to_id.pop(tag, None)
        if compact is not None:
            tag_to_id[tag] = compact
            return compact
        if len(tag_to_id) < self.capacity:
            compact = self._next_id
            self._next_id += 1
        else:
            # Recycle the least recently used id; stale references to it
            # will now decompress to the new tag.
            compact = tag_to_id.pop(next(iter(tag_to_id)))
            del self._id_to_tag[compact]
            self.recycled += 1
        tag_to_id[tag] = compact
        self._id_to_tag[compact] = tag
        return compact

    def expand(self, compact: int) -> Optional[int]:
        """Return the tag currently owning ``compact`` (None if never used)."""
        return self._id_to_tag.get(compact)

    def __len__(self) -> int:
        return len(self._tag_to_id)
