"""Least-recently-used replacement."""

from __future__ import annotations

from typing import Optional

from repro.replacement.base import ReplacementPolicy


class LruPolicy(ReplacementPolicy):
    """Classic LRU: evict the way touched longest ago.

    The metadata store's ``policy="lru"`` ablation (paper Figure 9) runs
    on it, and ``Cache(policy="lru")`` is the way-based reference that
    tests hold :class:`repro.memory.cache.LruCache` against.  The
    hierarchy's LRU levels are ``LruCache`` and never call it.

    Recency is tracked with a per-set monotone timestamp, which is cheaper
    in Python than maintaining an explicit recency stack and behaves
    identically.  :meth:`victim` is two C-level passes over a slice of
    the set's 16-ish timestamps (``min`` + ``list.index``) -- no per-way
    lambda calls, no candidates list -- and ties (only possible between
    never-touched ways, since live timestamps are unique) break toward
    the lowest way.
    """

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._clock = 0
        #: Last touch per way, flat (``set_idx * num_ways + way``); -1 is
        #: never touched.
        self._last_touch = [-1] * (num_sets * num_ways)

    def on_hit(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        # Inlined (rather than sharing a _touch helper): these two hooks
        # run on every metadata-store hit and install.
        self._clock += 1
        self._last_touch[set_idx * self.num_ways + way] = self._clock

    def on_fill(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        self._clock += 1
        self._last_touch[set_idx * self.num_ways + way] = self._clock

    def on_evict(self, set_idx: int, way: int) -> None:
        self._last_touch[set_idx * self.num_ways + way] = -1

    def victim(self, set_idx: int, pc: Optional[int] = None) -> int:
        base = set_idx * self.num_ways
        touches = self._last_touch[base : base + self.num_ways]
        return touches.index(min(touches))

    def resize_ways(self, num_ways: int) -> None:
        # A shrink truncates and a grow pads with -1, so re-enabled ways
        # never re-expose stale timestamps as fake recency.
        self._last_touch = self._resized(self._last_touch, num_ways, -1)
        super().resize_ways(num_ways)
