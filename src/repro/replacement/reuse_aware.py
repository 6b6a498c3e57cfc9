"""Metadata-reuse-aware replacement (the Triangel family's policy).

Triangel's observation (arXiv 2406.10627) is that on-chip metadata pays
for itself only when entries are *reused*: a correlation that is looked
up again produced (or will produce) a prefetch, while an entry that sat
in the store untouched since its fill only displaced useful state.  The
policy therefore ranks victims primarily by a small per-entry reuse
counter (bumped on every hit, saturating) and only breaks ties by
recency -- so never-reused entries are evicted before any entry that
has proven itself, regardless of age.

The implementation follows the PR-5 victim contract
(:class:`repro.replacement.base.ReplacementPolicy`): the owner
guarantees every way is valid when :meth:`victim` is called, the policy
answers from its own per-way state with no candidate lists, ties break
toward the lowest way, and :meth:`resize_ways` truncates per-way state
on shrink so a later grow re-exposes fresh (not stale) state.
"""

from __future__ import annotations

from typing import Optional

from repro.replacement.base import ReplacementPolicy

#: Reuse counters saturate here: past a few reuses an entry has proven
#: itself, and an unbounded counter would make old hot entries immortal.
REUSE_CAP = 3


class ReuseAwarePolicy(ReplacementPolicy):
    """Evict the least-reused way; break reuse ties by LRU, then way.

    Victim selection minimizes the tuple ``(reuse, last_touch)`` over the
    set's ways: a way that was never hit (``reuse == 0``) always loses to
    one that was, and among equally-reused ways the one touched longest
    ago goes first.  Both passes are C-level (``min`` + ``list.index``
    over the set's slice of the flat state) per the O(1)-per-fill
    discipline established for the other policies.
    """

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._clock = 0
        #: Per-way reuse counters and last touches, flat
        #: (``set_idx * num_ways + way``).
        self._reuse = [0] * (num_sets * num_ways)
        self._last_touch = [-1] * (num_sets * num_ways)

    def on_hit(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        slot = set_idx * self.num_ways + way
        self._clock += 1
        self._last_touch[slot] = self._clock
        if self._reuse[slot] < REUSE_CAP:
            self._reuse[slot] += 1

    def on_fill(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        slot = set_idx * self.num_ways + way
        self._clock += 1
        self._last_touch[slot] = self._clock
        self._reuse[slot] = 0

    def on_evict(self, set_idx: int, way: int) -> None:
        slot = set_idx * self.num_ways + way
        self._last_touch[slot] = -1
        self._reuse[slot] = 0

    def victim(self, set_idx: int, pc: Optional[int] = None) -> int:
        base = set_idx * self.num_ways
        end = base + self.num_ways
        scores = list(zip(self._reuse[base:end], self._last_touch[base:end]))
        return scores.index(min(scores))

    def resize_ways(self, num_ways: int) -> None:
        # Truncate (same contract as LruPolicy): a future grow must
        # re-extend with fresh state, never re-expose stale counters as
        # fake reuse.
        self._last_touch = self._resized(self._last_touch, num_ways, -1)
        self._reuse = self._resized(self._reuse, num_ways, 0)
        super().resize_ways(num_ways)
