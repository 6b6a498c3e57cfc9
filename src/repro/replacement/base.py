"""Interface every cache replacement policy implements.

A policy is attached to one set-associative structure: a policy-driven
:class:`repro.memory.cache.Cache` (a non-LRU LLC) or Triage's metadata
store.  The owner calls back into the policy on hits, fills and
evictions, and asks it to pick a victim way when a set is full.
Policies are keyed purely by ``(set_index, way)`` so the same
implementation serves data caches and Triage's entry-granularity
metadata store alike.

The victim contract is allocation-free: the owner guarantees every way
in ``0..num_ways-1`` holds a valid line when :meth:`victim` is called (a
set with a free way never needs a victim), so the policy picks from its
own per-way state instead of receiving a candidates list.  Owners that
deactivate ways (LLC way partitioning) keep ``num_ways`` in sync via
:meth:`resize_ways`.

LRU, Hawkeye and the reuse-aware policy keep their per-way state in flat
lists, one slot per ``(set, way)`` at ``set_idx * num_ways + way``, so
building a policy allocates a handful of lists rather than one per set.
"""

from __future__ import annotations

from typing import Optional


class ReplacementPolicy:
    """Base class for replacement policies.

    Subclasses must implement :meth:`victim` and usually override the
    notification hooks.  ``num_sets`` and ``num_ways`` describe the geometry
    of the structure being managed.
    """

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways

    def on_hit(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        """Called when an access hits the line at ``(set_idx, way)``."""

    def on_fill(self, set_idx: int, way: int, pc: Optional[int] = None) -> None:
        """Called when a new line is installed at ``(set_idx, way)``."""

    def on_evict(self, set_idx: int, way: int) -> None:
        """Called when the line at ``(set_idx, way)`` is invalidated."""

    def victim(self, set_idx: int, pc: Optional[int] = None) -> int:
        """Return the way to evict from ``set_idx``.

        The caller guarantees every way in ``0..num_ways-1`` is valid;
        ties break toward the lowest way.
        """
        raise NotImplementedError

    def set_line_key(self, set_idx: int, way: int, key: int) -> None:
        """Tell the policy which line now occupies ``(set_idx, way)``.

        Only policies that sample the access stream by line identity (e.g.
        Hawkeye) care; the default is a no-op.
        """

    def resize_ways(self, num_ways: int) -> None:
        """Adjust the number of ways (used by way partitioning).

        Subclasses holding per-way state must grow *and* truncate their
        rows so :meth:`victim` never considers a deactivated way.
        """
        self.num_ways = num_ways

    def _resized(self, flat: list, num_ways: int, fresh) -> list:
        """``flat`` per-way state cut from rows of ``self.num_ways`` into
        rows of ``num_ways``: a shrink truncates every set's row, a grow
        pads it with ``fresh``, so re-enabled ways never show stale state.
        """
        ways = self.num_ways
        keep = min(ways, num_ways)
        pad = [fresh] * (num_ways - keep)
        resized: list = []
        for set_idx in range(self.num_sets):
            resized += flat[set_idx * ways : set_idx * ways + keep]
            resized += pad
        return resized
