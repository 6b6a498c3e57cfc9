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
