"""Set-associative, write-back caches with way partitioning.

Two models share one public surface.  :class:`LruCache` serves L1D, L2
and the default LRU LLC: each set is a recency-ordered dict.
:class:`Cache` runs any replacement policy through
:class:`~repro.replacement.base.ReplacementPolicy` hooks; the hierarchy
uses it for a non-LRU LLC.  Both support shrinking/growing their
*active* ways at run time, which is how Triage's way partitioning carves
a metadata store out of the LLC's data array (paper Section 3: "we
partition the last-level cache by assigning separate ways to data and
metadata").

A fill, :meth:`invalidate` and :meth:`set_active_ways` hand displaced
lines back as ``(line, dirty)`` pairs, so the caller can write dirty
ones back.  :meth:`fetch` is the last level's probe-or-fill: one call
per LLC lookup of a demand or prefetch miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple, Union

from repro.memory.address import LINE_SIZE
from repro.replacement.base import ReplacementPolicy


@dataclass(slots=True)
class CacheLine:
    """One resident line of a policy-driven :class:`Cache`."""

    line: int  # full line address (byte address >> 6)
    dirty: bool = False
    #: None, or the prefetcher kind ("l1"/"l2") that brought the line in
    #: and has not yet seen a demand touch.
    prefetched: Optional[str] = None


@dataclass(slots=True)
class AccessOutcome:
    """What happened on a demand access."""

    hit: bool
    #: Prefetcher kind if this was the first demand touch of a
    #: prefetched line, else None.
    prefetch_hit: Optional[str] = None


#: A displaced line: ``(line, dirty)``.
Evicted = Tuple[int, bool]

#: Shared outcomes for the two overwhelmingly common cases.  Treat them
#: as immutable: ``access`` returns these instead of allocating a fresh
#: record per miss / plain hit.
_MISS = AccessOutcome(hit=False)
_PLAIN_HIT = AccessOutcome(hit=True)


class _Geometry:
    """Sets, ways and line size shared by both cache models."""

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int):
        num_sets = size_bytes // (line_size * ways)
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError(
                f"{name}: geometry {size_bytes}B/{ways}-way/{line_size}B "
                f"yields {num_sets} sets (must be a positive power of two)"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.total_ways = ways
        self.active_ways = ways
        self.line_size = line_size
        self.num_sets = num_sets
        self.set_mask = num_sets - 1

    def set_of(self, line: int) -> int:
        """Set index of a line address."""
        return line & self.set_mask

    @property
    def active_size_bytes(self) -> int:
        """Capacity of the currently active ways."""
        return self.num_sets * self.active_ways * self.line_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name}, {self.size_bytes}B, "
            f"{self.total_ways}-way, {self.num_sets} sets, "
            f"active_ways={self.active_ways})"
        )


# -- LruCache's packed line state ------------------------------------------
#
# Each resident line maps to one int: bit 0 is the dirty bit, bits 1-2
# the prefetch kind that brought the line in and has not yet seen a
# demand touch (0: none, PF_L1, PF_L2), and the bits from WAY_SHIFT up
# the way the line occupies.  The hierarchy's L2 keeps the dirty and
# prefetch bits alone (it is never partitioned, so it needs no way).

DIRTY = 1
PF_L1 = 2
PF_L2 = 4
PF_MASK = PF_L1 | PF_L2
WAY_SHIFT = 3
#: Packed prefetch bits -> prefetcher kind.
PF_KIND = (None, "l1", "l2")
#: Prefetcher kind -> packed prefetch bits.
PF_BITS = {None: 0, "l1": PF_L1, "l2": PF_L2}


class LruCache(_Geometry):
    """Set-associative LRU cache keyed by line address.

    Each set is a dict ``line -> packed state`` kept in recency order,
    least recent first: a hit pops and reinserts the line, and the
    victim is the first key.  Lines still hold way positions: a fill
    takes the lowest free way (a per-set min-heap), or else the victim's
    way, so :meth:`set_active_ways` evicts exactly the lines a way-based
    LRU model would.  Behaviour matches ``Cache(policy="lru")`` on every
    operation; tests hold the two against each other.
    """

    def __init__(
        self, name: str, size_bytes: int, ways: int, line_size: int = LINE_SIZE
    ):
        super().__init__(name, size_bytes, ways, line_size)
        #: Per set: ``line -> packed state``, least recently used first.
        self.sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        #: Per set: min-heap of free active ways (an ascending range is
        #: already a heap).
        self.free_ways: List[List[int]] = [
            list(range(ways)) for _ in range(self.num_sets)
        ]

    def contains(self, line: int) -> bool:
        """Return True if ``line`` is resident (no recency update)."""
        return line in self.sets[line & self.set_mask]

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(lines) for lines in self.sets)

    def access(self, line: int, pc: int = 0, is_write: bool = False) -> AccessOutcome:
        """Demand access: on a hit make ``line`` most recent; never fill."""
        lines = self.sets[line & self.set_mask]
        state = lines.pop(line, None)
        if state is None:
            return _MISS
        if is_write:
            state |= DIRTY
        if state & PF_MASK:
            lines[line] = state & ~PF_MASK
            return AccessOutcome(True, PF_KIND[state >> 1 & 3])
        lines[line] = state
        return _PLAIN_HIT

    def fill(
        self,
        line: int,
        pc: int = 0,
        dirty: bool = False,
        prefetched: Optional[str] = None,
    ) -> Optional[Evicted]:
        """Install ``line`` as most recent; return the victim, if any.

        Filling a resident line makes it most recent and merges the dirty
        bit instead of duplicating it.
        """
        if not self.active_ways:
            return None  # fully partitioned away: nothing to install into
        set_idx = line & self.set_mask
        lines = self.sets[set_idx]
        state = lines.pop(line, None)
        if state is not None:
            lines[line] = state | DIRTY if dirty else state
            return None
        free = self.free_ways[set_idx]
        victim = None
        if free:
            way = heappop(free)
        else:
            for victim_line in lines:
                break
            victim_state = lines.pop(victim_line)
            way = victim_state >> WAY_SHIFT
            victim = (victim_line, victim_state & DIRTY == DIRTY)
        lines[line] = way << WAY_SHIFT | PF_BITS[prefetched] | (DIRTY if dirty else 0)
        return victim

    def fetch(self, line: int, pc: int = 0, demand: bool = True) -> Optional[bool]:
        """Probe for ``line`` and install it on a miss, in one call.

        Returns None when ``line`` is resident; a demand probe then makes
        it most recent and clears its prefetch bits, a prefetch probe
        (``demand=False``) leaves it as it is.  On a miss the line is
        filled as by :meth:`fill` and the result says whether the fill
        evicted a dirty line.
        """
        set_idx = line & self.set_mask
        lines = self.sets[set_idx]
        if demand:
            state = lines.pop(line, None)
            if state is not None:
                lines[line] = state & ~PF_MASK
                return None
        elif line in lines:
            return None
        if not self.active_ways:
            return False
        free = self.free_ways[set_idx]
        if free:
            lines[line] = heappop(free) << WAY_SHIFT
            return False
        for victim in lines:
            break
        state = lines.pop(victim)
        lines[line] = state >> WAY_SHIFT << WAY_SHIFT
        return state & DIRTY == DIRTY

    def invalidate(self, line: int) -> Optional[Evicted]:
        """Drop ``line`` if resident; return it (caller handles writeback)."""
        set_idx = line & self.set_mask
        state = self.sets[set_idx].pop(line, None)
        if state is None:
            return None
        heappush(self.free_ways[set_idx], state >> WAY_SHIFT)
        return (line, state & DIRTY == DIRTY)

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line; return whether it was found."""
        lines = self.sets[line & self.set_mask]
        state = lines.get(line)
        if state is None:
            return False
        lines[line] = state | DIRTY  # rebinding a key keeps its position
        return True

    def set_active_ways(self, n: int) -> List[Evicted]:
        """Restrict the cache to its first ``n`` ways (see :class:`Cache`)."""
        if not 0 <= n <= self.total_ways:
            raise ValueError(f"{self.name}: active ways {n} out of range")
        evicted: List[Evicted] = []
        if n < self.active_ways:
            for lines, free in zip(self.sets, self.free_ways):
                doomed = [
                    line for line, state in lines.items() if state >> WAY_SHIFT >= n
                ]
                for line in doomed:
                    evicted.append((line, lines.pop(line) & DIRTY == DIRTY))
                free[:] = [way for way in free if way < n]
                heapify(free)
        elif n > self.active_ways:
            reenabled = range(self.active_ways, n)
            for free in self.free_ways:
                for way in reenabled:
                    heappush(free, way)
        self.active_ways = n
        return evicted


class Cache(_Geometry):
    """Set-associative cache keyed by line address, driven by a
    :class:`~repro.replacement.base.ReplacementPolicy`.

    Parameters
    ----------
    name:
        Label used in stats and error messages (``"L1D"``, ``"LLC"`` ...).
    size_bytes / ways / line_size:
        Geometry; ``size_bytes`` must divide evenly into power-of-two sets.
    policy:
        A replacement-policy name from :data:`repro.replacement.POLICIES`
        or an already-constructed :class:`ReplacementPolicy` (the latter is
        how Triage injects a shared Hawkeye predictor).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int = LINE_SIZE,
        policy: Union[str, ReplacementPolicy] = "lru",
    ):
        super().__init__(name, size_bytes, ways, line_size)
        num_sets = self.num_sets
        if isinstance(policy, str):
            # Local import avoids a cycle: repro.replacement re-exports us.
            from repro.replacement import make_policy

            self.policy = make_policy(policy, num_sets, ways)
        else:
            self.policy = policy
        # Policy hooks run on every access/fill; pre-bound methods avoid
        # re-creating a bound method per call.  The policy object is fixed
        # for the cache's lifetime (resize_ways mutates it in place), and
        # ``set_line_key`` is skipped entirely for policies that keep the
        # base no-op.
        self._policy_on_hit = self.policy.on_hit
        self._policy_on_fill = self.policy.on_fill
        self._policy_on_evict = self.policy.on_evict
        self._policy_victim = self.policy.victim
        self._policy_tracks_keys = (
            type(self.policy).set_line_key is not ReplacementPolicy.set_line_key
        )
        self._ways: List[List[Optional[CacheLine]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        self._index: List[Dict[int, int]] = [dict() for _ in range(num_sets)]
        # Per-set min-heap of free (active) ways: fills pop the lowest
        # free way in O(log ways) instead of scanning every way; an
        # ascending range is already a valid heap.
        self._free: List[List[int]] = [list(range(ways)) for _ in range(num_sets)]

    # -- queries (no side effects) ----------------------------------------

    def contains(self, line: int) -> bool:
        """Return True if ``line`` is resident (no replacement update)."""
        return line in self._index[line & self.set_mask]

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(idx) for idx in self._index)

    # -- access / fill / invalidate ----------------------------------------

    def access(self, line: int, pc: int = 0, is_write: bool = False) -> AccessOutcome:
        """Demand access: update replacement state on hit, never fill.

        On a miss the caller is expected to consult the next level and
        call :meth:`fill`.
        """
        set_idx = line & self.set_mask
        way = self._index[set_idx].get(line)
        if way is None:
            return _MISS
        entry = self._ways[set_idx][way]
        if is_write:
            entry.dirty = True
        prefetch_hit = entry.prefetched
        self._policy_on_hit(set_idx, way, pc)
        if prefetch_hit is None:
            return _PLAIN_HIT
        entry.prefetched = None
        return AccessOutcome(True, prefetch_hit)

    def fill(
        self,
        line: int,
        pc: int = 0,
        dirty: bool = False,
        prefetched: Optional[str] = None,
    ) -> Optional[Evicted]:
        """Install ``line``; return the victim (if a valid line was evicted).

        Filling a line that is already resident refreshes its replacement
        state and merges the dirty bit instead of duplicating it.
        """
        if self.active_ways == 0:
            return None  # fully partitioned away: nothing to install into
        set_idx = line & self.set_mask
        existing = self._index[set_idx].get(line)
        if existing is not None:
            if dirty:
                self._ways[set_idx][existing].dirty = True
            self._policy_on_hit(set_idx, existing, pc)
            return None
        return self._install(set_idx, line, pc, dirty, prefetched)

    def fetch(self, line: int, pc: int = 0, demand: bool = True) -> Optional[bool]:
        """Probe for ``line`` and install it on a miss (see
        :meth:`LruCache.fetch`): None when resident, else whether the
        fill evicted a dirty line."""
        set_idx = line & self.set_mask
        way = self._index[set_idx].get(line)
        if way is not None:
            if demand:
                self._policy_on_hit(set_idx, way, pc)
                self._ways[set_idx][way].prefetched = None
            return None
        if self.active_ways == 0:
            return False
        victim = self._install(set_idx, line, pc, False, None)
        return victim is not None and victim[1]

    def _install(
        self,
        set_idx: int,
        line: int,
        pc: int,
        dirty: bool,
        prefetched: Optional[str],
    ) -> Optional[Evicted]:
        """Fill a line known not to be resident; return the victim."""
        index = self._index[set_idx]
        ways = self._ways[set_idx]
        free = self._free[set_idx]
        victim: Optional[Evicted] = None
        if free:
            way = heappop(free)
        else:
            way = self._policy_victim(set_idx, pc)
            entry = ways[way]
            del index[entry.line]
            self._policy_on_evict(set_idx, way)
            victim = (entry.line, entry.dirty)
        ways[way] = CacheLine(line, dirty, prefetched)
        index[line] = way
        if self._policy_tracks_keys:
            self.policy.set_line_key(set_idx, way, line)
        self._policy_on_fill(set_idx, way, pc)
        return victim

    def invalidate(self, line: int) -> Optional[Evicted]:
        """Drop ``line`` if resident; return it (caller handles writeback)."""
        set_idx = self.set_of(line)
        way = self._index[set_idx].pop(line, None)
        if way is None:
            return None
        entry = self._ways[set_idx][way]
        self._ways[set_idx][way] = None
        heappush(self._free[set_idx], way)
        self._policy_on_evict(set_idx, way)
        return (entry.line, entry.dirty)

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line; return whether it was found."""
        set_idx = line & self.set_mask
        way = self._index[set_idx].get(line)
        if way is None:
            return False
        self._ways[set_idx][way].dirty = True
        return True

    # -- way partitioning ---------------------------------------------------

    def set_active_ways(self, n: int) -> List[Evicted]:
        """Restrict the cache to its first ``n`` ways.

        Shrinking invalidates (and returns) every line in the deactivated
        ways -- the paper flushes dirty lines when the data partition
        shrinks, so callers should write back dirty victims.  Growing just
        re-enables the ways; they refill naturally.
        """
        if not 0 <= n <= self.total_ways:
            raise ValueError(f"{self.name}: active ways {n} out of range")
        evicted: List[Evicted] = []
        if n < self.active_ways:
            for set_idx in range(self.num_sets):
                ways = self._ways[set_idx]
                index = self._index[set_idx]
                for way in range(n, self.active_ways):
                    entry = ways[way]
                    if entry is not None:
                        evicted.append((entry.line, entry.dirty))
                        del index[entry.line]
                        ways[way] = None
                        self.policy.on_evict(set_idx, way)
                # Deactivated ways leave the freelist (free or just
                # evicted alike); filtering can break the heap shape,
                # so restore it.
                free = [w for w in self._free[set_idx] if w < n]
                heapify(free)
                self._free[set_idx] = free
        elif n > self.active_ways:
            # Re-enabled ways are empty by construction (the shrink that
            # deactivated them evicted their lines); they refill naturally.
            reenabled = range(self.active_ways, n)
            for free in self._free:
                for way in reenabled:
                    heappush(free, way)
        self.active_ways = n
        self.policy.resize_ways(n)
        return evicted
