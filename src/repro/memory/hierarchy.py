"""The cache hierarchy: a per-core L1D in front of private L2s, a shared
LLC and DRAM.

The geometry defaults to the paper's Table 1: 64 KB 4-way L1D, 512 KB
8-way private L2, 2 MB/core 16-way shared LLC, 64 B lines.  The hierarchy
is mechanical -- it moves lines and counts events; prefetcher logic lives
in the simulation engine, which trains on the L2 access stream (paper
Figure 4: "PC, Phys Addr of L2 Misses & Prefetch Hits") and injects
prefetches through :meth:`CacheHierarchy.prefetch`.

The L1D is filled only by its own demand misses and nothing below it
ever invalidates or reads its lines, so its outcomes depend on the
demand trace alone.  :class:`L1D` therefore runs it as a separate pass
over a trace, once for every configuration the trace runs under, and
:class:`CacheHierarchy` starts at the L2: it takes each L1D miss
together with the dirty victim that miss evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.memory.address import LINE_SIZE
from repro.memory.cache import (
    DIRTY,
    PF_L1,
    PF_L2,
    PF_MASK,
    WAY_SHIFT,
    Cache,
    LruCache,
    _Geometry,
)
from repro.memory.dram import TrafficCounter
from repro.replacement.base import ReplacementPolicy

#: Levels an access can be satisfied at.
LEVELS = ("l1", "l2", "llc", "dram")

#: What :meth:`CacheHierarchy.access` returns: ``(hit_level,
#: prefetch_hit_kind)``.  ``hit_level`` is one of :data:`LEVELS`;
#: ``prefetch_hit_kind`` is the prefetcher kind (``"l1"``/``"l2"``) when
#: the access was the first demand touch of a prefetched L2 line, else
#: None.
Outcome = Tuple[str, Optional[str]]

#: The outcome of every L1 hit (L1 lines are never prefetched).
L1_HIT: Outcome = ("l1", None)
_LLC: Outcome = ("llc", None)
_DRAM: Outcome = ("dram", None)

#: :class:`L1D` outcome codes: the access hit, or it missed and evicted
#: no dirty line.  Any other code is a miss that evicted the dirty line
#: it names (line addresses are never negative).
L1D_HIT = -1
L1D_MISS = -2


class L1D:
    """A write-back LRU L1D, run over demand streams.

    Each set is a dict ``line -> dirty`` in recency order, least recent
    first.  A miss always fills the line, dirty when the access writes.
    Way positions are not kept: the L1D is never way-partitioned.
    """

    def __init__(self, size: int, ways: int):
        self.set_mask = _Geometry("L1D", size, ways, LINE_SIZE).set_mask
        self.ways = ways
        self.sets: List[Dict[int, bool]] = [{} for _ in range(self.set_mask + 1)]

    def run(self, lines: Iterable[int], writes: Iterable[bool]) -> List[int]:
        """One outcome code per access: :data:`L1D_HIT`,
        :data:`L1D_MISS`, or the line of the dirty victim the miss
        evicted."""
        sets = self.sets
        set_mask = self.set_mask
        ways = self.ways
        codes: List[int] = []
        append = codes.append
        for line, is_write in zip(lines, writes):
            resident = sets[line & set_mask]
            dirty = resident.pop(line, None)
            if dirty is not None:
                resident[line] = dirty or is_write
                append(L1D_HIT)
                continue
            code = L1D_MISS
            if len(resident) == ways:
                for victim in resident:
                    break
                if resident.pop(victim):
                    code = victim
            resident[line] = is_write
            append(code)
        return codes


def trains_l2_prefetcher(hit_level: str, prefetch_hit_kind: Optional[str]) -> bool:
    """True when an access outcome is part of the L2 miss + prefetch-hit
    stream the L2 prefetcher trains on (paper Figure 4).

    The analytic engines inline this test (a call per access costs a
    frame); keep them in sync.
    """
    return prefetch_hit_kind is not None or hit_level in ("llc", "dram")


@dataclass(slots=True)
class CoreCounters:
    """Per-core demand/prefetch statistics.

    ``l2_prefetch_hits``/``prefetches_*`` cover the L2 prefetcher under
    evaluation; the baseline L1 stride prefetcher (Table 1) is tracked
    separately in the ``l1pf_*`` fields so it never pollutes coverage or
    accuracy numbers.
    """

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l2_prefetch_hits: int = 0  # useful L2 prefetches (first demand touch)
    llc_hits: int = 0
    dram_accesses: int = 0
    prefetches_issued: int = 0
    prefetches_redundant: int = 0
    prefetch_fills_from_llc: int = 0
    prefetch_fills_from_dram: int = 0
    l1pf_useful: int = 0
    l1pf_issued: int = 0
    l1pf_redundant: int = 0
    l1pf_fills_from_dram: int = 0

    @property
    def l2_demand_misses(self) -> int:
        return self.llc_hits + self.dram_accesses


class CacheHierarchy:
    """Private L2 per core over a shared, way-partitionable LLC, behind
    each core's L1D.

    The L1D itself runs ahead as an :class:`L1D`; :meth:`access`
    takes the accesses that missed it, and :meth:`l1_hit` counts the
    ones that hit.  The L2 is always an :class:`LruCache` and the
    demand and prefetch paths work on its set dicts directly, with the
    same packed line state and way bookkeeping as :meth:`LruCache.fill`.
    The LLC is an :class:`LruCache` under ``llc_policy="lru"`` and a
    policy-driven :class:`Cache` otherwise; it is only reached through
    its methods.
    """

    def __init__(
        self,
        n_cores: int = 1,
        l2_size: int = 512 * 1024,
        l2_ways: int = 8,
        llc_size_per_core: int = 2 * 1024 * 1024,
        llc_ways: int = 16,
        llc_policy: Union[str, ReplacementPolicy] = "lru",
        traffic: Optional[TrafficCounter] = None,
    ):
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.n_cores = n_cores
        self.l2s = [LruCache(f"L2_{c}", l2_size, l2_ways) for c in range(n_cores)]
        llc_size = llc_size_per_core * n_cores
        self.llc: Union[LruCache, Cache] = (
            LruCache("LLC", llc_size, llc_ways)
            if llc_policy == "lru"
            else Cache("LLC", llc_size, llc_ways, policy=llc_policy)
        )
        self.traffic = traffic if traffic is not None else TrafficCounter()
        #: The traffic counter's byte dict; the categories used here are
        #: fixed, so the hot paths add to it without validation.
        self._bytes = self.traffic.bytes_by_category
        self.counters = [CoreCounters() for _ in range(n_cores)]

    # -- demand path ---------------------------------------------------------

    def l1_hit(self, core: int) -> Outcome:
        """Count a demand access from ``core`` that hit its L1D."""
        counters = self.counters[core]
        counters.accesses += 1
        counters.l1_hits += 1
        return L1_HIT

    def access(
        self, core: int, pc: int, line: int, is_write: bool, l1: int
    ) -> Outcome:
        """Issue one demand access that missed ``core``'s L1D.

        ``l1`` is the miss's :class:`L1D` code: :data:`L1D_MISS`,
        or the dirty L1D victim, which is written back once the missing
        line has been filled into the L2 (into the L2 if it still holds
        the victim, else into the LLC, else to DRAM).  Returns
        ``(hit_level, prefetch_hit_kind)`` (see :data:`Outcome`).
        """
        counters = self.counters[core]
        counters.accesses += 1
        l2 = self.l2s[core]
        set_idx = line & l2.set_mask
        lines = l2.sets[set_idx]
        state = lines.pop(line, None)
        if state is not None:
            if is_write:
                state |= DIRTY
            outcome = "l2", None
            if state & PF_MASK:
                if state & PF_L2:
                    outcome = "l2", "l2"
                    counters.l2_prefetch_hits += 1
                else:
                    outcome = "l2", "l1"
                    counters.l1pf_useful += 1
                state &= ~PF_MASK
            lines[line] = state
            counters.l2_hits += 1
        else:
            llc = self.llc
            dirty_victim = llc.fetch(line, pc)
            if dirty_victim is None:
                counters.llc_hits += 1
                outcome = _LLC
            else:
                counters.dram_accesses += 1
                self._bytes["demand"] += LINE_SIZE
                if dirty_victim:
                    self._bytes["writeback"] += LINE_SIZE
                outcome = _DRAM
            # Fill the L2 (``line`` just missed it).
            dirty = DIRTY if is_write else 0
            free = l2.free_ways[set_idx]
            if free:
                lines[line] = heappop(free) << WAY_SHIFT | dirty
            else:
                for victim in lines:
                    break
                state = lines.pop(victim)
                lines[line] = state >> WAY_SHIFT << WAY_SHIFT | dirty
                if state & DIRTY and not llc.mark_dirty(victim):
                    self._bytes["writeback"] += LINE_SIZE
        if l1 >= 0:
            # The L1D's dirty victim.  L2 does not back-invalidate L1,
            # so it may have evicted the line already: then the LLC, or
            # DRAM.
            lines = l2.sets[l1 & l2.set_mask]
            state = lines.get(l1)
            if state is not None:
                lines[l1] = state | DIRTY  # rebinding keeps its position
            elif not self.llc.mark_dirty(l1):
                self._bytes["writeback"] += LINE_SIZE
        return outcome

    # -- prefetch path ---------------------------------------------------------

    def prefetch(self, core: int, line: int, pc: int = 0, kind: str = "l2") -> str:
        """Insert a prefetch for ``line`` into ``core``'s L2.

        ``kind`` labels which prefetcher issued it ("l2" for the
        prefetcher under evaluation, "l1" for the baseline stride
        prefetcher).  Returns where the data came from: ``"redundant"``
        (already in L2, dropped), ``"llc"`` (on-chip move, no DRAM
        traffic) or ``"dram"`` (off-chip fetch, counted as prefetch
        traffic).
        """
        counters = self.counters[core]
        l2 = self.l2s[core]
        set_idx = line & l2.set_mask
        lines = l2.sets[set_idx]
        l2_prefetch = kind == "l2"
        if line in lines:
            if l2_prefetch:
                counters.prefetches_redundant += 1
            else:
                counters.l1pf_redundant += 1
            return "redundant"
        if l2_prefetch:
            counters.prefetches_issued += 1
        else:
            counters.l1pf_issued += 1
        llc = self.llc
        dirty_victim = llc.fetch(line, pc, False)
        if dirty_victim is None:
            if l2_prefetch:
                counters.prefetch_fills_from_llc += 1
            source = "llc"
        else:
            if l2_prefetch:
                counters.prefetch_fills_from_dram += 1
            else:
                counters.l1pf_fills_from_dram += 1
            self._bytes["prefetch"] += LINE_SIZE
            if dirty_victim:
                self._bytes["writeback"] += LINE_SIZE
            source = "dram"
        # Fill the L2 (``line`` just missed it).
        bits = PF_L2 if l2_prefetch else PF_L1
        free = l2.free_ways[set_idx]
        if free:
            lines[line] = heappop(free) << WAY_SHIFT | bits
        else:
            for victim in lines:
                break
            state = lines.pop(victim)
            lines[line] = state >> WAY_SHIFT << WAY_SHIFT | bits
            if state & DIRTY and not llc.mark_dirty(victim):
                self._bytes["writeback"] += LINE_SIZE
        return source

    # -- LLC way partitioning -----------------------------------------------

    def resize_llc_data_ways(self, data_ways: int) -> None:
        """Shrink or grow the LLC's data partition (Triage metadata takes
        the remainder).  Dirty lines flushed by a shrink are written back.
        """
        for _line, dirty in self.llc.set_active_ways(data_ways):
            if dirty:
                self._bytes["writeback"] += LINE_SIZE
