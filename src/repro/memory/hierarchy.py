"""Three-level cache hierarchy (per-core L1D/L2, shared LLC, DRAM).

The geometry defaults to the paper's Table 1: 64 KB 4-way L1D, 512 KB
8-way private L2, 2 MB/core 16-way shared LLC, 64 B lines.  The hierarchy
is mechanical -- it moves lines and counts events; prefetcher logic lives
in the simulation engine, which trains on the L2 access stream (paper
Figure 4: "PC, Phys Addr of L2 Misses & Prefetch Hits") and injects
prefetches through :meth:`CacheHierarchy.prefetch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import Optional, Union

from repro.memory.address import LINE_SIZE
from repro.memory.cache import (
    DIRTY,
    PF_L1,
    PF_L2,
    PF_MASK,
    WAY_SHIFT,
    Cache,
    LruCache,
)
from repro.memory.dram import TrafficCounter
from repro.replacement.base import ReplacementPolicy

#: Levels an access can be satisfied at.
LEVELS = ("l1", "l2", "llc", "dram")


@dataclass(slots=True)
class HierarchyEvent:
    """Outcome of one demand access, consumed by prefetcher training."""

    core: int
    pc: int
    line: int
    hit_level: str  # one of LEVELS
    #: Prefetcher kind ("l1"/"l2") if this was the first demand touch of
    #: a prefetched L2 line, else None.
    prefetch_hit_kind: Optional[str] = None
    is_write: bool = False

    @property
    def l2_prefetch_hit(self) -> bool:
        """Demand hit on a line the *L2* prefetcher brought in."""
        return self.prefetch_hit_kind == "l2"

    @property
    def trains_l2_prefetcher(self) -> bool:
        """True when this event is part of the L2 miss + prefetch-hit stream.

        The per-access simulation engines inline this condition (a
        property costs a call frame per access); keep them in sync.
        """
        return self.hit_level in ("llc", "dram") or self.prefetch_hit_kind is not None


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
    """Private L1D/L2 per core over a shared, way-partitionable LLC.

    L1D and L2 are always :class:`LruCache`; the demand and prefetch
    paths work on their set dicts directly (one call per access instead
    of one per level), with the same packed line state and way
    bookkeeping as :meth:`LruCache.fill`.  The LLC is an
    :class:`LruCache` under ``llc_policy="lru"`` and a policy-driven
    :class:`Cache` otherwise; it is only reached through its methods.
    """

    def __init__(
        self,
        n_cores: int = 1,
        l1_size: int = 64 * 1024,
        l1_ways: int = 4,
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
        self.l1s = [LruCache(f"L1D{c}", l1_size, l1_ways) for c in range(n_cores)]
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

    def access(
        self, core: int, pc: int, addr: int, is_write: bool = False
    ) -> HierarchyEvent:
        """Issue one demand access (byte address) from ``core``."""
        line = addr >> 6
        counters = self.counters[core]
        counters.accesses += 1

        l1 = self.l1s[core]
        lines = l1.sets[line & l1.set_mask]
        state = lines.pop(line, None)
        if state is not None:
            # L1 lines are never prefetched (prefetches fill L2 only).
            lines[line] = state | DIRTY if is_write else state
            counters.l1_hits += 1
            return HierarchyEvent(core, pc, line, "l1", None, is_write)

        l2 = self.l2s[core]
        lines = l2.sets[line & l2.set_mask]
        state = lines.pop(line, None)
        if state is not None:
            if is_write:
                state |= DIRTY
            kind = None
            if state & PF_MASK:
                if state & PF_L2:
                    kind = "l2"
                    counters.l2_prefetch_hits += 1
                else:
                    kind = "l1"
                    counters.l1pf_useful += 1
                state &= ~PF_MASK
            lines[line] = state
            counters.l2_hits += 1
            self._fill_l1(core, line, DIRTY if is_write else 0)
            return HierarchyEvent(core, pc, line, "l2", kind, is_write)

        if self.llc.access(line, pc).hit:
            counters.llc_hits += 1
            hit_level = "llc"
        else:
            counters.dram_accesses += 1
            self._bytes["demand"] += LINE_SIZE
            victim = self.llc.fill(line, pc)
            if victim is not None and victim[1]:
                self._bytes["writeback"] += LINE_SIZE
            hit_level = "dram"
        dirty = DIRTY if is_write else 0
        self._fill_l2(core, line, dirty)
        self._fill_l1(core, line, dirty)
        return HierarchyEvent(core, pc, line, hit_level, None, is_write)

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
        l2_prefetch = kind == "l2"
        if line in l2.sets[line & l2.set_mask]:
            if l2_prefetch:
                counters.prefetches_redundant += 1
            else:
                counters.l1pf_redundant += 1
            return "redundant"
        if l2_prefetch:
            counters.prefetches_issued += 1
        else:
            counters.l1pf_issued += 1
        if self.llc.contains(line):
            if l2_prefetch:
                counters.prefetch_fills_from_llc += 1
            self._fill_l2(core, line, PF_L2 if l2_prefetch else PF_L1)
            return "llc"
        if l2_prefetch:
            counters.prefetch_fills_from_dram += 1
        else:
            counters.l1pf_fills_from_dram += 1
        self._bytes["prefetch"] += LINE_SIZE
        victim = self.llc.fill(line, pc)
        if victim is not None and victim[1]:
            self._bytes["writeback"] += LINE_SIZE
        self._fill_l2(core, line, PF_L2 if l2_prefetch else PF_L1)
        return "dram"

    # -- LLC way partitioning -----------------------------------------------

    def resize_llc_data_ways(self, data_ways: int) -> None:
        """Shrink or grow the LLC's data partition (Triage metadata takes
        the remainder).  Dirty lines flushed by a shrink are written back.
        """
        for _line, dirty in self.llc.set_active_ways(data_ways):
            if dirty:
                self._bytes["writeback"] += LINE_SIZE

    # -- internals ---------------------------------------------------------
    #
    # The L1/L2 fills install a line the caller has just seen miss, so
    # they skip LruCache.fill's resident-refill branch; otherwise they
    # are LruCache.fill inlined.

    def _fill_l1(self, core: int, line: int, dirty: int) -> None:
        """Install ``line`` in L1 with packed dirty bit ``dirty``."""
        l1 = self.l1s[core]
        set_idx = line & l1.set_mask
        lines = l1.sets[set_idx]
        free = l1.free_ways[set_idx]
        if free:
            lines[line] = heappop(free) << WAY_SHIFT | dirty
            return
        victim = next(iter(lines))
        state = lines.pop(victim)
        lines[line] = state >> WAY_SHIFT << WAY_SHIFT | dirty
        if state & DIRTY:
            # Write-back to L2.  L2 does not back-invalidate L1, so it
            # may have evicted the line already: then the LLC, or DRAM.
            l2 = self.l2s[core]
            l2_lines = l2.sets[victim & l2.set_mask]
            l2_state = l2_lines.get(victim)
            if l2_state is not None:
                l2_lines[victim] = l2_state | DIRTY
            elif not self.llc.mark_dirty(victim):
                self._bytes["writeback"] += LINE_SIZE

    def _fill_l2(self, core: int, line: int, state_bits: int) -> None:
        """Install ``line`` in L2 with packed dirty/prefetch ``state_bits``."""
        l2 = self.l2s[core]
        set_idx = line & l2.set_mask
        lines = l2.sets[set_idx]
        free = l2.free_ways[set_idx]
        if free:
            lines[line] = heappop(free) << WAY_SHIFT | state_bits
            return
        victim = next(iter(lines))
        state = lines.pop(victim)
        lines[line] = state >> WAY_SHIFT << WAY_SHIFT | state_bits
        if state & DIRTY and not self.llc.mark_dirty(victim):
            self._bytes["writeback"] += LINE_SIZE
