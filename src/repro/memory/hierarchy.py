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
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.memory.address import LINE_SIZE
from repro.memory.cache import DIRTY, PF_L1, PF_L2, Cache, LruCache, _Geometry
from repro.memory.dram import TrafficCounter
from repro.replacement.base import ReplacementPolicy

#: What :meth:`CacheHierarchy.access` returns for an L1D miss: a plain
#: L2 hit; the first demand touch of an L2 line the L1 stride prefetcher
#: or the L2 prefetcher brought in; an LLC hit; a DRAM fill.  The two
#: first-touch codes are the line's packed prefetch bits shifted down.
#: :meth:`CacheHierarchy.prefetch` returns the level that held the line
#: in the same codes: :data:`L2_HIT` (redundant), :data:`LLC_HIT` or
#: :data:`DRAM_FILL`.
L2_HIT = 0
L2_PF_L1 = PF_L1 >> 1
L2_PF_L2 = PF_L2 >> 1
LLC_HIT = 3
DRAM_FILL = 4

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


class L2:
    """A private LRU L2: per set, a dict ``line -> state`` in recency
    order, least recent first, ``state`` being the :mod:`~repro.memory.cache`
    dirty and prefetch bits.  The L2 is never way-partitioned, so it
    keeps no way positions: a set fills until it holds ``ways`` lines,
    then a fill evicts its first key.  :class:`CacheHierarchy` works on
    the sets directly."""

    def __init__(self, size: int, ways: int):
        geometry = _Geometry("L2", size, ways, LINE_SIZE)
        self.num_sets = geometry.num_sets
        self.set_mask = geometry.set_mask
        self.ways = ways
        self.sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]

    def contains(self, line: int) -> bool:
        return line in self.sets[line & self.set_mask]


def trains_l2_prefetcher(outcome: int) -> bool:
    """True when an access outcome is part of the L2 miss + prefetch-hit
    stream the L2 prefetcher trains on (paper Figure 4): anything but
    :data:`L1D_HIT` and a plain :data:`L2_HIT`.

    The analytic engines inline this test (a call per access costs a
    frame); keep them in sync.
    """
    return outcome > L2_HIT


@dataclass(slots=True)
class CoreCounters:
    """Per-core demand/prefetch statistics.

    ``l2_prefetch_hits``/``prefetches_*`` cover the L2 prefetcher under
    evaluation; the baseline L1 stride prefetcher (Table 1) is tracked
    separately in the ``l1pf_*`` fields so it never pollutes coverage or
    accuracy numbers.  ``accesses``, ``l1_hits``, ``l2_hits`` and
    ``prefetches_issued`` are counted when a segment closes
    (:meth:`CacheHierarchy.close_segment`).
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
    takes the accesses that missed it.  The engines count each core's
    ``accesses`` and ``l1_hits`` from the L1D's codes when they close
    a segment (:meth:`close_segment`).  The L2 is an
    :class:`L2`, whose sets the demand and prefetch paths work on
    directly.  The LLC is an :class:`LruCache` under ``llc_policy="lru"``
    and a policy-driven :class:`Cache` otherwise; it is only reached
    through its methods.
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
        self.l2s = [L2(l2_size, l2_ways) for _ in range(n_cores)]
        llc_size = llc_size_per_core * n_cores
        self.llc: Union[LruCache, Cache] = (
            LruCache("LLC", llc_size, llc_ways)
            if llc_policy == "lru"
            else Cache("LLC", llc_size, llc_ways, policy=llc_policy)
        )
        #: Write-back and metadata bytes; :meth:`traffic_bytes` adds the
        #: demand and prefetch bytes the DRAM fill counters imply.
        self.traffic = traffic if traffic is not None else TrafficCounter()
        #: The traffic counter's byte dict; the categories used here are
        #: fixed, so the hot paths add to it without validation.
        self._bytes = self.traffic.bytes_by_category
        self.counters = [CoreCounters() for _ in range(n_cores)]

    def traffic_bytes(self) -> Dict[str, int]:
        """Off-chip bytes by category.  Every DRAM fill moves one line,
        so demand and prefetch bytes follow from the cores' counters
        (and restart with them); the traffic counter holds the rest."""
        out = self.traffic.snapshot()
        for counters in self.counters:
            out["demand"] += LINE_SIZE * counters.dram_accesses
            out["prefetch"] += LINE_SIZE * (
                counters.prefetch_fills_from_dram + counters.l1pf_fills_from_dram
            )
        return out

    # -- demand path ---------------------------------------------------------

    def close_segment(self, core: int, l1_codes: List[int], start: int, stop: int) -> None:
        """Close a window of ``core``'s run, once its accesses
        ``start:stop`` have been issued.  Given every access's
        :class:`L1D` code, count them: each is an access and each
        :data:`L1D_HIT` an L1 hit.  Then derive the counts the hot paths
        leave out: ``l2_hits`` (:meth:`access` counts the other L1D
        misses by the level that served them) and ``prefetches_issued``
        (every prefetch that was not redundant filled from the LLC or
        from DRAM)."""
        counters = self.counters[core]
        counters.accesses += stop - start
        counters.l1_hits += l1_codes[start:stop].count(L1D_HIT)
        counters.l2_hits = (
            counters.accesses - counters.l1_hits
            - counters.llc_hits - counters.dram_accesses
        )
        counters.prefetches_issued = (
            counters.prefetch_fills_from_llc + counters.prefetch_fills_from_dram
        )

    def access(self, core: int, pc: int, line: int, is_write: bool, l1: int) -> int:
        """Issue one demand access that missed ``core``'s L1D.

        ``l1`` is the miss's :class:`L1D` code: :data:`L1D_MISS`,
        or the dirty L1D victim, which is written back once the missing
        line has been filled into the L2 (into the L2 if it still holds
        the victim, else into the LLC, else to DRAM).  Returns the
        outcome: :data:`L2_HIT`, :data:`L2_PF_L1`, :data:`L2_PF_L2`,
        :data:`LLC_HIT` or :data:`DRAM_FILL`.
        """
        counters = self.counters[core]
        l2 = self.l2s[core]
        lines = l2.sets[line & l2.set_mask]
        state = lines.pop(line, None)
        if state is not None:
            # A touch clears the prefetch bits; ``is_write`` is 0 or 1.
            # An L2 state holds no way bits and at most one prefetch bit.
            lines[line] = state & DIRTY | is_write
            outcome = state >> 1
            if outcome == L2_PF_L2:
                counters.l2_prefetch_hits += 1
            elif outcome:
                counters.l1pf_useful += 1
        else:
            llc = self.llc
            dirty_victim = llc.fetch(line, pc)
            if dirty_victim is None:
                counters.llc_hits += 1
                outcome = LLC_HIT
            else:
                counters.dram_accesses += 1
                if dirty_victim:
                    self._bytes["writeback"] += LINE_SIZE
                outcome = DRAM_FILL
            # Fill the L2 (``line`` just missed it).
            if len(lines) == l2.ways:
                for victim in lines:
                    break
                if lines.pop(victim) & DIRTY and not llc.mark_dirty(victim):
                    self._bytes["writeback"] += LINE_SIZE
            lines[line] = is_write
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

    def prefetch(self, core: int, line: int, pc: int = 0) -> int:
        """Insert the L2 prefetcher's prefetch for ``line`` into
        ``core``'s L2 and return the level that held the line:
        :data:`L2_HIT` (already in the L2: redundant, dropped),
        :data:`LLC_HIT` (an on-chip move, no DRAM traffic) or
        :data:`DRAM_FILL` (an off-chip fetch, counted as prefetch
        traffic).  ``prefetches_issued`` follows from the fill counters
        when the segment closes (:meth:`close_segment`).
        """
        l2 = self.l2s[core]
        lines = l2.sets[line & l2.set_mask]
        if line in lines:
            self.counters[core].prefetches_redundant += 1
            return L2_HIT
        llc = self.llc
        dirty_victim = llc.fetch(line, pc, False)
        if dirty_victim is None:
            self.counters[core].prefetch_fills_from_llc += 1
            source = LLC_HIT
        else:
            self.counters[core].prefetch_fills_from_dram += 1
            if dirty_victim:
                self._bytes["writeback"] += LINE_SIZE
            source = DRAM_FILL
        # Fill the L2 (``line`` just missed it).
        if len(lines) == l2.ways:
            for victim in lines:
                break
            if lines.pop(victim) & DIRTY and not llc.mark_dirty(victim):
                self._bytes["writeback"] += LINE_SIZE
        lines[line] = PF_L2
        return source

    def prefetch_l1(
        self,
        core: int,
        line: int,
        pc: int,
        offsets: Tuple[int, ...],
        fills: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        """Insert the L1 stride prefetcher's prefetches for one access to
        ``line`` (its :class:`~repro.sim.front_end.FrontEnd` offsets)
        into ``core``'s L2, in order.

        Each target already in the L2 is redundant and dropped; each
        other one moves in from the LLC or DRAM as in :meth:`prefetch`,
        counted in the ``l1pf_*`` fields.  ``fills``, when given, gets
        ``(target, LLC_HIT or DRAM_FILL)`` for each target that filled.
        """
        l2 = self.l2s[core]
        counters = self.counters[core]
        for offset in offsets:
            target = line + offset
            lines = l2.sets[target & l2.set_mask]
            if target in lines:
                counters.l1pf_redundant += 1
                continue
            counters.l1pf_issued += 1
            llc = self.llc
            dirty_victim = llc.fetch(target, pc, False)
            if dirty_victim is None:
                source = LLC_HIT
            else:
                counters.l1pf_fills_from_dram += 1
                if dirty_victim:
                    self._bytes["writeback"] += LINE_SIZE
                source = DRAM_FILL
            if len(lines) == l2.ways:
                for victim in lines:
                    break
                if lines.pop(victim) & DIRTY and not llc.mark_dirty(victim):
                    self._bytes["writeback"] += LINE_SIZE
            lines[target] = PF_L1
            if fills is not None:
                fills.append((target, source))

    # -- LLC way partitioning -----------------------------------------------

    def resize_llc_data_ways(self, data_ways: int) -> None:
        """Shrink or grow the LLC's data partition (Triage metadata takes
        the remainder).  Dirty lines flushed by a shrink are written back.
        """
        for _line, dirty in self.llc.set_active_ways(data_ways):
            if dirty:
                self._bytes["writeback"] += LINE_SIZE
