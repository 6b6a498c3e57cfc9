"""Spatial Memory Streaming (Somogyi et al., ISCA 2006).

SMS correlates *spatial footprints* -- the set of lines touched within a
memory region -- with the (PC, region-offset) of the access that first
touched the region.  When a later access triggers the same (PC, offset)
signature, SMS eagerly prefetches the whole recorded footprint.  Three
tables implement this:

* **filter table** -- regions touched once, waiting for a second access;
* **accumulation table** -- active regions whose footprint is being built;
* **pattern history table (PHT)** -- learned signature -> footprint maps.

SMS captures recurring spatial patterns across regions but, as the paper
stresses, cannot follow pointer chains -- which is why it underperforms on
the irregular suite (paper Figures 5/6).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from repro.memory.address import LINE_SHIFT
from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate


class SmsPrefetcher(BasePrefetcher):
    """SMS with a 2 KB region (32 lines) and LRU-managed tables."""

    name = "sms"

    def __init__(
        self,
        degree: int = 1,
        region_size: int = 2048,
        filter_entries: int = 32,
        accumulation_entries: int = 64,
        pht_entries: int = 2048,
    ):
        super().__init__(degree)
        if region_size % 64 != 0:
            raise ValueError("region_size must be a multiple of the line size")
        self.region_lines = region_size >> LINE_SHIFT
        self.region_size = region_size
        self.filter_entries = filter_entries
        self.accumulation_entries = accumulation_entries
        self.pht_entries = pht_entries
        # region -> (trigger_pc, trigger_offset)
        self._filter: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        # region -> (trigger signature, trigger offset, footprint bitmask)
        self._accumulation: "OrderedDict[int, Tuple[Tuple[int, int], int, int]]" = (
            OrderedDict()
        )
        # signature -> footprint bitmask *rotated relative to the trigger
        # offset* (the SMS paper anchors patterns at the trigger access so
        # they generalize across regions).
        self._pht: "OrderedDict[Tuple[int, int], int]" = OrderedDict()

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        region, offset = divmod(line, self.region_lines)

        acc = self._accumulation.get(region)
        if acc is not None:
            signature, trigger_offset, footprint = acc
            self._accumulation[region] = (
                signature,
                trigger_offset,
                footprint | (1 << offset),
            )
            self._accumulation.move_to_end(region)
            return []

        filt = self._filter.get(region)
        if filt is not None:
            # Second access to the region: promote to accumulation.
            del self._filter[region]
            trigger_pc, trigger_offset = filt
            signature = (trigger_pc, trigger_offset)
            footprint = (1 << trigger_offset) | (1 << offset)
            self._accumulate(region, signature, trigger_offset, footprint)
            return []

        # First access to the region: record in the filter table and, if
        # the signature has history, prefetch the learned footprint
        # re-anchored at this trigger offset.
        self._filter_insert(region, (pc, offset))
        signature = (pc, offset)
        relative = self._pht.get(signature)
        if relative is None:
            return []
        self._pht.move_to_end(signature)
        region_lines = self.region_lines
        region_base = region * region_lines
        return [
            PrefetchCandidate(region_base + (offset + rel) % region_lines, None, self)
            for rel in range(1, region_lines)
            if relative >> rel & 1
        ]

    # -- table maintenance ---------------------------------------------------

    def _filter_insert(self, region: int, value: Tuple[int, int]) -> None:
        if len(self._filter) >= self.filter_entries:
            self._filter.popitem(last=False)
        self._filter[region] = value

    def _accumulate(
        self,
        region: int,
        signature: Tuple[int, int],
        trigger_offset: int,
        footprint: int,
    ) -> None:
        if len(self._accumulation) >= self.accumulation_entries:
            __, (old_sig, old_trigger, old_fp) = self._accumulation.popitem(
                last=False
            )
            self._pht_store(old_sig, old_trigger, old_fp)
        self._accumulation[region] = (signature, trigger_offset, footprint)

    def _pht_store(
        self, signature: Tuple[int, int], trigger_offset: int, footprint: int
    ) -> None:
        relative = self._rotate(footprint, trigger_offset)
        if relative == 0:
            return  # nothing beyond the trigger line: no pattern to keep
        if len(self._pht) >= self.pht_entries:
            self._pht.popitem(last=False)
        self._pht[signature] = relative

    def _rotate(self, footprint: int, trigger_offset: int) -> int:
        """Footprint re-expressed relative to the trigger (bit 0 dropped)."""
        relative = 0
        for bit in range(self.region_lines):
            if footprint & (1 << bit):
                rel = (bit - trigger_offset) % self.region_lines
                if rel != 0:
                    relative |= 1 << rel
        return relative

    def flush_training(self) -> None:
        """Commit every in-flight footprint to the PHT (end-of-trace aid)."""
        while self._accumulation:
            __, (signature, trigger_offset, footprint) = self._accumulation.popitem(
                last=False
            )
            self._pht_store(signature, trigger_offset, footprint)
