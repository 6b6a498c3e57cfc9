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

from typing import Dict, List, Tuple

from repro.memory.address import LINE_SHIFT
from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate


def relative_offsets(relative: int, region_lines: int) -> Tuple[int, ...]:
    """The set bits of a trigger-relative footprint, ascending."""
    return tuple([rel for rel in range(1, region_lines) if relative >> rel & 1])


class SmsPrefetcher(BasePrefetcher):
    """SMS with a 2 KB region (32 lines) and LRU-managed tables.

    Each table is a dict in recency order, least recent first.  A
    signature is the ``(pc, offset)`` of the access that first touched a
    region.
    """

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
        # region -> signature
        self._filter: Dict[int, Tuple[int, int]] = {}
        # region -> [signature, footprint bitmask]
        self._accumulation: Dict[int, list] = {}
        # signature -> the footprint's line offsets *relative to the
        # trigger offset*, ascending, the trigger's own line left out (the
        # SMS paper anchors patterns at the trigger access so they
        # generalize across regions).
        self._pht: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # relative footprint -> its offsets tuple, shared by the PHT
        # entries that hold it; never more entries than the PHT.
        self._offsets_of: Dict[int, Tuple[int, ...]] = {}

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        region_lines = self.region_lines
        region, offset = divmod(line, region_lines)

        accumulation = self._accumulation
        acc = accumulation.pop(region, None)
        if acc is not None:
            acc[1] |= 1 << offset
            accumulation[region] = acc
            return []

        filter_table = self._filter
        signature = filter_table.pop(region, None)
        if signature is not None:
            # Second access to the region: promote to accumulation.
            self._accumulate(region, signature, 1 << signature[1] | 1 << offset)
            return []

        # First access to the region: record in the filter table and, if
        # the signature has history, prefetch the learned footprint
        # re-anchored at this trigger offset.
        if len(filter_table) >= self.filter_entries:
            del filter_table[next(iter(filter_table))]
        signature = filter_table[region] = (pc, offset)
        pht = self._pht
        relative = pht.pop(signature, None)
        if relative is None:
            return []
        pht[signature] = relative
        return self._replay(relative, line - offset, offset)

    def _replay(
        self, relative: Tuple[int, ...], region_base: int, offset: int
    ) -> List[PrefetchCandidate]:
        """A PHT pattern's candidates for a trigger at ``offset`` in the
        region starting at line ``region_base``, in ascending relative
        offset.  (A comprehension inside :meth:`observe` would turn the
        locals it reads into closure cells on every call.)"""
        region_lines = self.region_lines
        return [
            PrefetchCandidate(region_base + (offset + rel) % region_lines, None, self)
            for rel in relative
        ]

    # -- table maintenance ---------------------------------------------------

    def _accumulate(
        self, region: int, signature: Tuple[int, int], footprint: int
    ) -> None:
        accumulation = self._accumulation
        if len(accumulation) >= self.accumulation_entries:
            self._pht_store(*accumulation.pop(next(iter(accumulation))))
        accumulation[region] = [signature, footprint]

    def _pht_store(self, signature: Tuple[int, int], footprint: int) -> None:
        relative = self._rotate(footprint, signature[1])
        if relative == 0:
            return  # nothing beyond the trigger line: no pattern to keep
        pht = self._pht
        if len(pht) >= self.pht_entries:
            del pht[next(iter(pht))]
        offsets_of = self._offsets_of
        offsets = offsets_of.get(relative)
        if offsets is None:
            if len(offsets_of) >= self.pht_entries:
                offsets_of.clear()
            offsets = offsets_of[relative] = relative_offsets(relative, self.region_lines)
        pht[signature] = offsets

    def _rotate(self, footprint: int, trigger_offset: int) -> int:
        """Footprint re-expressed relative to the trigger (bit 0 dropped):
        rotated right by ``trigger_offset`` within the region."""
        region_lines = self.region_lines
        rotated = footprint >> trigger_offset | footprint << region_lines - trigger_offset
        return rotated & (1 << region_lines) - 2

    def flush_training(self) -> None:
        """Commit every in-flight footprint to the PHT (end-of-trace aid)."""
        for signature, footprint in self._accumulation.values():
            self._pht_store(signature, footprint)
        self._accumulation.clear()
