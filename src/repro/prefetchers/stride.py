"""PC-indexed stride prefetcher (Table 1's L1D prefetcher).

Classic Baer-Chen design: a table keyed by load PC records the last line
address and the last observed stride with a 2-bit confidence counter.
Once the same stride repeats, the prefetcher issues ``degree`` prefetches
along it.

It trains on the demand stream alone, so the engines run it once per
trace, in :func:`repro.sim.front_end.front_end`, and replay its
prefetches under every configuration.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate


@dataclass(slots=True)
class _StrideEntry:
    last_line: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(BasePrefetcher):
    """Stride detection per PC with a small LRU table."""

    name = "stride"
    CONFIDENCE_MAX = 3
    CONFIDENCE_THRESHOLD = 2

    def __init__(self, degree: int = 1, table_size: int = 256):
        super().__init__(degree)
        self.table_size = table_size
        self._table: "OrderedDict[int, _StrideEntry]" = OrderedDict()

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        entry = self._table.get(pc)
        if entry is None:
            self._insert(pc, _StrideEntry(last_line=line))
            return []
        self._table.move_to_end(pc)
        stride = line - entry.last_line
        if stride == 0:
            return []
        if stride == entry.stride:
            if entry.confidence < self.CONFIDENCE_MAX:
                entry.confidence += 1
        else:
            entry.confidence -= 1
            if entry.confidence <= 0:
                entry.stride = stride
                entry.confidence = 1
        entry.last_line = line
        step = entry.stride
        if entry.confidence < self.CONFIDENCE_THRESHOLD or step == 0:
            return []
        return [
            PrefetchCandidate(target, None, self)
            for i in range(1, self.degree + 1)
            if (target := line + step * i) > 0
        ]

    def _insert(self, pc: int, entry: _StrideEntry) -> None:
        if len(self._table) >= self.table_size:
            self._table.popitem(last=False)
        self._table[pc] = entry
