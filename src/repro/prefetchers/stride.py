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

from typing import Dict, List, Tuple

from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate


class StridePrefetcher(BasePrefetcher):
    """Stride detection per PC with a small LRU table."""

    name = "stride"
    CONFIDENCE_MAX = 3
    CONFIDENCE_THRESHOLD = 2

    def __init__(self, degree: int = 1, table_size: int = 256):
        super().__init__(degree)
        self.table_size = table_size
        #: pc -> ``(last line, stride, confidence)``, least recent first.
        self._table: Dict[int, Tuple[int, int, int]] = {}
        #: stride -> its prefetch offsets ``(stride, 2 * stride, ...)``.
        self._runs: Dict[int, Tuple[int, ...]] = {}

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        return [
            PrefetchCandidate(line + offset, None, self)
            for offset in self.offsets(pc, line)
        ]

    def offsets(self, pc: int, line: int) -> Tuple[int, ...]:
        """Train on a demand access to ``line`` by ``pc``; return the
        offsets from ``line`` of the lines to prefetch, ``()`` for none.

        Calls for one stride share one tuple, unless a negative stride
        runs a target below line 1 (such targets are dropped).
        """
        table = self._table
        entry = table.pop(pc, None)
        if entry is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[pc] = (line, 0, 0)
            return ()
        last_line, stride, confidence = entry
        seen = line - last_line
        if seen == 0:
            table[pc] = entry
            return ()
        if seen == stride:
            if confidence < self.CONFIDENCE_MAX:
                confidence += 1
        else:
            confidence -= 1
            if confidence <= 0:
                stride = seen
                confidence = 1
        table[pc] = (line, stride, confidence)
        # A stride is only ever replaced by a nonzero one, and starts at
        # zero with no confidence: a confident stride is nonzero.
        if confidence < self.CONFIDENCE_THRESHOLD:
            return ()
        run = self._runs.get(stride)
        if run is None:
            run = self._runs[stride] = tuple(
                stride * i for i in range(1, self.degree + 1)
            )
        if line + run[-1] <= 0:
            run = tuple([offset for offset in run if line + offset > 0])
        return run
