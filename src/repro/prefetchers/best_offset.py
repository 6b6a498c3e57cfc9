"""Best-Offset prefetcher (Michaud, HPCA 2016; DPC2 winner).

BO learns a single good prefetch offset by scoring a fixed list of
candidate offsets against a table of recent requests (RR table): offset
``O`` earns a point whenever the current demand line minus ``O`` is found
in the RR table, i.e. a prefetch at offset ``O`` issued back then would
have been timely.  A learning round ends when some offset reaches
``SCORE_MAX`` or every offset has been tested ``ROUND_MAX`` times, and the
best-scoring offset becomes the prefetch offset for the next round.  A
best score below ``BAD_SCORE`` turns prefetching off for the round.
"""

from __future__ import annotations

from typing import List

from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate

#: Michaud's offset list: positive integers <= 256 whose prime
#: factorization contains only 2, 3 and 5.
DEFAULT_OFFSETS = [
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32,
    36, 40, 45, 48, 50, 54, 60, 64, 72, 75, 80, 81, 90, 96, 100, 108,
    120, 125, 128, 135, 144, 150, 160, 162, 180, 192, 200, 216, 225,
    240, 243, 250, 256,
]


class BestOffsetPrefetcher(BasePrefetcher):
    """Best-Offset prefetching with the standard DPC2 parameters."""

    name = "bo"
    SCORE_MAX = 31
    ROUND_MAX = 100
    BAD_SCORE = 10

    def __init__(
        self,
        degree: int = 1,
        offsets: List[int] = None,
        rr_table_bits: int = 8,
    ):
        super().__init__(degree)
        self.offsets = list(offsets) if offsets is not None else list(DEFAULT_OFFSETS)
        self.rr_size = 1 << rr_table_bits
        self._rr_table = [-1] * self.rr_size
        self._scores = [0] * len(self.offsets)
        self._test_index = 0
        self._round = 0
        self.best_offset = 1
        self.prefetching_on = True

    # -- learning ----------------------------------------------------------
    #
    # The RR table is a direct-mapped array of lines indexed by
    # ``(line ^ (line >> 8)) & (rr_size - 1)``; observe() probes and
    # inserts inline (it runs on every L2-stream event).

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        rr_table = self._rr_table
        rr_mask = self.rr_size - 1
        # Learning: test one offset per event, round-robin.
        index = self._test_index
        base = line - self.offsets[index]
        if rr_table[(base ^ (base >> 8)) & rr_mask] == base:
            self._scores[index] += 1
            if self._scores[index] >= self.SCORE_MAX:
                self._end_round()
        self._test_index += 1
        if self._test_index >= len(self.offsets):
            self._test_index = 0
            self._round += 1
            if self._round >= self.ROUND_MAX:
                self._end_round()

        # The line just requested becomes a "recent request" that future
        # offset tests can match against.  (Michaud inserts line - D on
        # fill completion; with our zero-latency fills this reduces to
        # inserting the line itself.)
        rr_table[(line ^ (line >> 8)) & rr_mask] = line

        if not self.prefetching_on:
            return []
        step = self.best_offset
        return [
            PrefetchCandidate(line + step * i, None, self)
            for i in range(1, self.degree + 1)
        ]

    def _end_round(self) -> None:
        best_idx = max(range(len(self.offsets)), key=lambda i: self._scores[i])
        best_score = self._scores[best_idx]
        self.best_offset = self.offsets[best_idx]
        self.prefetching_on = best_score >= self.BAD_SCORE
        self._scores = [0] * len(self.offsets)
        self._test_index = 0
        self._round = 0
