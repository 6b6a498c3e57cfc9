"""Triage's Training Unit: the most recent address per load PC.

Paper Section 3.1: "The Training Unit keeps the most recently accessed
address for each PC.  When a new access B arrives for a given PC, the
Training Unit is queried for the last accessed address A by the same PC.
Addresses A and B are then considered to be correlated."

The table is finite and LRU-managed (a few hundred PCs is plenty: the L2
miss stream of a SimPoint touches far fewer hot load PCs than that).
"""

from __future__ import annotations

from typing import Dict, Optional


class TrainingUnit:
    """Bounded PC -> last-line table with LRU replacement.

    The dict is kept in recency order, least recent first: an access
    pops and re-inserts its PC, and the PC to drop is the first key.
    """

    def __init__(self, max_pcs: int = 1024):
        if max_pcs <= 0:
            raise ValueError("max_pcs must be positive")
        self.max_pcs = max_pcs
        self._last: Dict[int, int] = {}

    def observe(self, pc: int, line: int) -> Optional[int]:
        """Record ``line`` as the newest access by ``pc``.

        Returns the previous line accessed by this PC (the correlation
        partner ``A`` for the new access ``B``), or ``None`` the first time
        a PC is seen.
        """
        last = self._last
        prev = last.pop(pc, None)
        last[pc] = line
        if prev is None and len(last) > self.max_pcs:
            del last[next(iter(last))]
        return prev

    def peek(self, pc: int) -> Optional[int]:
        """Return the last line for ``pc`` without updating anything."""
        return self._last.get(pc)

    def __len__(self) -> int:
        return len(self._last)
