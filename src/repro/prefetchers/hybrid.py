"""Hybrid prefetcher: compose a regular and an irregular prefetcher.

The paper evaluates BO+Triage and BO+SMS hybrids (Figures 10/14/16/18):
both components observe every L2-stream event and both may issue.  The
hybrid deduplicates candidates (first component wins) and routes feedback
to whichever component generated each candidate, so Triage's
delayed-training discipline survives composition.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate


class HybridPrefetcher(BasePrefetcher):
    """Union of component prefetchers with per-component feedback."""

    name = "hybrid"

    def __init__(self, components: Sequence[BasePrefetcher]):
        if not components:
            raise ValueError("hybrid needs at least one component")
        super().__init__(degree=max(c.degree for c in components))
        self.components = list(components)
        self.name = "+".join(c.name for c in components)

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        seen = set()
        merged: List[PrefetchCandidate] = []
        for component in self.components:
            for candidate in component.observe(pc, line, prefetch_hit):
                if candidate.line in seen:
                    continue
                seen.add(candidate.line)
                if candidate.owner is None:
                    candidate.owner = component
                merged.append(candidate)
        return merged

    def feedback(self, candidate: PrefetchCandidate, source: int) -> None:
        owner = candidate.owner
        if owner is not None and owner is not self:
            owner.feedback(candidate, source)

    @property
    def wants_feedback(self) -> bool:
        # Engines send feedback straight to each candidate's component.
        return any(c.wants_feedback for c in self.components)

    def epoch_tick(self) -> None:
        for component in self.components:
            component.epoch_tick()

    @property
    def offchip_metadata(self) -> bool:
        return any(c.offchip_metadata for c in self.components)

    def drain_metadata_traffic(self) -> int:
        return sum(c.drain_metadata_traffic() for c in self.components)

    @property
    def total_metadata_dram_accesses(self) -> int:
        return sum(c.metadata_dram_accesses for c in self.components)
