"""Common prefetcher interface.

The simulation engine feeds each prefetcher the L2 access stream through
:meth:`BasePrefetcher.observe` and issues the returned candidates into the
hierarchy.  After issuing, the engine reports where each prefetch was
satisfied via :meth:`BasePrefetcher.feedback` -- Triage uses this to delay
its Hawkeye training until it knows whether a prefetch was redundant
(paper Section 3: "the policy is trained positively only when the metadata
yields a prefetch that misses in the cache").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional


@dataclass(slots=True)
class PrefetchCandidate:
    """A prefetch the engine should try to issue.

    ``context`` is opaque state the prefetcher wants echoed back through
    :meth:`BasePrefetcher.feedback`; ``owner`` lets hybrid prefetchers
    route feedback to the component that generated the candidate.
    """

    line: int
    context: Any = None
    owner: Optional["BasePrefetcher"] = None


class BasePrefetcher:
    """Base class: a prefetcher that observes the L2 access stream."""

    name = "base"
    #: True when the prefetcher queues off-chip metadata bytes for
    #: :meth:`drain_metadata_traffic`; the engines drain only then.
    offchip_metadata = False

    def __init__(self, degree: int = 1):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        #: Bytes of off-chip metadata traffic generated since the last
        #: :meth:`drain_metadata_traffic` call (MISB uses this and sets
        #: :attr:`offchip_metadata`; on-chip prefetchers leave it at zero).
        self.pending_metadata_bytes = 0
        #: Off-chip metadata accesses, for the energy model.
        self.metadata_dram_accesses = 0

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        """Consume one L2-stream event; return prefetch candidates.

        ``prefetch_hit`` distinguishes the "demand hit on a prefetched
        line" events from genuine L2 misses.
        """
        raise NotImplementedError

    def feedback(self, candidate: PrefetchCandidate, source: str) -> None:
        """Learn where an issued candidate was satisfied.

        ``source`` is ``"redundant"`` (already in L2), ``"llc"`` or
        ``"dram"`` -- the return value of ``CacheHierarchy.prefetch``.
        """

    @property
    def wants_feedback(self) -> bool:
        """False when :meth:`feedback` is the base no-op, so the engines
        can skip the call."""
        return type(self).feedback is not BasePrefetcher.feedback

    def epoch_tick(self) -> None:
        """Hook called periodically by the engine (partition updates etc.)."""

    def drain_metadata_traffic(self) -> int:
        """Return and reset bytes of off-chip metadata traffic."""
        nbytes = self.pending_metadata_bytes
        self.pending_metadata_bytes = 0
        return nbytes

    def candidates(self, lines: List[int], context: Any = None) -> List[PrefetchCandidate]:
        """Helper: wrap raw line addresses as candidates owned by ``self``."""
        return [PrefetchCandidate(line, context, self) for line in lines]
