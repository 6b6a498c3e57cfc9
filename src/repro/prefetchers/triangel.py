"""The Triangel prefetcher family (arXiv 2406.10627).

Triangel is the direct successor of Triage: a PC-localized temporal
prefetcher whose metadata lives entirely on chip.  It keeps Triage's
skeleton -- the :class:`~repro.core.training_unit.TrainingUnit` pairs
consecutive accesses by the same PC, the
:class:`~repro.core.metadata_store.MetadataStore` holds the resulting
correlations in a way-partitioned LLC slice -- and adds three mechanisms
that attack Triage's three weaknesses:

* **Sample Table** (accuracy): a small set-associative table samples
  (trigger, PC, successor) triples from the training stream and measures,
  per PC, whether its address pairs actually *repeat*.  PCs whose pairs
  churn never earn new metadata entries, so noisy streams stop evicting
  useful correlations.  Per-PC pattern confidence is a saturating counter
  that starts at the allocation threshold (new PCs are trusted until the
  samples prove otherwise).
* **Multi-step lookahead** (timeliness): the issue walk advances
  ``lookahead - 1 + degree`` hops down the successor chain, issuing
  every line it visits -- so prefetches run ahead of the demand stream
  instead of racing it one successor at a time.  (Triangel proper skips
  the near successors it believes are already in flight; our fill model
  is latency-free, so skipping buys nothing and the runahead depth is
  what pays: chains ramp ``lookahead`` lines per trigger instead of
  one.)  Every hop is still a metadata access and is charged to the LLC
  like Triage's degree walk.  Within one walk a line is never issued
  twice (chain loops terminate the walk), so lookahead depth cannot
  emit duplicate in-flight prefetches.
* **Reuse-aware metadata replacement** (on-chip budget): the metadata
  store runs :class:`~repro.replacement.reuse_aware.ReuseAwarePolicy`,
  which evicts never-reused entries before proven ones -- Triangel's
  answer to Hawkeye's sampler for the metadata budget.

**Degeneracy contract** (guarded by the differential tests): with
``sampling=False``, ``lookahead=1``, ``degree=1`` and the same
``replacement`` policy, a Triangel instance issues a bit-identical
prefetch stream to a Triage instance with the same store geometry.
This pins the shared training-unit and metadata-store plumbing: any
divergence in the degenerate configuration is a bug in the shared
layers, not a design difference.  (At ``degree > 1`` the families
intentionally differ on looping chains: Triage's walk re-issues a
revisited line, Triangel's never does.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.prefetchers.base import PrefetchCandidate

KB = 1024
MB = 1024 * KB


@dataclass
class TriangelConfig(TriageConfig):
    """Configuration for one Triangel instance.

    Inherits every Triage knob (store capacity, dynamic partitioning,
    tag compression, PC localization, ...) and adds the family's own:

    * ``lookahead`` -- extra successor-chain depth the issue walk covers
      beyond ``degree`` (1 = Triage's walk depth).
    * ``sampling`` -- enable the Sample Table's per-PC allocation gate
      (``False`` degrades training to Triage's always-allocate).
    * ``replacement`` -- defaults to ``"reuse"`` (the family's
      metadata-reuse-aware policy) instead of Triage's ``"hawkeye"``.
    """

    replacement: str = "reuse"
    #: Successor-chain depth issued per walk is ``lookahead - 1 + degree``.
    lookahead: int = 2
    #: Sample-Table gating of new metadata allocations.
    sampling: bool = True
    #: Sample Table geometry (sets x ways, LRU within a set).
    sample_sets: int = 64
    sample_ways: int = 4
    #: Only triggers with ``trigger % sample_rate == 0`` are inserted
    #: into the Sample Table on a sample miss (1 = sample everything).
    sample_rate: int = 1
    #: Saturation ceiling for the per-PC pattern-confidence counters.
    pattern_max: int = 7
    #: A PC may allocate new metadata while its confidence is at or
    #: above this; unseen PCs start exactly here (trusted until sampled).
    allocate_threshold: int = 2
    #: Bound on the per-PC confidence table (LRU-evicted beyond this).
    sample_pcs: int = 1024


#: One sampled training triple's payload: ``(pc, successor)``, meaning
#: the keyed trigger was followed by ``successor`` in ``pc``'s stream
#: when last observed.
Sample = Tuple[int, int]


class SampleTable:
    """Set-associative sample store, LRU-replaced within each set.

    Keys are trigger line addresses.  Each set is a dict kept in recency
    order, least recent first: a hit pops and re-inserts its trigger,
    and the sample to drop is the first key.  The table is metadata
    *about* metadata: it never holds prefetch targets, only evidence of
    whether a (PC, pair) relationship repeats.
    """

    def __init__(self, num_sets: int = 64, num_ways: int = 4):
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("sample table geometry must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self._sets: List[Dict[int, Sample]] = [{} for _ in range(num_sets)]

    def update(
        self, trigger: int, pc: int, successor: int, allocate: bool
    ) -> Optional[Sample]:
        """Record ``(pc, successor)`` for ``trigger`` as its most recent
        sample and return the sample it replaced.

        A hit always refreshes; a miss inserts only when ``allocate``,
        evicting the set's least recent sample if the set is full, and
        returns ``None``.
        """
        bucket = self._sets[trigger % self.num_sets]
        sample = bucket.pop(trigger, None)
        if sample is not None:
            bucket[trigger] = (pc, successor)
        elif allocate:
            bucket[trigger] = (pc, successor)
            if len(bucket) > self.num_ways:
                del bucket[next(iter(bucket))]
        return sample

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)


class TriangelPrefetcher(TriagePrefetcher):
    """Triage's successor: sampled allocation, lookahead, reuse-aware
    replacement -- still not a byte of off-chip metadata."""

    name = "triangel"

    def __init__(self, config: Optional[TriangelConfig] = None, **kwargs):
        config = config or TriangelConfig()
        if config.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        super().__init__(config, **kwargs)
        self.sample_table = SampleTable(config.sample_sets, config.sample_ways)
        #: Per-PC pattern confidence (a dict-order LRU like the Sample
        #: Table's sets; values in ``[0, pattern_max]``, absent means
        #: ``allocate_threshold``).
        self._pattern_conf: Dict[int, int] = {}
        #: Per-PC temporal-reuse evidence (same bounds; observability
        #: only -- the allocation gate keys off pattern confidence).
        self._reuse_conf: Dict[int, int] = {}
        # Family-specific statistics.
        self.sample_hits = 0
        self.sample_pattern_matches = 0
        self.skipped_allocations = 0

    # -- prefetcher interface -------------------------------------------------

    def observe(
        self, pc: int, line: int, prefetch_hit: bool = False
    ) -> List[PrefetchCandidate]:
        stream_pc = pc if self._pc_localized else 0

        # Same data-side glue as Triage: this event is an LLC data access
        # for the utility controller's bookkeeping.
        utility = self._utility
        if utility is not None:
            utility.note_data_access(line)
            utility.usefulness = self.store.pair_stability()

        candidates = self._walk(line, stream_pc)
        self.metadata_llc_accesses = self.store.llc_accesses

        # Training: correlate with this PC's previous access, gated by
        # the Sample Table's verdict on this PC.
        prev = self.training_unit.observe(stream_pc, line)
        if prev is not None and prev != line:
            self._train(prev, line, stream_pc)

        if self._pending_capacity is not None:
            self._apply_pending_partition()
        return candidates

    # -- issue walk -----------------------------------------------------------

    def _walk(self, trigger: int, stream_pc: int) -> List[PrefetchCandidate]:
        """Walk ``lookahead - 1 + degree`` hops, issuing every visit.

        Mirrors Triage's chain walk hop for hop (each hop is a metadata
        access; a lookup miss trains the store's replacement sampler
        immediately, since a missing entry can never produce a redundant
        prefetch).  ``seen`` guards the in-flight invariant: a line is
        never emitted twice from one walk, and a chain that loops back
        onto itself terminates the walk instead of re-issuing.
        """
        store = self.store
        controller = self.controller
        candidates: List[PrefetchCandidate] = []
        seen = {trigger}  # trigger itself plus every line the walk visited
        cursor = trigger
        for _ in range(self.config.lookahead - 1 + self.degree):
            if controller is not None:
                self._note_controller_access(cursor)
            successor = store.lookup(cursor, stream_pc)
            if successor is None:
                store.observe_access(cursor, stream_pc)
                break
            if successor in seen:
                break  # chain loop: never re-issue an in-flight line
            seen.add(successor)
            candidates.append(
                PrefetchCandidate(
                    successor, context=(cursor, stream_pc), owner=self
                )
            )
            cursor = successor
        return candidates

    # -- training + sampling ---------------------------------------------------

    def _train(self, prev: int, line: int, stream_pc: int) -> None:
        """Fold one training pair into the Sample Table's evidence, then
        let the store learn it unless the PC's confidence gates it out."""
        config = self.config
        if config.sampling:
            sample = self.sample_table.update(
                prev, stream_pc, line, prev % config.sample_rate == 0
            )
            if sample is not None:
                self.sample_hits += 1
                self._bump(self._reuse_conf, stream_pc, +1)
                if sample[0] == stream_pc:
                    if sample[1] == line:
                        self.sample_pattern_matches += 1
                        self._bump(self._pattern_conf, stream_pc, +1)
                    else:
                        self._bump(self._pattern_conf, stream_pc, -1)
            # Refreshing an existing correlation is always allowed; only
            # *new* allocations are gated by the PC's sampled confidence
            # (unsampled PCs start at the threshold).
            if not self.store.contains(prev):
                conf = self._pattern_conf.get(stream_pc)
                if conf is not None and conf < config.allocate_threshold:
                    self.skipped_allocations += 1
                    return
        self._learn(prev, line, stream_pc)

    def _bump(self, table: Dict[int, int], pc: int, delta: int) -> None:
        value = table.pop(pc, None)
        if value is None:
            value = self.config.allocate_threshold
        table[pc] = max(0, min(self.config.pattern_max, value + delta))
        if len(table) > self.config.sample_pcs:
            del table[next(iter(table))]

    # -- observability ---------------------------------------------------------

    def pattern_confidence(self, pc: int) -> int:
        """This PC's current pattern confidence (threshold if unsampled)."""
        stream_pc = pc if self.config.pc_localized else 0
        conf = self._pattern_conf.get(stream_pc)
        return self.config.allocate_threshold if conf is None else conf

    def sample_stats(self) -> Dict[str, int]:
        """Sample-layer counters, for tests, reports and docs examples."""
        return {
            "sample_occupancy": self.sample_table.occupancy(),
            "sample_hits": self.sample_hits,
            "sample_pattern_matches": self.sample_pattern_matches,
            "skipped_allocations": self.skipped_allocations,
            "tracked_pcs": len(self._pattern_conf),
        }
