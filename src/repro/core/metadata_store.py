"""Triage's on-chip metadata store.

The store lives in a way-partitioned slice of the LLC and maps a trigger
line address to its PC-localized successor.  Entries are 4 bytes: the
compressed tag of the trigger (its set_id is implicit), the compressed
tag + set_id of the successor, and a 1-bit confidence counter (paper
Section 3.2).  Sixteen tagged entries pack into one 64 B LLC line, so the
store behaves as a set-associative structure with 16-entry sets indexed
by the trigger address -- exactly how this class is organized.  A
resident entry is one packed int in a ``trigger -> entry`` dict (see
``CONFIDENCE``), so installing one allocates no object.

Tag compression (paper Section 3.2): a full line address does not fit
twice in a 4-byte entry, so an entry stores its successor's *compressed
tag*, a small id (10 bits in the paper) that the store's tag table maps
to the high address bits above the set_id.  The table has ``2**tag_bits``
ids; when it runs out, the least recently used one is reassigned, and
entries still referencing it silently decompress to the new owner's
tag -- an occasional wrong prefetch, counted in ``recycled``.

Anything evicted is simply discarded: Triage has no off-chip metadata.
Replacement is the modified Hawkeye policy by default (``policy="lru"``
reproduces the paper's Figure 9 ablation, ``policy="reuse"`` is the
Triangel family's metadata-reuse-aware policy); the Hawkeye sampler is
fed by the owner (:class:`repro.core.triage.TriagePrefetcher`) so that
metadata accesses producing *redundant* prefetches never train it.

``index_mode="nonuniform"`` enables a Trimma-style (arXiv 2402.16343)
non-uniform metadata index: a small fully-associative *near* buffer in
front of the set-associative *far* array.  Hot triggers are re-resolved
from the near level without touching the far structure at all -- no LLC
access is charged and the far replacement state is not perturbed --
modeling Trimma's observation that metadata lookups are heavily skewed
and the hot subset deserves a cheaper, finer-grained index level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.replacement.base import ReplacementPolicy
from repro.replacement.hawkeye import HawkeyePolicy, HawkeyePredictor
from repro.replacement.lru import LruPolicy
from repro.replacement.reuse_aware import ReuseAwarePolicy

#: 4-byte entries, 16 per 64 B LLC line.
ENTRY_BYTES = 4
ENTRIES_PER_LINE = 16
#: Bits of the successor's set_id stored verbatim (2048-set LLC, Table 1).
SET_ID_BITS = 11
SET_ID_MASK = (1 << SET_ID_BITS) - 1
#: Near-index capacity for ``index_mode="nonuniform"`` (entries).  Small
#: by design: Trimma's point is that a tiny near level captures most
#: lookups, not that the near level competes with the far array.
NEAR_INDEX_ENTRIES = 64

#: A resident entry is one int, ``successor << 5 | confidence << 4 |
#: way``: the successor's compressed tag and set_id
#: (``compact << SET_ID_BITS | set_id``), the 1-bit confidence counter,
#: and the entry's slot within its set (0 in an unbounded store).
WAY_MASK = ENTRIES_PER_LINE - 1
CONFIDENCE = 1 << 4
SUCCESSOR_SHIFT = 5


@dataclass(slots=True)
class MetadataEntry:
    """A view of one correlation: ``trigger``'s PC-localized successor."""

    trigger: int  # trigger line address (identity within the set)
    next_compact: int  # compressed tag of the successor
    next_set_id: int  # set_id bits of the successor
    confidence: int = 1  # 1-bit counter guarding against noisy retraining
    way: int = 0  # slot within the trigger's set (bounded stores)


def _floor_pow2(n: int) -> int:
    return 1 << (n.bit_length() - 1) if n > 0 else 0


class MetadataStore:
    """Entry-granularity set-associative metadata table.

    ``capacity_bytes=None`` gives an unbounded store (the idealized
    PC-localized prefetcher of Figures 7/9); ``capacity_bytes=0`` gives a
    store where every lookup misses (the "no metadata" partition state).
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = 1024 * 1024,
        policy: str = "hawkeye",
        use_compressed_tags: bool = True,
        tag_bits: int = 10,
        track_reuse: bool = False,
        index_mode: str = "uniform",
        near_entries: int = NEAR_INDEX_ENTRIES,
    ):
        if index_mode not in ("uniform", "nonuniform"):
            raise ValueError(f"unknown index mode {index_mode!r}")
        self.policy_name = policy
        self.use_compressed_tags = use_compressed_tags
        self.tag_bits = tag_bits
        self.index_mode = index_mode
        #: Near-level index (non-uniform mode): the triggers it holds,
        #: least recently used first.  A near hit reads the entry from the
        #: far dict, so successor and confidence updates need no copy;
        #: eviction and resize drop triggers the far array no longer holds.
        self._near: Dict[int, None] = {}
        self._near_capacity = near_entries if index_mode == "nonuniform" else 0
        #: Hawkeye's PC predictor; persists across resizes.
        self.predictor = HawkeyePredictor()
        #: The tag table (None without compression): tag -> id in
        #: recency order, least recent first, and id -> tag.  Ids are
        #: handed out in order while the table has room, so the next
        #: fresh id is the table's size.
        self._tag_ids: Optional[Dict[int, int]] = None
        self._id_tags: Optional[Dict[int, int]] = None
        self._tag_capacity = 0
        if use_compressed_tags:
            if tag_bits <= 0:
                raise ValueError("tag_bits must be positive")
            self._tag_ids = {}
            self._id_tags = {}
            self._tag_capacity = 1 << tag_bits
        #: Times a tag id was reassigned to a new tag.
        self.recycled = 0
        self.track_reuse = track_reuse
        self.reuse_counts: Dict[int, int] = {}
        # Stats.
        self.lookups = 0
        self.lookup_hits = 0
        self.inserts = 0
        self.evictions = 0
        #: Updates whose successor agreed/conflicted with the stored one;
        #: their ratio estimates pair stability (prefetch accuracy).
        self.update_agreements = 0
        self.update_conflicts = 0
        #: Updates a zero-capacity store discarded.
        self.discards = 0
        #: Lookups served by the near index level (non-uniform mode only);
        #: these are *not* counted into ``llc_accesses``.
        self.near_hits = 0
        self.unbounded = capacity_bytes is None
        self.capacity_bytes = 0
        self.num_sets = 0
        #: trigger -> packed entry, for bounded and unbounded stores alike.
        self._entries: Dict[int, int] = {}
        #: Bounded stores: each set's row of triggers in way order, flat
        #: like the policies' per-way state (``set_idx * ENTRIES_PER_LINE +
        #: way``, None where free), and each set's count of filled ways.
        #: Entries leave a set only by eviction-and-replace, never one at a
        #: time, so a set's count is also its lowest free way.
        self._rows: List[Optional[int]] = []
        self._fill = bytearray()
        self._policy: Optional[ReplacementPolicy] = None
        #: Hot-path shortcuts, refreshed by :meth:`resize`: the set index
        #: mask (None without sets), and the policy when it is a sampling
        #: Hawkeye, with the mask of a trigger's bits below its sampled-set
        #: stride (a power of two, as the set count is): a trigger's set
        #: is sampled when they are all 0.
        self._set_mask: Optional[int] = None
        self._hawkeye: Optional[HawkeyePolicy] = None
        self._sample_mask = 0
        if not self.unbounded:
            self.resize(capacity_bytes)

    @property
    def updates(self) -> int:
        """Calls to :meth:`update`: each installs, agrees, conflicts or is
        discarded."""
        return self.inserts + self.update_agreements + self.update_conflicts + self.discards

    @property
    def llc_accesses(self) -> int:
        """LLC accesses, for the energy model: every lookup the near
        level did not serve, and every update."""
        return self.lookups - self.near_hits + self.updates

    # -- geometry --------------------------------------------------------

    @property
    def capacity_entries(self) -> int:
        if self.unbounded:
            raise ValueError("unbounded store has no capacity")
        return self.num_sets * ENTRIES_PER_LINE

    def resize(self, capacity_bytes: int) -> None:
        """Re-provision the store to ``capacity_bytes``.

        Surviving entries are re-inserted into the new geometry up to the
        new capacity (the paper marks lines invalid on shrink; keeping the
        most recent survivors is the generous end of that behaviour and
        changes nothing downstream because discarded metadata is
        rebuilt from the training stream within one traversal).  The
        Hawkeye predictor's learned state persists across resizes.
        """
        if self.unbounded:
            raise ValueError("cannot resize an unbounded store")
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        survivors = self._pairs()
        self.capacity_bytes = capacity_bytes
        self._near.clear()  # not every survivor may fit the new geometry
        self.num_sets = _floor_pow2(capacity_bytes // (ENTRY_BYTES * ENTRIES_PER_LINE))
        self._entries = {}
        self._rows = [None] * (self.num_sets * ENTRIES_PER_LINE)
        self._fill = bytearray(self.num_sets)
        self._policy = None
        self._set_mask = None
        self._hawkeye = None
        if self.num_sets == 0:
            return
        self._set_mask = self.num_sets - 1
        if self.policy_name == "hawkeye":
            self._policy = self._hawkeye = HawkeyePolicy(
                self.num_sets,
                ENTRIES_PER_LINE,
                predictor=self.predictor,
                auto_observe=False,
            )
            self._sample_mask = self._hawkeye.sample_stride - 1
        elif self.policy_name == "lru":
            self._policy = LruPolicy(self.num_sets, ENTRIES_PER_LINE)
        elif self.policy_name == "reuse":
            self._policy = ReuseAwarePolicy(self.num_sets, ENTRIES_PER_LINE)
        else:
            raise ValueError(f"unsupported metadata policy {self.policy_name!r}")
        # Survivors arrive in set-then-way order; each takes its new set's
        # lowest free way while one is left.
        mask = self.num_sets - 1
        fill = self._fill
        for trigger, packed in survivors:
            set_idx = trigger & mask
            way = fill[set_idx]
            if way < ENTRIES_PER_LINE:
                fill[set_idx] = way + 1
                self._rows[set_idx * ENTRIES_PER_LINE + way] = trigger
                self._entries[trigger] = packed & ~WAY_MASK | way
                self._policy.on_fill(set_idx, way, 0)

    # -- operations ----------------------------------------------------------

    def lookup(self, trigger: int, pc: int = 0) -> Optional[int]:
        """Probe the store; return the predicted successor line or None.

        Updates per-entry replacement state on hits (the paper probes the
        replacement predictors on every metadata access).  A miss feeds
        the Hawkeye sampler at once: a missing entry can never produce a
        redundant prefetch.  A hit does not -- the owner decides that
        after learning whether the resulting prefetch was redundant
        (:meth:`observe_access`).

        In non-uniform index mode the near level is probed first: a near
        hit is served without charging an LLC access or touching the far
        replacement state (Trimma's cheap hot-path level).
        """
        self.lookups += 1
        near = self._near
        if trigger in near:
            del near[trigger]  # re-insert as the most recently used
            near[trigger] = None
            self.near_hits += 1
            packed = self._entries[trigger]
        else:
            packed = self._entries.get(trigger)
            if packed is None:
                hawkeye = self._hawkeye  # observe_access, inlined
                if hawkeye is not None and not trigger & self._sample_mask:
                    hawkeye.observe(trigger & self._set_mask, trigger, pc)
                return None
            policy = self._policy
            if policy is not None:
                policy.on_hit(trigger & self._set_mask, packed & WAY_MASK, pc)
            if self._near_capacity:
                near[trigger] = None
                if len(near) > self._near_capacity:
                    del near[next(iter(near))]
        self.lookup_hits += 1
        if self.track_reuse:
            self.reuse_counts[trigger] = self.reuse_counts.get(trigger, 0) + 1
        successor = packed >> SUCCESSOR_SHIFT
        id_tags = self._id_tags
        if id_tags is None:
            return successor
        tag = id_tags.get(successor >> SET_ID_BITS)
        if tag is None:
            return None  # the id has no owner
        return tag << SET_ID_BITS | successor & SET_ID_MASK

    def update(self, trigger: int, next_line: int, pc: int = 0) -> None:
        """Learn/refresh the correlation ``trigger -> next_line``.

        Existing entries follow the 1-bit confidence discipline: matching
        neighbors re-arm the counter, a first disagreement only drops it,
        and the neighbor is replaced when confidence is already 0.
        """
        # The successor's tag is compressed even when nothing is stored:
        # the table's LRU order is part of the model.
        successor = next_line
        tag_ids = self._tag_ids
        if tag_ids is not None:
            tag = next_line >> SET_ID_BITS
            compact = tag_ids.pop(tag, None)
            if compact is None:
                if len(tag_ids) < self._tag_capacity:
                    compact = len(tag_ids)
                else:
                    # Recycle the least recently used id: stale
                    # references to it now decompress to ``tag``.
                    compact = tag_ids.pop(next(iter(tag_ids)))
                    self.recycled += 1
                self._id_tags[compact] = tag
            tag_ids[tag] = compact
            successor = compact << SET_ID_BITS | next_line & SET_ID_MASK
        entries = self._entries
        packed = entries.get(trigger)
        if packed is None:
            set_mask = self._set_mask
            if set_mask is None:
                if self.unbounded:
                    entries[trigger] = successor << SUCCESSOR_SHIFT | CONFIDENCE
                    self.inserts += 1
                else:
                    self.discards += 1  # zero-capacity store: metadata is discarded
                return
            set_idx = trigger & set_mask
            fill = self._fill
            way = fill[set_idx]
            policy = self._policy
            slot = set_idx * ENTRIES_PER_LINE
            if way < ENTRIES_PER_LINE:
                fill[set_idx] = way + 1
            else:
                way = policy.victim(set_idx, pc)
                victim = self._rows[slot + way]
                del entries[victim]
                if self._near_capacity:
                    self._near.pop(victim, None)  # near holds residents only
                policy.on_evict(set_idx, way)
                self.evictions += 1
            self._rows[slot + way] = trigger
            entries[trigger] = successor << SUCCESSOR_SHIFT | CONFIDENCE | way
            policy.on_fill(set_idx, way, pc)
            self.inserts += 1
        elif packed >> SUCCESSOR_SHIFT == successor:
            self.update_agreements += 1
            entries[trigger] = packed | CONFIDENCE
        elif packed & CONFIDENCE:
            self.update_conflicts += 1
            entries[trigger] = packed ^ CONFIDENCE
        else:
            self.update_conflicts += 1
            entries[trigger] = (
                successor << SUCCESSOR_SHIFT | CONFIDENCE | packed & WAY_MASK
            )
        hawkeye = self._hawkeye  # observe_access, inlined
        if hawkeye is not None and not trigger & self._sample_mask:
            hawkeye.observe(trigger & self._set_mask, trigger, pc)

    def overwrite(self, trigger: int, next_line: int, pc: int = 0) -> None:
        """:meth:`update` without the confidence bit's protection: a
        stored successor that differs from ``next_line`` is replaced at
        once (the confidence-off ablation)."""
        packed = self._entries.get(trigger)
        if packed is not None:
            self._entries[trigger] = packed & ~CONFIDENCE
        self.update(trigger, next_line, pc)

    def observe_access(self, trigger: int, pc: int) -> None:
        """Feed one metadata access to the Hawkeye sampler (if active)."""
        hawkeye = self._hawkeye
        if hawkeye is not None and not trigger & self._sample_mask:
            hawkeye.observe(trigger & self._set_mask, trigger, pc)

    def record_prefetch_outcome(self, trigger: int, pc: int, redundant: bool) -> None:
        """Delayed training: count the metadata access behind a prefetch.

        Redundant prefetches (the line was already cached) are ignored so
        the replacement policy only values metadata that produces real
        memory-level benefit (paper Section 3).  The prefetchers make
        that test themselves and call :meth:`observe_access`; this entry
        point stays because ``bench/layers.py`` wraps it by name.
        """
        if not redundant:
            self.observe_access(trigger, pc)

    def pair_stability(self) -> float:
        """Fraction of re-trained entries whose successor was unchanged.

        A proxy for prefetch accuracy: stable pairs produce correct
        prefetches, churning pairs produce wasted ones.  Defaults to 1.0
        before enough evidence accumulates.
        """
        total = self.update_agreements + self.update_conflicts
        return self.update_agreements / total if total >= 64 else 1.0

    def contains(self, trigger: int) -> bool:
        return trigger in self._entries

    def occupancy(self) -> int:
        return len(self._entries)

    def entries(self) -> List[MetadataEntry]:
        """Views of all resident entries, in set-then-way order for a
        bounded store."""
        return [
            MetadataEntry(
                trigger,
                packed >> SUCCESSOR_SHIFT + SET_ID_BITS,
                packed >> SUCCESSOR_SHIFT & SET_ID_MASK,
                packed >> 4 & 1,
                packed & WAY_MASK,
            )
            for trigger, packed in self._pairs()
        ]

    # -- internals -----------------------------------------------------------

    def _pairs(self) -> List[Tuple[int, int]]:
        """``(trigger, packed)`` of every resident entry, in
        :meth:`entries` order."""
        entries = self._entries
        if self.unbounded:
            return list(entries.items())
        return [
            (trigger, entries[trigger])
            for trigger in self._rows
            if trigger is not None
        ]
