"""Triage's on-chip metadata store.

The store lives in a way-partitioned slice of the LLC and maps a trigger
line address to its PC-localized successor.  Entries are 4 bytes: the
compressed tag of the trigger (its set_id is implicit), the compressed
tag + set_id of the successor, and a 1-bit confidence counter (paper
Section 3.2).  Sixteen tagged entries pack into one 64 B LLC line, so the
store behaves as a set-associative structure with 16-entry sets indexed
by the trigger address -- exactly how this class is organized.

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

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.compressed_tags import CompressedTagTable
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


@dataclass(slots=True)
class MetadataEntry:
    """One correlation: ``trigger``'s PC-localized successor."""

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
        #: Near-level index (non-uniform mode): trigger -> resident
        #: entry, LRU-bounded.  Entries are shared objects with the far
        #: array, so in-place confidence/successor updates stay coherent;
        #: eviction and resize invalidate near copies explicitly.
        self._near: "OrderedDict[int, MetadataEntry]" = OrderedDict()
        self._near_capacity = near_entries if index_mode == "nonuniform" else 0
        #: Hawkeye's PC predictor; persists across resizes.
        self.predictor = HawkeyePredictor()
        self.tag_table = CompressedTagTable(tag_bits) if use_compressed_tags else None
        self.track_reuse = track_reuse
        self.reuse_counts: Dict[int, int] = {}
        # Stats.
        self.lookups = 0
        self.lookup_hits = 0
        self.updates = 0
        self.inserts = 0
        self.evictions = 0
        #: Updates whose successor agreed/conflicted with the stored one;
        #: their ratio estimates pair stability (prefetch accuracy).
        self.update_agreements = 0
        self.update_conflicts = 0
        self.llc_accesses = 0  # energy model: each lookup/update touches LLC
        #: Lookups served by the near index level (non-uniform mode only);
        #: these are *not* counted into ``llc_accesses``.
        self.near_hits = 0
        self.unbounded = capacity_bytes is None
        self.capacity_bytes = 0
        self.num_sets = 0
        #: trigger -> resident entry, for bounded and unbounded stores alike.
        self._entries: Dict[int, MetadataEntry] = {}
        #: Bounded stores: set index -> its entries in way order, created
        #: on the set's first install.  Entries leave a set only by
        #: eviction-and-replace, never one at a time, so a row's length is
        #: both its occupancy and its lowest free way.
        self._rows: Dict[int, List[MetadataEntry]] = {}
        self._policy: Optional[ReplacementPolicy] = None
        #: The policy, when it is a sampling Hawkeye, and its sampled-set
        #: stride (hot-path shortcuts, refreshed by :meth:`resize`).
        self._hawkeye: Optional[HawkeyePolicy] = None
        self._sample_stride = 1
        if not self.unbounded:
            self.resize(capacity_bytes)

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
        old_entries = self.entries()
        self.capacity_bytes = capacity_bytes
        self._near.clear()  # near copies would go stale across re-indexing
        self.num_sets = _floor_pow2(capacity_bytes // (ENTRY_BYTES * ENTRIES_PER_LINE))
        self._entries = {}
        self._rows = {}
        self._policy = None
        self._hawkeye = None
        if self.num_sets == 0:
            return
        if self.policy_name == "hawkeye":
            self._policy = self._hawkeye = HawkeyePolicy(
                self.num_sets,
                ENTRIES_PER_LINE,
                predictor=self.predictor,
                auto_observe=False,
            )
            self._sample_stride = self._hawkeye.sample_stride
        elif self.policy_name == "lru":
            self._policy = LruPolicy(self.num_sets, ENTRIES_PER_LINE)
        elif self.policy_name == "reuse":
            self._policy = ReuseAwarePolicy(self.num_sets, ENTRIES_PER_LINE)
        else:
            raise ValueError(f"unsupported metadata policy {self.policy_name!r}")
        # Survivors arrive in set-then-way order; each takes its new set's
        # lowest free way while one is left.
        mask = self.num_sets - 1
        for entry in old_entries:
            set_idx = entry.trigger & mask
            row = self._rows.setdefault(set_idx, [])
            if len(row) < ENTRIES_PER_LINE:
                entry.way = len(row)
                row.append(entry)
                self._entries[entry.trigger] = entry
                self._policy.on_fill(set_idx, entry.way, 0)

    # -- operations ----------------------------------------------------------

    def lookup(self, trigger: int, pc: int = 0) -> Optional[int]:
        """Probe the store; return the predicted successor line or None.

        Updates per-entry replacement state on hits (the paper probes the
        replacement predictors on every metadata access) but does NOT feed
        the Hawkeye sampler -- the owner decides that after learning
        whether the resulting prefetch was redundant.

        In non-uniform index mode the near level is probed first: a near
        hit is served without charging an LLC access or touching the far
        replacement state (Trimma's cheap hot-path level).
        """
        self.lookups += 1
        entry = self._near.get(trigger) if self._near_capacity else None
        if entry is not None:
            self._near.move_to_end(trigger)
            self.near_hits += 1
        else:
            self.llc_accesses += 1
            entry = self._entries.get(trigger)
            if entry is None:
                return None
            policy = self._policy
            if policy is not None:
                policy.on_hit(trigger & (self.num_sets - 1), entry.way, pc)
            if self._near_capacity:
                self._near_insert(entry)
        self.lookup_hits += 1
        if self.track_reuse:
            self.reuse_counts[trigger] = self.reuse_counts.get(trigger, 0) + 1
        tag = entry.next_compact
        if self.tag_table is not None:
            tag = self.tag_table.expand(tag)
            if tag is None:
                return None  # compressed tag recycled away
        return tag << SET_ID_BITS | entry.next_set_id

    def update(self, trigger: int, next_line: int, pc: int = 0) -> None:
        """Learn/refresh the correlation ``trigger -> next_line``.

        Existing entries follow the 1-bit confidence discipline: matching
        neighbors re-arm the counter, a first disagreement only drops it,
        and the neighbor is replaced when confidence is already 0.
        """
        self.updates += 1
        self.llc_accesses += 1
        # The successor's tag is compressed even when nothing is stored:
        # the table's LRU order is part of the model.
        set_id = next_line & SET_ID_MASK
        compact = next_line >> SET_ID_BITS
        if self.tag_table is not None:
            compact = self.tag_table.compress(compact)
        entries = self._entries
        entry = entries.get(trigger)
        if entry is None:
            if self.unbounded:
                entries[trigger] = MetadataEntry(trigger, compact, set_id)
                self.inserts += 1
                return
            num_sets = self.num_sets
            if not num_sets:
                return  # zero-capacity store: metadata is discarded
            set_idx = trigger & (num_sets - 1)
            row = self._rows.get(set_idx)
            if row is None:
                row = self._rows[set_idx] = []
            way = len(row)
            policy = self._policy
            entry = MetadataEntry(trigger, compact, set_id, 1, way)
            if way < ENTRIES_PER_LINE:
                row.append(entry)
            else:
                way = entry.way = policy.victim(set_idx, pc)
                victim = row[way]
                del entries[victim.trigger]
                self._near.pop(victim.trigger, None)  # drop stale near copy
                policy.on_evict(set_idx, way)
                self.evictions += 1
                row[way] = entry
            entries[trigger] = entry
            policy.on_fill(set_idx, way, pc)
            self.inserts += 1
        elif entry.next_compact == compact and entry.next_set_id == set_id:
            self.update_agreements += 1
            entry.confidence = 1
        elif entry.confidence > 0:
            self.update_conflicts += 1
            entry.confidence = 0
        else:
            self.update_conflicts += 1
            entry.next_compact = compact
            entry.next_set_id = set_id
            entry.confidence = 1
        hawkeye = self._hawkeye
        if hawkeye is not None:
            set_idx = trigger & (self.num_sets - 1)
            if not set_idx % self._sample_stride:
                hawkeye.observe(set_idx, trigger, pc)

    def observe_access(self, trigger: int, pc: int) -> None:
        """Feed one metadata access to the Hawkeye sampler (if active)."""
        hawkeye = self._hawkeye
        if hawkeye is not None:
            set_idx = trigger & (self.num_sets - 1)
            if not set_idx % self._sample_stride:
                hawkeye.observe(set_idx, trigger, pc)

    def record_prefetch_outcome(self, trigger: int, pc: int, redundant: bool) -> None:
        """Delayed training: count the metadata access behind a prefetch.

        Redundant prefetches (the line was already cached) are ignored so
        the replacement policy only values metadata that produces real
        memory-level benefit (paper Section 3).
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
        """All resident entries, in set-then-way order for a bounded store."""
        if self.unbounded:
            return list(self._entries.values())
        rows = self._rows
        return [entry for set_idx in sorted(rows) for entry in rows[set_idx]]

    # -- internals -----------------------------------------------------------

    def _near_insert(self, entry: MetadataEntry) -> None:
        """Refresh ``entry`` into the LRU-bounded near index level."""
        self._near[entry.trigger] = entry
        self._near.move_to_end(entry.trigger)
        if len(self._near) > self._near_capacity:
            self._near.popitem(last=False)

    def _find(self, trigger: int) -> Optional[MetadataEntry]:
        return self._entries.get(trigger)
