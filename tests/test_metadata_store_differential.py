"""Differential test: :class:`MetadataStore` against a per-set reference.

The reference below is the metadata store as it stood before the store
and its replacement policies dropped their per-set preallocation: fixed
way arrays per set, one ``trigger -> way`` dict per set, a descending
free-way stack per set, policies holding one list per set, and a
separate compressed-tag table.  Random ``update`` / ``lookup`` /
``observe_access`` / ``resize`` sequences on 1-4 set stores must give
the same lookups, occupancy, eviction count, counters and ``entries()``
order under every metadata policy.
Small stores keep every set sampled by Hawkeye, so OPTgen training,
friendly/averse insertion and victim detraining all take part.

Sequences are long (100-250 steps) so that most of them overflow a
set.  Shrinking a failure that long took minutes and hundreds of MB on
a broken store, so a failure is reported as first found, unshrunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from hypothesis import Phase, given, settings, strategies as st

from repro.core.metadata_store import MetadataStore
from repro.replacement.hawkeye import HawkeyePredictor
from repro.replacement.optgen import OptGen

ENTRY_BYTES = 4
ENTRIES_PER_LINE = 16
SET_ID_BITS = 11
MAX_RRPV = 7
REUSE_CAP = 3


# -- reference tag table --------------------------------------------------------


class RefTags:
    """Tag -> small id with LRU id recycling, as a class of its own."""

    def __init__(self, bits):
        self.capacity = 1 << bits
        self._tag_to_id: Dict[int, int] = {}
        self._id_to_tag: Dict[int, int] = {}
        self._next_id = 0

    def compress(self, tag):
        compact = self._tag_to_id.pop(tag, None)
        if compact is not None:
            self._tag_to_id[tag] = compact
            return compact
        if len(self._tag_to_id) < self.capacity:
            compact = self._next_id
            self._next_id += 1
        else:
            compact = self._tag_to_id.pop(next(iter(self._tag_to_id)))
            del self._id_to_tag[compact]
        self._tag_to_id[tag] = compact
        self._id_to_tag[compact] = tag
        return compact

    def expand(self, compact):
        return self._id_to_tag.get(compact)


# -- reference policies (one list per set) -------------------------------------


class RefHawkeye:
    def __init__(self, num_sets, num_ways, predictor, target_sampled_sets=64,
                 history_mult=8):
        self.num_ways = num_ways
        self.predictor = predictor
        self._rrpv = [[MAX_RRPV] * num_ways for _ in range(num_sets)]
        self._line_pc = [[0] * num_ways for _ in range(num_sets)]
        stride = max(1, num_sets // target_sampled_sets)
        self._samplers = {
            s: OptGen(num_ways, history_mult) for s in range(0, num_sets, stride)
        }
        self._sampler_last_pc = {s: {} for s in self._samplers}

    def observe(self, set_idx, key, pc):
        optgen = self._samplers.get(set_idx)
        if optgen is None:
            return
        last_pcs = self._sampler_last_pc[set_idx]
        verdict = optgen.access(key)
        if verdict is not None:
            self.predictor.train(last_pcs.get(key, pc), verdict)
        last_pcs[key] = pc
        if len(last_pcs) > 8 * optgen.window:
            last_pcs.clear()

    def on_hit(self, set_idx, way, pc=None):
        pc = pc or 0
        self._line_pc[set_idx][way] = pc
        self._rrpv[set_idx][way] = 0 if self.predictor.predict(pc) else MAX_RRPV

    def on_fill(self, set_idx, way, pc=None):
        pc = pc or 0
        self._line_pc[set_idx][way] = pc
        if self.predictor.predict(pc):
            row = self._rrpv[set_idx]
            for w in range(len(row)):
                if w != way and row[w] < MAX_RRPV - 1:
                    row[w] += 1
            row[way] = 0
        else:
            self._rrpv[set_idx][way] = MAX_RRPV

    def on_evict(self, set_idx, way):
        self._rrpv[set_idx][way] = MAX_RRPV

    def victim(self, set_idx, pc=None):
        row = self._rrpv[set_idx]
        best = row.index(max(row))
        if row[best] < MAX_RRPV:
            self.predictor.train(self._line_pc[set_idx][best], False)
        return best


class RefLru:
    def __init__(self, num_sets, num_ways):
        self._clock = 0
        self._last_touch = [[-1] * num_ways for _ in range(num_sets)]

    def on_hit(self, set_idx, way, pc=None):
        self._clock += 1
        self._last_touch[set_idx][way] = self._clock

    on_fill = on_hit

    def on_evict(self, set_idx, way):
        self._last_touch[set_idx][way] = -1

    def victim(self, set_idx, pc=None):
        touches = self._last_touch[set_idx]
        return touches.index(min(touches))


class RefReuse:
    def __init__(self, num_sets, num_ways):
        self.num_ways = num_ways
        self._clock = 0
        self._reuse = [[0] * num_ways for _ in range(num_sets)]
        self._last_touch = [[-1] * num_ways for _ in range(num_sets)]

    def on_hit(self, set_idx, way, pc=None):
        self._clock += 1
        self._last_touch[set_idx][way] = self._clock
        reuse = self._reuse[set_idx]
        if reuse[way] < REUSE_CAP:
            reuse[way] += 1

    def on_fill(self, set_idx, way, pc=None):
        self._clock += 1
        self._last_touch[set_idx][way] = self._clock
        self._reuse[set_idx][way] = 0

    def on_evict(self, set_idx, way):
        self._last_touch[set_idx][way] = -1
        self._reuse[set_idx][way] = 0

    def victim(self, set_idx, pc=None):
        reuse = self._reuse[set_idx]
        touches = self._last_touch[set_idx]
        scores = [(reuse[w], touches[w]) for w in range(self.num_ways)]
        return scores.index(min(scores))


# -- reference store (uniform index, bounded) ----------------------------------


@dataclass
class RefEntry:
    trigger: int
    next_compact: int
    next_set_id: int
    confidence: int = 1


class RefStore:
    def __init__(self, capacity_bytes, policy, tag_bits):
        self.policy_name = policy
        self._predictor = HawkeyePredictor()
        self.tag_table = RefTags(tag_bits)
        self.lookups = self.lookup_hits = self.updates = self.llc_accesses = 0
        self.inserts = self.evictions = 0
        self.capacity_bytes = 0
        self.num_sets = 0
        self._ways: List[List[Optional[RefEntry]]] = []
        self._index: List[Dict[int, int]] = []
        self._free: List[List[int]] = []
        self._policy = None
        self._hawkeye = None
        self.resize(capacity_bytes)

    def resize(self, capacity_bytes):
        old_entries = [e for ways in self._ways for e in ways if e is not None]
        self.capacity_bytes = capacity_bytes
        n = capacity_bytes // (ENTRY_BYTES * ENTRIES_PER_LINE)
        self.num_sets = 1 << (n.bit_length() - 1) if n > 0 else 0
        self._ways = [[None] * ENTRIES_PER_LINE for _ in range(self.num_sets)]
        self._index = [dict() for _ in range(self.num_sets)]
        self._free = [
            list(range(ENTRIES_PER_LINE - 1, -1, -1)) for _ in range(self.num_sets)
        ]
        if self.num_sets == 0:
            self._policy = self._hawkeye = None
            return
        if self.policy_name == "hawkeye":
            self._policy = RefHawkeye(self.num_sets, ENTRIES_PER_LINE, self._predictor)
            self._hawkeye = self._policy
        else:
            cls = RefLru if self.policy_name == "lru" else RefReuse
            self._policy = cls(self.num_sets, ENTRIES_PER_LINE)
            self._hawkeye = None
        for entry in old_entries:
            if len(self._index[entry.trigger & (self.num_sets - 1)]) < ENTRIES_PER_LINE:
                self._install(entry, pc=0)

    def _decode(self, entry):
        tag = self.tag_table.expand(entry.next_compact)
        if tag is None:
            return None
        return (tag << SET_ID_BITS) | entry.next_set_id

    def lookup(self, trigger, pc=0):
        self.lookups += 1
        self.llc_accesses += 1
        if self.num_sets == 0:
            return None
        set_idx = trigger & (self.num_sets - 1)
        way = self._index[set_idx].get(trigger)
        if way is None:
            self.observe_access(trigger, pc)  # a miss trains the sampler
            return None
        entry = self._ways[set_idx][way]
        self.lookup_hits += 1
        self._policy.on_hit(set_idx, way, pc)
        return self._decode(entry)

    def update(self, trigger, next_line, pc=0):
        self.updates += 1
        self.llc_accesses += 1
        set_id = next_line & ((1 << SET_ID_BITS) - 1)
        compact = self.tag_table.compress(next_line >> SET_ID_BITS)
        entry = self._find(trigger)
        if entry is not None:
            if entry.next_compact == compact and entry.next_set_id == set_id:
                entry.confidence = 1
            elif entry.confidence > 0:
                entry.confidence = 0
            else:
                entry.next_compact = compact
                entry.next_set_id = set_id
                entry.confidence = 1
            self.observe_access(trigger, pc)
            return
        if self.num_sets == 0:
            return
        self._install(RefEntry(trigger, compact, set_id), pc)
        self.inserts += 1
        self.observe_access(trigger, pc)

    def observe_access(self, trigger, pc):
        if self._hawkeye is not None:
            self._hawkeye.observe(trigger & (self.num_sets - 1), trigger, pc)

    def occupancy(self):
        return sum(len(index) for index in self._index)

    def entries(self):
        return [e for ways in self._ways for e in ways if e is not None]

    def _find(self, trigger):
        if self.num_sets == 0:
            return None
        set_idx = trigger & (self.num_sets - 1)
        way = self._index[set_idx].get(trigger)
        return self._ways[set_idx][way] if way is not None else None

    def _install(self, entry, pc):
        set_idx = entry.trigger & (self.num_sets - 1)
        ways, index, free = (
            self._ways[set_idx], self._index[set_idx], self._free[set_idx]
        )
        if free:
            way = free.pop()
        else:
            way = self._policy.victim(set_idx, pc)
            del index[ways[way].trigger]
            self._policy.on_evict(set_idx, way)
            self.evictions += 1
        ways[way] = entry
        index[entry.trigger] = way
        self._policy.on_fill(set_idx, way, pc)


# -- the differential test -------------------------------------------------------

#: 1, 2 and 4 sets of 16 entries, plus the empty store.
CAPACITIES = (0, 64, 128, 256)

_ops = st.tuples(
    st.sampled_from(["update"] * 5 + ["lookup", "lookup", "observe", "resize"]),
    # trigger = slot * 4 + set_pick: 18 triggers per set, most of them in
    # set 0, so short sequences already overflow a 16-entry set.
    st.integers(min_value=0, max_value=17),
    st.sampled_from([0, 0, 0, 0, 0, 1, 2, 3]),
    st.integers(min_value=0, max_value=1 << 14),  # successor line
    st.integers(min_value=0, max_value=3),  # pc
    st.booleans(),  # redundant (observe) / capacity pick (resize)
)


def _entry_view(entries):
    return [(e.trigger, e.next_compact, e.next_set_id, e.confidence) for e in entries]


@settings(
    max_examples=50,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(
    st.sampled_from(["hawkeye", "lru", "reuse"]),
    st.sampled_from(CAPACITIES[1:]),
    st.sampled_from([2, 10]),
    st.lists(_ops, min_size=100, max_size=250),
)
def test_store_matches_per_set_reference(policy, capacity, tag_bits, ops):
    store = MetadataStore(capacity_bytes=capacity, policy=policy, tag_bits=tag_bits)
    ref = RefStore(capacity, policy, tag_bits)
    for op, slot, set_pick, next_line, pc, flag in ops:
        trigger = slot * 4 + set_pick
        if op == "update":
            store.update(trigger, next_line, pc)
            ref.update(trigger, next_line, pc)
        elif op == "lookup":
            assert store.lookup(trigger, pc) == ref.lookup(trigger, pc)
        elif op == "observe":
            # As Triage feeds the sampler after a hit: only for a prefetch
            # that was not redundant (``flag`` false).
            if not flag:
                store.observe_access(trigger, pc)
                ref.observe_access(trigger, pc)
        else:
            new = CAPACITIES[(slot + flag) % len(CAPACITIES)]
            store.resize(new)
            ref.resize(new)
        assert store.num_sets == ref.num_sets
        assert store.occupancy() == ref.occupancy()
        assert store.evictions == ref.evictions
        assert _entry_view(store.entries()) == _entry_view(ref.entries())
    assert (
        store.lookups, store.lookup_hits, store.updates, store.inserts, store.llc_accesses,
    ) == (ref.lookups, ref.lookup_hits, ref.updates, ref.inserts, ref.llc_accesses)
    assert store.predictor._counters == ref._predictor._counters
