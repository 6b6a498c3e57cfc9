"""Property-based tests (hypothesis) for core data structures."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.metadata_store import ENTRIES_PER_LINE, SET_ID_BITS, MetadataStore
from repro.core.training_unit import TrainingUnit
from repro.memory.cache import Cache, LruCache
from repro.memory.hierarchy import CacheHierarchy
from repro.replacement.optgen import OptGen
from repro.sim.stats import geomean
from tests.demand import Demand

lines = st.integers(min_value=0, max_value=255)
small_streams = st.lists(lines, min_size=1, max_size=300)


@settings(max_examples=40, deadline=None)
@given(small_streams)
def test_lru_cache_matches_reference_model(stream):
    """Our Cache with LRU behaves exactly like a textbook LRU dict."""
    ways, sets = 2, 4
    cache = Cache("m", sets * ways * 64, ways, policy="lru")
    model = [OrderedDict() for _ in range(sets)]

    for line in stream:
        outcome = cache.access(line)
        set_idx = line % sets
        bucket = model[set_idx]
        model_hit = line in bucket
        assert outcome.hit == model_hit
        if model_hit:
            bucket.move_to_end(line)
        else:
            cache.fill(line)
            if len(bucket) >= ways:
                bucket.popitem(last=False)
            bucket[line] = True


#: One LruCache-vs-reference operation: (name, line, flag, kind).  ``flag``
#: is the write/dirty bit (``fetch``'s ``demand``); for
#: ``set_active_ways`` ``line`` is the new way count.
_cache_ops = st.tuples(
    st.sampled_from(
        ["access", "access", "fill", "fill", "fetch", "fetch", "invalidate",
         "mark_dirty", "set_active_ways"]
    ),
    st.integers(min_value=0, max_value=11),
    st.booleans(),
    st.sampled_from([None, "l1", "l2"]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_cache_ops, min_size=1, max_size=250))
def test_lru_cache_matches_policy_cache(ops):
    """LruCache's dict sets behave exactly like the way-based LRU Cache."""
    # Six lines per 4-way set: fills keep evicting and refilling.
    sets, ways = 2, 4
    fast = LruCache("f", sets * ways * 64, ways)
    ref = Cache("r", sets * ways * 64, ways, policy="lru")
    for op, line, flag, kind in ops:
        if op == "access":
            got, want = fast.access(line, 0, flag), ref.access(line, 0, flag)
            assert (got.hit, got.prefetch_hit) == (want.hit, want.prefetch_hit)
        elif op == "fill":
            got = fast.fill(line, 0, dirty=flag, prefetched=kind)
            assert got == ref.fill(line, 0, dirty=flag, prefetched=kind)
        elif op == "fetch":
            assert fast.fetch(line, 0, flag) == ref.fetch(line, 0, flag)
        elif op == "invalidate":
            assert fast.invalidate(line) == ref.invalidate(line)
        elif op == "mark_dirty":
            assert fast.mark_dirty(line) == ref.mark_dirty(line)
        else:
            # Shrink to any width, 0 included; grow back as often.
            n = line % (ways + 1)
            got = sorted(fast.set_active_ways(n))
            assert got == sorted(ref.set_active_ways(n))
            assert fast.active_ways == ref.active_ways == n
        assert fast.occupancy() == ref.occupancy()
        for probe in range(12):
            assert fast.contains(probe) == ref.contains(probe), (op, probe)


@settings(max_examples=40, deadline=None)
@given(small_streams)
def test_cache_occupancy_never_exceeds_capacity(stream):
    cache = Cache("m", 1024, 2)  # 8 sets x 2 ways
    for line in stream:
        if not cache.access(line).hit:
            cache.fill(line)
    assert cache.occupancy() <= 16


@settings(max_examples=30, deadline=None)
@given(small_streams, st.integers(min_value=1, max_value=8))
def test_optgen_hits_monotone_in_capacity(stream, capacity):
    small, large = OptGen(capacity), OptGen(capacity * 2)
    for key in stream:
        small.access(key)
        large.access(key)
    assert large.hits >= small.hits
    assert small.hits + small.misses + small.compulsory == len(stream)


@settings(max_examples=30, deadline=None)
@given(small_streams)
def test_optgen_never_beats_full_reuse(stream):
    og = OptGen(512)  # capacity >> working set: OPT hits every reuse
    seen = set()
    expected_hits = 0
    for key in stream:
        if key in seen:
            expected_hits += 1
        seen.add(key)
    for key in stream:
        og.access(key)
    assert og.hits == expected_hits


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_tag_table_recent_tags_roundtrip(tags):
    store = MetadataStore(capacity_bytes=None, tag_bits=6)
    for trigger, tag in enumerate(tags):
        successor = tag << SET_ID_BITS | 5
        store.update(trigger, successor)
        assert store.lookup(trigger) == successor  # fresh compressions always hold
    assert len(store._tag_ids) <= 1 << 6


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(lines, st.integers(min_value=0, max_value=1 << 20)),
        min_size=1,
        max_size=300,
    )
)
def test_metadata_store_capacity_invariant(pairs):
    store = MetadataStore(capacity_bytes=4 * ENTRIES_PER_LINE * 4)  # 4 sets
    for trigger, successor in pairs:
        store.update(trigger, successor)
    assert store.occupancy() <= store.capacity_entries
    # Every resident entry decodes to *some* line (or None if its
    # compressed tag was recycled) without raising.
    for entry in store.entries():
        store.lookup(entry.trigger)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), lines),
        min_size=1,
        max_size=200,
    )
)
def test_training_unit_matches_dict_semantics(observations):
    tu = TrainingUnit(max_pcs=1000)  # never evicts in this range
    model = {}
    for pc, line in observations:
        expected = model.get(pc)
        assert tu.observe(pc, line) == expected
        model[pc] = line
    assert len(tu) == len(model)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(lines, st.booleans()), min_size=1, max_size=200))
def test_hierarchy_conservation(accesses):
    h = CacheHierarchy(
        n_cores=1, l2_size=1024, l2_ways=2, llc_size_per_core=4096, llc_ways=4,
    )
    demand = Demand(h, l1_size=512, l1_ways=2)
    for line, is_write in accesses:
        demand(0, 1, line * 64, is_write)
    c = h.counters[0]
    assert c.accesses == len(accesses)
    assert c.accesses == c.l1_hits + c.l2_hits + c.llc_hits + c.dram_accesses
    for nbytes in h.traffic_bytes().values():
        assert nbytes % 64 == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
def test_geomean_bounded_by_extremes(values):
    g = geomean(values)
    assert min(values) <= g * 1.000001
    assert g <= max(values) * 1.000001


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**31),
    st.integers(min_value=1000, max_value=4000),
)
def test_chain_trace_properties(seed, n):
    from repro.workloads.irregular import chain_trace

    trace = chain_trace("p", n, seed, hot_lines=500, cold_lines=500)
    assert len(trace) == n
    assert all(a >= 0 and a % 64 == 0 for a in trace.addrs)
    again = chain_trace("p", n, seed, hot_lines=500, cold_lines=500)
    assert again.addrs == trace.addrs
