"""Additional property-based tests: prefetcher and engine invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.metadata_store import ENTRIES_PER_LINE, WAY_MASK
from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.prefetchers.isb import IsbPrefetcher
from repro.prefetchers.stms import StmsPrefetcher
from repro.prefetchers.triangel import TriangelConfig, TriangelPrefetcher
from repro.replacement.reuse_aware import ReuseAwarePolicy
from repro.sim.queued.dram_sched import BankedDram

lines = st.integers(min_value=0, max_value=127)
streams = st.lists(st.tuples(st.integers(0, 3), lines), min_size=1, max_size=250)


@settings(max_examples=30, deadline=None)
@given(streams)
def test_isb_maps_stay_bijective(stream):
    """PS and SP must stay mutually consistent under any training."""
    pf = IsbPrefetcher()
    for pc, line in stream:
        pf.observe(pc, line)
    for line, struct in pf._ps.items():
        assert pf._sp.get(struct) == line
    for struct, line in pf._sp.items():
        assert pf._ps.get(line) == struct


@settings(max_examples=30, deadline=None)
@given(streams)
def test_triage_candidates_respect_degree(stream):
    pf = TriagePrefetcher(
        TriageConfig(degree=3, metadata_capacity=8192,
                     capacities=(0, 4096, 8192))
    )
    for pc, line in stream:
        candidates = pf.observe(pc, line)
        assert len(candidates) <= 3
        for c in candidates:
            assert c.owner is pf


@settings(max_examples=25, deadline=None)
@given(st.lists(lines, min_size=1, max_size=300))
def test_stms_candidates_come_from_history(stream):
    pf = StmsPrefetcher(degree=2)
    seen = set()
    for line in stream:
        for c in pf.observe(0, line):
            assert c.line in seen  # can only predict what it has recorded
        seen.add(line)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(lines, st.booleans()), min_size=1, max_size=200))
def test_dram_completions_monotone_per_request_time(reqs):
    """A request issued at time t always completes after t plus the
    latency floor, and the bus never time-travels."""
    dram = BankedDram()
    last_bus = 0.0
    for i, (line, is_write) in enumerate(reqs):
        now = float(i)
        done = dram.service(line, now, is_write)
        assert done >= now + dram.params.base_latency - 1e-9
        assert dram.earliest_idle() >= last_bus
        last_bus = dram.earliest_idle()


# -- Triangel family ----------------------------------------------------------


def _assert_store_invariants(store) -> None:
    """Structural invariants of the set-associative metadata arrays."""
    assert store.occupancy() <= store.capacity_entries
    assert len(store._rows) == store.capacity_entries
    assert sum(store._fill) == store.occupancy()
    for set_idx in range(store.num_sets):
        # Each set's row holds its filled ways first and nothing after,
        # every trigger sits in its own set, its packed entry records the
        # way it holds in the row, and the trigger index maps exactly the
        # resident entries.
        row = store._rows[set_idx * ENTRIES_PER_LINE : (set_idx + 1) * ENTRIES_PER_LINE]
        filled = store._fill[set_idx]
        assert filled <= ENTRIES_PER_LINE
        assert row[filled:] == [None] * (ENTRIES_PER_LINE - filled)
        for way, trigger in enumerate(row[:filled]):
            assert trigger & (store.num_sets - 1) == set_idx
            assert store._entries[trigger] & WAY_MASK == way


@settings(max_examples=25, deadline=None)
@given(streams, st.integers(1, 4), st.booleans())
def test_triangel_streams_never_corrupt_metadata_invariants(
    stream, lookahead, sampling
):
    """Arbitrary access streams leave the store structurally sound."""
    pf = TriangelPrefetcher(
        TriangelConfig(
            metadata_capacity=4096,
            capacities=(0, 2048, 4096),
            lookahead=lookahead,
            sampling=sampling,
            sample_sets=4,
            sample_ways=2,
        )
    )
    for pc, line in stream:
        pf.observe(pc, line)
    _assert_store_invariants(pf.store)
    assert pf.sample_table.occupancy() <= 4 * 2


@settings(max_examples=25, deadline=None)
@given(streams, st.integers(1, 4), st.integers(1, 3))
def test_triangel_lookahead_never_duplicates_inflight(stream, lookahead, degree):
    """One walk never emits the same line twice, nor its own trigger."""
    pf = TriangelPrefetcher(
        TriangelConfig(metadata_capacity=8192, capacities=(0, 4096, 8192),
                       lookahead=lookahead, degree=degree)
    )
    for pc, line in stream:
        candidates = pf.observe(pc, line)
        assert len(candidates) <= lookahead - 1 + degree
        issued = [c.line for c in candidates]
        assert len(issued) == len(set(issued))
        assert line not in issued
        for c in candidates:
            assert c.owner is pf


#: (op, set, way) events for driving a replacement policy directly.
_policy_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 7)),
    min_size=1,
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(_policy_ops, st.integers(2, 8), st.integers(2, 8))
def test_reuse_policy_resize_preserves_ordering_contract(ops, shrink_to, regrow_to):
    """PR-5 contract under resize: victims always answer from live per-way
    state (min ``(reuse, last_touch)``, lowest way on ties), shrinking
    truncates, and a later grow exposes fresh -- never stale -- state."""
    policy = ReuseAwarePolicy(2, 8)

    def check_victims():
        ways = policy.num_ways
        assert len(policy._reuse) == len(policy._last_touch) == 2 * ways
        for set_idx in range(2):
            reuse = policy._reuse[set_idx * ways : (set_idx + 1) * ways]
            touches = policy._last_touch[set_idx * ways : (set_idx + 1) * ways]
            reference = min(
                range(policy.num_ways), key=lambda w: (reuse[w], touches[w])
            )
            assert policy.victim(set_idx) == reference

    for op, set_idx, way in ops:
        way %= policy.num_ways
        if op == 0:
            policy.on_fill(set_idx, way)
        elif op == 1:
            policy.on_hit(set_idx, way)
        else:
            policy.on_evict(set_idx, way)
        check_victims()

    policy.resize_ways(shrink_to)
    check_victims()
    policy.resize_ways(regrow_to)
    check_victims()
    if regrow_to > shrink_to:
        # Re-enabled ways must come back untouched: fresh state, not the
        # pre-shrink counters resurfacing as fake reuse.
        for set_idx in range(2):
            for way in range(shrink_to, regrow_to):
                assert policy._reuse[set_idx * regrow_to + way] == 0
                assert policy._last_touch[set_idx * regrow_to + way] == -1
