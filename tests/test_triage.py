"""Unit tests for the Triage prefetcher itself."""

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.memory.hierarchy import DRAM_FILL, L2_HIT
from repro.prefetchers.base import PrefetchCandidate

KB = 1024


def make(capacity=64 * KB, **kw):
    return TriagePrefetcher(TriageConfig(metadata_capacity=capacity, **kw))


def feed(pf, pc, lines):
    return [[c.line for c in pf.observe(pc, line)] for line in lines]


def test_learns_pc_localized_pairs():
    pf = make()
    chain = [10, 500, 3, 42]
    feed(pf, 0xA, chain)
    results = feed(pf, 0xA, chain)
    assert results[0] == [500]
    assert results[1] == [3]
    assert results[2] == [42]


def test_interleaved_pcs_do_not_corrupt_each_other():
    pf = make()
    a, b = [1, 2, 3], [100, 200, 300]
    for x, y in zip(a, b):
        pf.observe(0xA, x)
        pf.observe(0xB, y)
    assert feed(pf, 0xA, [1])[-1] == [2]
    assert feed(pf, 0xB, [100])[-1] == [200]


def test_degree_chains_lookups():
    pf = make(degree=3)
    chain = [10, 20, 30, 40, 50]
    feed(pf, 0xA, chain)
    result = feed(pf, 0xA, [10])[-1]
    assert result == [20, 30, 40]


def test_degree_chain_stops_at_hole():
    pf = make(degree=4)
    feed(pf, 0xA, [10, 20, 30])
    assert feed(pf, 0xA, [20])[-1] == [30]


def test_pc_localization_off_uses_global_stream():
    pf = make(pc_localized=False)
    pf.observe(0xA, 1)
    pf.observe(0xB, 2)  # different PC, but global stream pairs (1, 2)
    assert feed(pf, 0xC, [1])[-1] == [2]


def test_confidence_off_overwrites_immediately():
    pf = make(use_confidence=False)
    feed(pf, 0xA, [1, 2])
    pf.observe(0xA, 1)
    pf.observe(0xA, 99)
    assert feed(pf, 0xA, [1])[-1] == [99]


def test_confidence_on_needs_two_disagreements():
    pf = make()
    feed(pf, 0xA, [1, 2])
    pf.observe(0xA, 1)
    pf.observe(0xA, 99)
    assert feed(pf, 0xA, [1])[-1] == [2]  # still protected


def test_feedback_trains_only_nonredundant():
    pf = make()
    # Trigger 0 maps to metadata set 0, which is always a sampled set.
    feed(pf, 0xA, [0, 2])
    candidates = pf.observe(0xA, 0)
    assert len(candidates) == 1
    policy = pf.store._policy
    before = sum(s.accesses for s in policy._samplers.values())
    pf.feedback(candidates[0], L2_HIT)
    assert sum(s.accesses for s in policy._samplers.values()) == before
    pf.feedback(candidates[0], DRAM_FILL)
    assert sum(s.accesses for s in policy._samplers.values()) == before + 1


def test_dynamic_partition_callback_fires():
    changes = []
    config = TriageConfig(
        dynamic=True,
        capacities=(0, 8 * KB, 16 * KB),
        epoch_accesses=200,
        partition_start=2,
        partition_warmup_epochs=0,
    )
    pf = TriagePrefetcher(config, on_partition_change=changes.append)
    # Pure compulsory stream: controller should shrink the store.
    for line in range(2000):
        pf.observe(0xA, line)
    assert changes, "expected at least one partition change"
    assert changes[-1] in (0, 8 * KB)
    assert pf.metadata_capacity_bytes == changes[-1]


def test_static_config_has_no_controller():
    pf = make()
    assert pf.controller is None
    assert pf.metadata_capacity_bytes == 64 * KB


def test_candidate_context_carries_trigger():
    pf = make()
    feed(pf, 0xA, [7, 8])
    candidate = pf.observe(0xA, 7)[0]
    assert isinstance(candidate, PrefetchCandidate)
    trigger, stream_pc = candidate.context
    assert trigger == 7
    assert stream_pc == 0xA


def test_metadata_llc_accesses_grow_with_degree():
    pf1 = make(degree=1)
    pf8 = make(degree=8)
    chain = list(range(100, 200))
    for pf in (pf1, pf8):
        feed(pf, 0xA, chain)
        feed(pf, 0xA, chain)
    assert pf8.store.llc_accesses > pf1.store.llc_accesses
