"""Coverage for less-travelled paths across modules."""

import pytest

from repro.core.metadata_store import MetadataStore
from repro.core.partition import PartitionController
from repro.memory.cache import Cache
from repro.replacement.lru import LruPolicy
from repro.replacement.optgen import OptGen
from repro.workloads.base import Trace, interleave


def test_interleave_weights_hints_by_length():
    a = Trace("a", [1] * 3, [64] * 3, [False] * 3, mlp=1.0, instr_per_access=2.0)
    b = Trace("b", [2] * 1, [128], [False], mlp=5.0, instr_per_access=6.0)
    merged = interleave([a, b])
    assert merged.mlp == pytest.approx((1.0 * 3 + 5.0 * 1) / 4)
    assert merged.instr_per_access == pytest.approx((2.0 * 3 + 6.0) / 4)


def test_interleave_majority_category():
    a = Trace("a", [1] * 2, [64] * 2, [False] * 2, category="server")
    b = Trace("b", [2], [128], [False], category="regular")
    assert interleave([a, b]).category == "server"


def test_trace_head_keeps_hints():
    trace = Trace("t", [1, 2], [64, 128], [False, True], mlp=3.0,
                  instr_per_access=7.0, metadata={"k": 1})
    head = trace.head(1)
    assert head.mlp == 3.0
    assert head.instr_per_access == 7.0
    assert head.metadata == {"k": 1}


def test_optgen_prune_keeps_correctness():
    og = OptGen(2, history_mult=2)  # window 4, prune threshold small
    for i in range(200):
        og.access(i)  # floods last-access map, triggers pruning
    og.access(199)
    assert og.hits >= 1  # the most recent key still hits


def test_cache_accepts_policy_instance():
    policy = LruPolicy(16, 2)
    cache = Cache("inst", 2048, 2, policy=policy)
    assert cache.policy is policy
    cache.fill(1)
    assert cache.access(1).hit


def test_metadata_store_lru_observe_is_noop():
    store = MetadataStore(capacity_bytes=4096, policy="lru")
    store.observe_access(1, 2)  # no Hawkeye sampler: must not raise
    assert store.lookup(1, 2) is None  # nor may a miss, which feeds it


def test_partition_decision_changed_flag():
    ctl = PartitionController(
        capacities=(0, 2048, 4096), epoch_accesses=100,
        sample_shift=0, warmup_epochs=0, start_index=1,
    )
    decisions = []
    for i in range(600):
        d = ctl.note_access(i)  # no reuse: will shrink
        if d:
            decisions.append(d)
    changed = [d for d in decisions if d.changed]
    assert changed, "shrinking should be reported as a change"
    assert changed[0].capacity_bytes < 2048 or changed[0].capacity_bytes == 0


def test_store_pair_stability_bounds():
    store = MetadataStore(capacity_bytes=8192)
    assert store.pair_stability() == 1.0  # no evidence yet
    for i in range(200):
        store.update(5, 100)  # agreements
    assert store.pair_stability() == 1.0
    for i in range(400):
        store.update(5, 100 + i)  # conflicts
    assert store.pair_stability() < 0.5
