"""Semantics of the hierarchy's access outcome and the training-stream
contract.

``CacheHierarchy.access`` returns ``(hit_level, prefetch_hit_kind)``;
``trains_l2_prefetcher`` is the membership test the engines apply to it.
"""

from repro.memory.hierarchy import L1_HIT, CacheHierarchy, trains_l2_prefetcher


def _hierarchy():
    return CacheHierarchy(
        n_cores=1, l1_size=512, l1_ways=2, l2_size=2048, l2_ways=2,
        llc_size_per_core=8192, llc_ways=4,
    )


def test_event_training_stream_membership():
    assert trains_l2_prefetcher("llc", None)
    assert trains_l2_prefetcher("dram", None)
    assert not trains_l2_prefetcher("l1", None)
    assert not trains_l2_prefetcher("l2", None)
    assert trains_l2_prefetcher("l2", "l2")
    assert trains_l2_prefetcher("l2", "l1")
    # The same facts on outcomes the hierarchy actually returns.
    h = _hierarchy()
    h.prefetch(0, line=0x3080 >> 6, kind="l2")
    h.prefetch(0, line=0x40C0 >> 6, kind="l1")
    dram = h.access(0, 1, 0x1000)
    l1 = h.access(0, 1, 0x1000)
    l2_prefetch = h.access(0, 1, 0x3080)
    l1_prefetch = h.access(0, 1, 0x40C0)
    assert dram == ("dram", None) and trains_l2_prefetcher(*dram)
    assert l1 == L1_HIT and not trains_l2_prefetcher(*l1)
    assert l2_prefetch == ("l2", "l2") and trains_l2_prefetcher(*l2_prefetch)
    assert l1_prefetch == ("l2", "l1") and trains_l2_prefetcher(*l1_prefetch)


def test_event_l2_prefetch_hit_property():
    """Only a first touch of a line the L2 prefetcher brought in is an
    L2 prefetch hit; the stride prefetcher's and plain hits are not."""
    h = _hierarchy()
    h.prefetch(0, line=9, kind="l2")
    h.prefetch(0, line=10, kind="l1")
    _, kind = h.access(0, 1, 9 * 64)
    assert kind == "l2"
    _, kind = h.access(0, 1, 10 * 64)
    assert kind == "l1"
    h.l1s[0].invalidate(9)  # the next touch is a plain L2 hit
    level, kind = h.access(0, 1, 9 * 64)
    assert level == "l2" and kind is None


def test_training_stream_sequence_matches_paper_figure4():
    """Fig 4: the prefetcher sees L2 misses and L2 prefetch hits, and
    nothing else."""
    h = _hierarchy()
    observed = []
    # Distinct L2 sets so fills never evict the prefetched line.
    script = [0x1000, 0x1000, 0x2040, 0x1000]
    h.prefetch(0, line=0x3080 >> 6, kind="l2")
    script.append(0x3080)
    for addr in script:
        hit_level, prefetch_kind = h.access(0, 1, addr)
        if trains_l2_prefetcher(hit_level, prefetch_kind):
            observed.append((addr >> 6, hit_level, prefetch_kind))
    # Miss on 0x1000, miss on 0x2040, prefetch-hit on 0x3080; the L1 hit
    # on the second 0x1000 and the L1/L2 re-hit never train.
    assert (0x1000 >> 6, "dram", None) in observed
    assert (0x2040 >> 6, "dram", None) in observed
    assert any(line == 0x3080 >> 6 and kind == "l2" for line, _, kind in observed)
    assert len(observed) == 3
