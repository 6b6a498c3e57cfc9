"""Semantics of the hierarchy's access outcome and the training-stream
contract.

``CacheHierarchy.access`` returns an outcome code, and an L1D hit never
reaches it; ``trains_l2_prefetcher`` is the test the engines apply to
the code (or to ``L1D_HIT``).
"""

from repro.memory.hierarchy import (
    DRAM_FILL,
    L1D_HIT,
    L1D_MISS,
    L2_HIT,
    L2_PF_L1,
    L2_PF_L2,
    LLC_HIT,
    CacheHierarchy,
    trains_l2_prefetcher,
)
from tests.demand import Demand


def _hierarchy():
    """A small hierarchy and its demand path through 512 B 2-way L1Ds."""
    h = CacheHierarchy(
        n_cores=1, l2_size=2048, l2_ways=2, llc_size_per_core=8192, llc_ways=4,
    )
    return h, Demand(h, l1_size=512, l1_ways=2)


def test_event_training_stream_membership():
    assert trains_l2_prefetcher(LLC_HIT)
    assert trains_l2_prefetcher(DRAM_FILL)
    assert not trains_l2_prefetcher(L1D_HIT)
    assert not trains_l2_prefetcher(L2_HIT)
    assert trains_l2_prefetcher(L2_PF_L2)
    assert trains_l2_prefetcher(L2_PF_L1)
    # The same facts on outcomes the hierarchy actually returns.
    h, demand = _hierarchy()
    h.prefetch(0, line=0x3080 >> 6, kind="l2")
    h.prefetch(0, line=0x40C0 >> 6, kind="l1")
    dram = demand(0, 1, 0x1000)
    l1 = demand(0, 1, 0x1000)
    l2_prefetch = demand(0, 1, 0x3080)
    l1_prefetch = demand(0, 1, 0x40C0)
    assert dram == DRAM_FILL and trains_l2_prefetcher(dram)
    assert l1 == L1D_HIT and not trains_l2_prefetcher(l1)
    assert l2_prefetch == L2_PF_L2 and trains_l2_prefetcher(l2_prefetch)
    assert l1_prefetch == L2_PF_L1 and trains_l2_prefetcher(l1_prefetch)


def test_event_l2_prefetch_hit_property():
    """Only a first touch of a line the L2 prefetcher brought in is an
    L2 prefetch hit; the stride prefetcher's and plain hits are not."""
    h, demand = _hierarchy()
    h.prefetch(0, line=9, kind="l2")
    h.prefetch(0, line=10, kind="l1")
    assert demand(0, 1, 9 * 64) == L2_PF_L2
    assert demand(0, 1, 10 * 64) == L2_PF_L1
    # The next touch the L1D misses is a plain L2 hit.
    assert h.access(0, 1, 9, False, L1D_MISS) == L2_HIT


def test_training_stream_sequence_matches_paper_figure4():
    """Fig 4: the prefetcher sees L2 misses and L2 prefetch hits, and
    nothing else."""
    h, demand = _hierarchy()
    observed = []
    # Distinct L2 sets so fills never evict the prefetched line.
    script = [0x1000, 0x1000, 0x2040, 0x1000]
    h.prefetch(0, line=0x3080 >> 6, kind="l2")
    script.append(0x3080)
    for addr in script:
        outcome = demand(0, 1, addr)
        if trains_l2_prefetcher(outcome):
            observed.append((addr >> 6, outcome))
    # Miss on 0x1000, miss on 0x2040, prefetch-hit on 0x3080; the L1 hit
    # on the second 0x1000 and the L1/L2 re-hit never train.
    assert observed == [
        (0x1000 >> 6, DRAM_FILL), (0x2040 >> 6, DRAM_FILL), (0x3080 >> 6, L2_PF_L2),
    ]
