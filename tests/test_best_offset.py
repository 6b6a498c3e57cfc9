"""Unit tests for the Best-Offset prefetcher."""

from repro.prefetchers.best_offset import BestOffsetPrefetcher


def test_learns_dominant_offset():
    pf = BestOffsetPrefetcher(degree=1, offsets=[1, 2, 4])
    line = 0
    for _ in range(3000):
        line += 4
        pf.observe(0, line)
    assert pf.best_offset == 4
    assert pf.prefetching_on


def test_prefetch_target_uses_best_offset():
    pf = BestOffsetPrefetcher(degree=1, offsets=[1, 3])
    line = 0
    for _ in range(2000):
        line += 3
        pf.observe(0, line)
    candidates = pf.observe(0, line + 3)
    assert candidates[0].line == line + 6


def test_degree_multiplies_offset():
    pf = BestOffsetPrefetcher(degree=3, offsets=[1])
    for line in range(1000):
        pf.observe(0, line)
    candidates = pf.observe(0, 2000)
    assert [c.line for c in candidates] == [2001, 2002, 2003]


def test_random_stream_disables_prefetching():
    import random

    rnd = random.Random(3)
    pf = BestOffsetPrefetcher(degree=1, offsets=[1, 2, 4])
    for _ in range(40000):
        pf.observe(0, rnd.randrange(1 << 40))
    assert not pf.prefetching_on
    assert pf.observe(0, rnd.randrange(1 << 40)) == []


def test_round_ends_at_score_max():
    pf = BestOffsetPrefetcher(degree=1, offsets=[1])
    for line in range(100):
        pf.observe(0, line)
    # SCORE_MAX is 31: after ~31 tests of offset 1 the round resets.
    assert pf._scores == [0] or max(pf._scores) < pf.SCORE_MAX


def test_rr_table_is_direct_mapped():
    """Lines sharing an RR-table slot replace each other."""
    pf = BestOffsetPrefetcher(rr_table_bits=2, offsets=[4])  # 4 slots
    pf.observe(0, 1)  # slot 1 holds line 1
    pf.observe(0, 5)  # tests 5 - 4 = 1: found; line 5 takes slot 1
    assert pf._scores == [1]
    pf.observe(0, 5)  # tests 1 again: gone
    assert pf._scores == [1]
