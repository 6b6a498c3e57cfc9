"""Unit tests for the Best-Offset prefetcher."""

from hypothesis import example, given, settings, strategies as st

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


class FieldBo:
    """Best-Offset learning with its test index kept on the instance
    and advanced in place, as a reference."""

    def __init__(self, degree, offsets, rr_table_bits):
        self.pf = BestOffsetPrefetcher(degree, offsets, rr_table_bits)

    def observe(self, line):
        pf = self.pf
        rr_mask = pf.rr_size - 1
        base = line - pf.offsets[pf._test_index]
        if pf._rr_table[(base ^ (base >> 8)) & rr_mask] == base:
            pf._scores[pf._test_index] += 1
            if pf._scores[pf._test_index] >= pf.SCORE_MAX:
                pf._end_round()
        pf._test_index += 1
        if pf._test_index >= len(pf.offsets):
            pf._test_index = 0
            pf._round += 1
            if pf._round >= pf.ROUND_MAX:
                pf._end_round()
        pf._rr_table[(line ^ (line >> 8)) & rr_mask] = line
        if not pf.prefetching_on:
            return []
        return [line + pf.best_offset * i for i in range(1, pf.degree + 1)]


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from([1, 2, 3, 5, -7, 64]), st.integers(1, 120)),
        min_size=1,
        max_size=8,
    ),
    offsets=st.lists(st.sampled_from([1, 2, 3, 4, 6, 100]), min_size=1, max_size=4),
    degree=st.integers(1, 4),
)
@example(runs=[(1, 200)], offsets=[100, 1], degree=1)
def test_observe_matches_the_field_index_reference(runs, offsets, degree):
    """Round ends by score (at any test index) and by round count, at
    every degree: the same candidates, scores, test index and best
    offset at every event.  Runs of one stride let offsets reach the
    maximum score; offset 100 never scores."""
    pf = BestOffsetPrefetcher(degree=degree, offsets=offsets, rr_table_bits=3)
    ref = FieldBo(degree, offsets, 3)
    line = 1 << 20
    for step in [step for step, length in runs for _ in range(length)] * 3:
        line += step
        assert [c.line for c in pf.observe(0, line)] == ref.observe(line)
        assert (pf._scores, pf._test_index, pf._round, pf.best_offset) == (
            ref.pf._scores, ref.pf._test_index, ref.pf._round, ref.pf.best_offset
        )
