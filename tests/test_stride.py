"""Unit tests for the PC-stride prefetcher."""

from hypothesis import given, settings, strategies as st

from repro.prefetchers.stride import StridePrefetcher


def feed(pf, pc, lines):
    out = []
    for line in lines:
        out.append([c.line for c in pf.observe(pc, line)])
    return out


def test_learns_constant_stride():
    pf = StridePrefetcher(degree=1)
    results = feed(pf, 0x400, [10, 12, 14, 16, 18])
    # After confidence builds, it prefetches line + stride.
    assert results[-1] == [20]


def test_no_prefetch_before_confidence():
    pf = StridePrefetcher(degree=1)
    results = feed(pf, 0x400, [10, 12])
    assert results == [[], []]


def test_stride_change_resets():
    pf = StridePrefetcher(degree=1)
    feed(pf, 0x400, [10, 12, 14, 16])
    results = feed(pf, 0x400, [30, 33, 36, 39])
    assert results[-1] == [42]


def test_degree_extends_prefetch_run():
    pf = StridePrefetcher(degree=3)
    results = feed(pf, 0x400, [10, 12, 14, 16])
    assert results[-1] == [18, 20, 22]


def test_distinct_pcs_tracked_independently():
    pf = StridePrefetcher(degree=1)
    feed(pf, 0xA, [100, 101, 102, 103])
    feed(pf, 0xB, [500, 510, 520, 530])
    assert feed(pf, 0xA, [104])[-1] == [105]
    assert feed(pf, 0xB, [540])[-1] == [550]


def test_zero_stride_ignored():
    pf = StridePrefetcher(degree=1)
    results = feed(pf, 0x400, [10, 10, 10, 10])
    assert all(r == [] for r in results)


def test_negative_stride_drops_targets_below_line_one():
    pf = StridePrefetcher(degree=3)
    results = feed(pf, 0x400, [9, 7, 5, 3, 1])
    assert results[2:] == [[3, 1], [1], []]
    offsets = StridePrefetcher(degree=3)
    assert [offsets.offsets(0x400, line) for line in (9, 7, 5, 3, 1)] == [
        (), (), (-2, -4), (-2,), ()
    ]


def test_table_capacity_lru():
    pf = StridePrefetcher(degree=1, table_size=2)
    feed(pf, 0xA, [10, 12, 14, 16])
    feed(pf, 0xB, [100, 101])
    feed(pf, 0xC, [200, 202])  # evicts 0xA
    # 0xA must relearn from scratch.
    assert feed(pf, 0xA, [18])[-1] == []


@settings(max_examples=100, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 4), st.integers(-3, 4)), min_size=1, max_size=200
    ),
    degree=st.integers(1, 3),
    table_size=st.integers(1, 4),
)
def test_observe_and_offsets_agree(accesses, degree, table_size):
    """One stream through ``observe`` and through ``offsets`` (what the
    front end replays): the same lines, in the same order, at every
    access.  Strides run both ways from lines near 0, so negative
    strides reach the targets below line 1 that are dropped."""
    by_observe = StridePrefetcher(degree=degree, table_size=table_size)
    by_offsets = StridePrefetcher(degree=degree, table_size=table_size)
    lines = {}
    for pc, step in accesses:
        line = lines[pc] = max(0, lines.get(pc, 5) + step)
        offsets = by_offsets.offsets(pc, line)
        assert isinstance(offsets, tuple)
        assert [c.line for c in by_observe.observe(pc, line)] == [
            line + offset for offset in offsets
        ]
        assert all(line + offset > 0 for offset in offsets)
