"""Unit tests for Spatial Memory Streaming."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.prefetchers.sms import SmsPrefetcher, relative_offsets


def region_lines(pf):
    return pf.region_lines


def test_rejects_bad_region_size():
    with pytest.raises(ValueError):
        SmsPrefetcher(region_size=100)


def test_footprint_learned_and_replayed_relative_to_trigger():
    pf = SmsPrefetcher(accumulation_entries=1)
    pc = 0x4
    rl = region_lines(pf)
    # Region 0: trigger offset 3, footprint {3, 5, 9}.
    pf.observe(pc, 3)
    pf.observe(pc, 5)
    pf.observe(pc, 9)
    # Promote another region into the 1-entry accumulation table to
    # evict region 0's footprint into the PHT, then trigger region 2.
    pf.observe(pc, 1 * rl + 3)
    pf.observe(pc, 1 * rl + 4)
    candidates = pf.observe(pc, 2 * rl + 3)
    lines = sorted(c.line for c in candidates)
    assert lines == [2 * rl + 5, 2 * rl + 9]


def test_pattern_rotates_with_trigger_offset():
    pf = SmsPrefetcher(accumulation_entries=1)
    pc = 0x8
    rl = region_lines(pf)
    pf.observe(pc, 0)
    pf.observe(pc, 2)
    pf.observe(pc, 1 * rl)  # second region...
    pf.observe(pc, 1 * rl + 1)  # ...promoted: region 0 evicted to PHT
    # New region triggered at offset 0 -> relative pattern {+2} replayed.
    candidates = pf.observe(pc, 5 * rl)
    assert [c.line for c in candidates] == [5 * rl + 2]


def test_single_access_regions_store_nothing():
    pf = SmsPrefetcher(accumulation_entries=1, filter_entries=1)
    pc = 0xC
    rl = region_lines(pf)
    for region in range(10):
        pf.observe(pc, region * rl + 1)
    # Every region saw one access: the filter churns, the PHT stays empty.
    assert len(pf._pht) == 0


def test_flush_training_commits_accumulation():
    pf = SmsPrefetcher()
    pc = 0x10
    pf.observe(pc, 4)
    pf.observe(pc, 6)
    assert len(pf._pht) == 0
    pf.flush_training()
    assert len(pf._pht) == 1


def test_different_signatures_do_not_cross_predict():
    pf = SmsPrefetcher(accumulation_entries=1)
    rl = region_lines(pf)
    pf.observe(0xA, 0)
    pf.observe(0xA, 7)
    pf.observe(0xA, rl)  # commit signature (0xA, 0)
    # Different PC triggering a fresh region: no prediction.
    assert pf.observe(0xB, 3 * rl) == []


def test_pht_capacity_lru():
    pf = SmsPrefetcher(accumulation_entries=1, pht_entries=1)
    rl = region_lines(pf)
    pf.observe(0xA, 0)
    pf.observe(0xA, 1)
    pf.observe(0xB, rl + 0)
    pf.observe(0xB, rl + 2)
    pf.observe(0xC, 5 * rl)  # evictions push both footprints through PHT
    pf.flush_training()
    assert len(pf._pht) <= 1


# -- the rotation and the stored offsets against the bit loop they replace --


def loop_rotate(footprint, trigger_offset, region_lines):
    """The footprint rotation as a loop over the region's bits."""
    relative = 0
    for bit in range(region_lines):
        if footprint & (1 << bit):
            rel = (bit - trigger_offset) % region_lines
            if rel != 0:
                relative |= 1 << rel
    return relative


def loop_candidates(relative, line, region_lines):
    """The lines a relative footprint prefetches for a trigger at
    ``line``, found by testing each of its bits in turn."""
    region, offset = divmod(line, region_lines)
    base = region * region_lines
    return [
        base + (offset + rel) % region_lines
        for rel in range(1, region_lines)
        if relative >> rel & 1
    ]


@settings(max_examples=200, deadline=None)
@given(
    footprint=st.integers(0, (1 << 32) - 1),
    line=st.integers(0, 1 << 40),
)
def test_rotation_and_offsets_match_the_bit_loop(footprint, line):
    pf = SmsPrefetcher()
    rl = pf.region_lines
    assert rl == 32
    for trigger in range(rl):
        relative = pf._rotate(footprint, trigger)
        assert relative == loop_rotate(footprint, trigger, rl), trigger
        offsets = relative_offsets(relative, rl)
        assert list(offsets) == sorted(offsets)
        region_base = line - line % rl
        assert [
            region_base + (line % rl + rel) % rl for rel in offsets
        ] == loop_candidates(relative, line, rl), trigger


class LoopSms:
    """SMS with each PHT pattern kept as a relative bitmask, rotated and
    expanded by bit loops, and OrderedDict tables."""

    def __init__(self, filter_entries, accumulation_entries, pht_entries):
        self.region_lines = 32
        self.sizes = (filter_entries, accumulation_entries, pht_entries)
        self.filter = OrderedDict()
        self.accumulation = OrderedDict()
        self.pht = OrderedDict()

    def observe(self, pc, line):
        region, offset = divmod(line, self.region_lines)
        acc = self.accumulation.get(region)
        if acc is not None:
            signature, footprint = acc
            self.accumulation[region] = (signature, footprint | 1 << offset)
            self.accumulation.move_to_end(region)
            return []
        signature = self.filter.pop(region, None)
        if signature is not None:
            if len(self.accumulation) >= self.sizes[1]:
                _, (old, footprint) = self.accumulation.popitem(last=False)
                self.store(old, footprint)
            self.accumulation[region] = (signature, 1 << signature[1] | 1 << offset)
            return []
        if len(self.filter) >= self.sizes[0]:
            self.filter.popitem(last=False)
        self.filter[region] = (pc, offset)
        relative = self.pht.get((pc, offset))
        if relative is None:
            return []
        self.pht.move_to_end((pc, offset))
        return loop_candidates(relative, line, self.region_lines)

    def store(self, signature, footprint):
        relative = loop_rotate(footprint, signature[1], self.region_lines)
        if relative == 0:
            return
        if len(self.pht) >= self.sizes[2]:
            self.pht.popitem(last=False)
        self.pht[signature] = relative


@settings(max_examples=80, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 31)),
        min_size=1,
        max_size=300,
    ),
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
)
def test_candidates_match_the_bit_loop_sms(accesses, sizes):
    """Random (pc, region, offset) streams on small tables: every
    observe returns the same lines in the same order."""
    pf = SmsPrefetcher(
        filter_entries=sizes[0], accumulation_entries=sizes[1], pht_entries=sizes[2]
    )
    ref = LoopSms(*sizes)
    for pc, region, offset in accesses:
        line = region * 32 + offset
        assert [c.line for c in pf.observe(pc, line)] == ref.observe(pc, line)
