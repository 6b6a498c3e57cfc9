"""Unit tests for the hybrid prefetcher."""

import pytest

from repro.memory.hierarchy import DRAM_FILL
from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate
from repro.prefetchers.hybrid import HybridPrefetcher


class FakePrefetcher(BasePrefetcher):
    def __init__(self, name, lines):
        super().__init__()
        self.name = name
        self.lines = lines
        self.feedback_log = []

    def observe(self, pc, line, prefetch_hit=False):
        return self.candidates(list(self.lines))

    def feedback(self, candidate, source):
        self.feedback_log.append((candidate.line, source))


def test_requires_components():
    with pytest.raises(ValueError):
        HybridPrefetcher([])


def test_name_concatenates():
    hybrid = HybridPrefetcher([FakePrefetcher("a", []), FakePrefetcher("b", [])])
    assert hybrid.name == "a+b"


def test_candidates_merged_first_component_wins():
    a = FakePrefetcher("a", [1, 2])
    b = FakePrefetcher("b", [2, 3])
    hybrid = HybridPrefetcher([a, b])
    lines = [c.line for c in hybrid.observe(0, 0)]
    assert lines == [1, 2, 3]


def test_feedback_routes_to_owner():
    a = FakePrefetcher("a", [1])
    b = FakePrefetcher("b", [2])
    hybrid = HybridPrefetcher([a, b])
    for candidate in hybrid.observe(0, 0):
        hybrid.feedback(candidate, DRAM_FILL)
    assert a.feedback_log == [(1, DRAM_FILL)]
    assert b.feedback_log == [(2, DRAM_FILL)]


def test_metadata_traffic_summed():
    a = FakePrefetcher("a", [])
    b = FakePrefetcher("b", [])
    a.pending_metadata_bytes = 64
    b.pending_metadata_bytes = 128
    hybrid = HybridPrefetcher([a, b])
    assert hybrid.drain_metadata_traffic() == 192
    assert hybrid.drain_metadata_traffic() == 0


def test_degree_is_component_max():
    a = FakePrefetcher("a", [])
    a.degree = 4
    b = FakePrefetcher("b", [])
    hybrid = HybridPrefetcher([a, b])
    assert hybrid.degree == 4
