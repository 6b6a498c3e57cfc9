"""Tests for the prefetcher base class contract."""

import pytest

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate


def test_degree_validated():
    with pytest.raises(ValueError):
        BasePrefetcher(degree=0)


def test_observe_abstract():
    with pytest.raises(NotImplementedError):
        BasePrefetcher().observe(0, 0)


def test_candidates_helper_sets_owner():
    pf = BasePrefetcher()
    candidates = pf.candidates([1, 2], context="ctx")
    assert [c.line for c in candidates] == [1, 2]
    assert all(c.owner is pf for c in candidates)
    assert all(c.context == "ctx" for c in candidates)


def test_drain_metadata_traffic_resets():
    pf = BasePrefetcher()
    pf.pending_metadata_bytes = 192
    assert pf.drain_metadata_traffic() == 192
    assert pf.drain_metadata_traffic() == 0


def test_feedback_and_epoch_tick_default_noop():
    pf = BasePrefetcher()
    pf.feedback(PrefetchCandidate(1), "dram")
    pf.epoch_tick()


def test_energy_counters_default_zero():
    pf = BasePrefetcher()
    assert pf.metadata_dram_accesses == 0
    # On-chip metadata accesses are counted by Triage's store.
    triage = TriagePrefetcher(TriageConfig(metadata_capacity=4096))
    assert triage.store.llc_accesses == 0
