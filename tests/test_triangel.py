"""Unit and differential tests for the Triangel prefetcher family.

The differential half pins the degeneracy contract from
:mod:`repro.prefetchers.triangel`: with sampling off, ``lookahead=1``,
``degree=1`` and Hawkeye replacement, Triangel must issue a
**bit-identical** prefetch stream to Triage -- first at the candidate
level over shared synthetic streams, then end to end through
``simulate()`` with the actual ``hierarchy.prefetch`` calls recorded.
"""

from __future__ import annotations

import random

import pytest

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.experiments import common
from repro.memory.hierarchy import CacheHierarchy
from repro.prefetchers.triangel import (
    SampleTable,
    TriangelConfig,
    TriangelPrefetcher,
)
from repro.sim.single_core import simulate
from repro.workloads import spec

KB = 1024


def make(capacity=64 * KB, **kw) -> TriangelPrefetcher:
    return TriangelPrefetcher(TriangelConfig(metadata_capacity=capacity, **kw))


def feed(pf, pc, lines):
    return [[c.line for c in pf.observe(pc, line)] for line in lines]


def degenerate(**kw) -> TriangelConfig:
    return TriangelConfig(
        metadata_capacity=kw.pop("capacity", 64 * KB),
        sampling=False,
        lookahead=1,
        replacement="hawkeye",
        **kw,
    )


# -- walk / lookahead ---------------------------------------------------------


def test_learns_chain_and_runs_ahead():
    pf = make(lookahead=2)
    chain = [10, 500, 3, 42]
    feed(pf, 0xA, chain)
    results = feed(pf, 0xA, chain)
    # lookahead=2, degree=1: the walk issues two successors per trigger.
    assert results[0] == [500, 3]
    assert results[1] == [3, 42]


def test_lookahead_one_matches_triage_walk_depth():
    pf = make(lookahead=1)
    chain = [10, 500, 3, 42]
    feed(pf, 0xA, chain)
    assert feed(pf, 0xA, [10])[-1] == [500]


def test_walk_terminates_on_chain_loop():
    pf = make(lookahead=3, degree=2)
    feed(pf, 0xA, [10, 20, 10, 20])  # learns 10 -> 20 -> 10
    result = feed(pf, 0xA, [10])[-1]
    # The walk issues 20, sees 10 already visited, and stops: a looping
    # chain must never re-issue an in-flight line no matter the depth.
    assert result == [20]


def test_walk_candidates_are_unique_and_exclude_trigger():
    pf = make(lookahead=4, degree=3)
    rng = random.Random(7)
    for _ in range(3000):
        trigger = rng.randrange(256)
        for c in pf.observe(rng.randrange(4), trigger):
            pass
    for _ in range(500):
        trigger = rng.randrange(256)
        lines = [c.line for c in pf.observe(0, trigger)]
        assert len(lines) == len(set(lines))
        assert trigger not in lines


def test_lookahead_must_be_positive():
    with pytest.raises(ValueError):
        TriangelPrefetcher(TriangelConfig(lookahead=0))


# -- sample table -------------------------------------------------------------


def test_sample_table_is_lru_within_a_set():
    table = SampleTable(num_sets=1, num_ways=2)
    # A miss inserts only when the trigger is sampled.
    assert table.update(1, 0xA, 11, allocate=False) is None
    assert table.occupancy() == 0
    assert table.update(1, 0xA, 11, allocate=True) is None
    assert table.update(2, 0xA, 12, allocate=True) is None
    # Refresh 1: now 2 is the LRU way.
    assert table.update(1, 0xA, 21, allocate=False) == (0xA, 11)
    assert table.update(3, 0xA, 13, allocate=True) is None
    assert table.update(2, 0xA, 12, allocate=False) is None
    assert table.update(1, 0xA, 21, allocate=False) == (0xA, 21)
    assert table.update(3, 0xA, 13, allocate=False) == (0xA, 13)
    assert table.occupancy() == 2


def test_sample_table_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SampleTable(num_sets=0)


def test_noisy_pc_loses_allocation_rights():
    """A PC whose successor churns must stop earning new metadata."""
    pf = make(lookahead=1, sample_sets=8, sample_ways=4)
    # Trigger 5 repeats, but its successor never does: every sample
    # probe is a pattern mismatch, decaying the PC's confidence.
    for i in range(64):
        pf.observe(0xA, 5)
        pf.observe(0xA, 1000 + i)
    assert pf.pattern_confidence(0xA) < pf.config.allocate_threshold
    assert pf.skipped_allocations > 0


def test_repeating_pc_keeps_allocation_rights():
    pf = make(lookahead=1, sample_sets=8, sample_ways=4)
    chain = [10, 500, 3, 42]
    for _ in range(32):
        feed(pf, 0xA, chain)
    assert pf.pattern_confidence(0xA) >= pf.config.allocate_threshold
    assert pf.sample_pattern_matches > 0
    stats = pf.sample_stats()
    assert stats["sample_hits"] > 0
    assert stats["tracked_pcs"] >= 1


def test_sampling_off_never_skips_allocations():
    pf = make(sampling=False)
    rng = random.Random(3)
    for _ in range(2000):
        pf.observe(0xA, rng.randrange(128))
    assert pf.skipped_allocations == 0
    assert pf.sample_table.occupancy() == 0


def test_gated_pc_still_refreshes_existing_entries():
    """The gate blocks *new* allocations, not retraining of resident ones."""
    pf = make(lookahead=1, sample_sets=8, sample_ways=4)
    feed(pf, 0xA, [10, 500, 10, 500])  # entry 10 -> 500 resident
    # Now make the PC noisy until it loses allocation rights.
    for i in range(64):
        pf.observe(0xA, 5)
        pf.observe(0xA, 2000 + i)
    assert pf.pattern_confidence(0xA) < pf.config.allocate_threshold
    before = pf.store.updates
    pf.observe(0xA, 10)
    pf.observe(0xA, 500)  # refresh of a resident trigger: allowed
    assert pf.store.updates > before


# -- defaults / integration ---------------------------------------------------


def test_family_defaults():
    pf = make()
    assert pf.name == "triangel"
    assert pf.config.replacement == "reuse"
    assert pf.store.policy_name == "reuse"
    assert pf.config.lookahead == 2
    assert pf.config.sampling is True
    assert isinstance(pf, TriagePrefetcher)  # engine integration contract


def test_triangel_config_is_a_triage_config():
    assert isinstance(TriangelConfig(), TriageConfig)


# -- differential: degenerate Triangel == Triage ------------------------------


def test_degenerate_candidate_stream_bit_identical():
    """Candidate-level: same synthetic stream, same emitted lines."""
    triage = TriagePrefetcher(TriageConfig(metadata_capacity=64 * KB))
    triangel = TriangelPrefetcher(degenerate())
    rng = random.Random(42)
    for _ in range(5000):
        pc = rng.randrange(8)
        line = rng.randrange(512)
        a = [c.line for c in triage.observe(pc, line)]
        b = [c.line for c in triangel.observe(pc, line)]
        assert a == b
    assert triage.store.llc_accesses == triangel.store.llc_accesses
    assert triage.store.occupancy() == triangel.store.occupancy()


def test_degenerate_end_to_end_prefetch_stream_bit_identical(monkeypatch):
    """Full ``simulate()``: the recorded hierarchy.prefetch calls match."""
    real = CacheHierarchy.prefetch
    streams = {}

    def recording(tag):
        def patched(self, core, line, pc=0):
            streams[tag].append(line)
            return real(self, core, line, pc)

        return patched

    trace = spec.make_trace("mcf", n_accesses=6000, seed=3, scale=4)
    machine = common.MACHINE
    results = {}
    configs = {
        "triage": common.triage_config(),
        "triangel": common.triangel_config(
            sampling=False, lookahead=1, replacement="hawkeye"
        ),
    }
    for tag, config in configs.items():
        streams[tag] = []
        monkeypatch.setattr(CacheHierarchy, "prefetch", recording(tag))
        results[tag] = simulate(
            trace, config, machine=machine, warmup_accesses=2000
        )
    assert streams["triangel"] == streams["triage"]
    assert len(streams["triage"]) > 0
    a, b = results["triage"], results["triangel"]
    assert a.counters == b.counters
    assert a.traffic == b.traffic
    assert a.ipc == b.ipc
    assert a.coverage == b.coverage
    assert a.accuracy == b.accuracy


def test_degenerate_dynamic_matches_triage_dynamic():
    """Degeneracy holds with the partition controller in the loop too."""
    triage = TriagePrefetcher(
        TriageConfig(dynamic=True, epoch_accesses=500,
                     capacities=(0, 4 * KB, 8 * KB))
    )
    triangel = TriangelPrefetcher(
        TriangelConfig(dynamic=True, epoch_accesses=500,
                       capacities=(0, 4 * KB, 8 * KB),
                       sampling=False, lookahead=1, replacement="hawkeye")
    )
    rng = random.Random(9)
    for _ in range(4000):
        pc = rng.randrange(4)
        line = rng.randrange(256)
        a = [c.line for c in triage.observe(pc, line)]
        b = [c.line for c in triangel.observe(pc, line)]
        assert a == b
    assert (
        triage.store.capacity_bytes == triangel.store.capacity_bytes
    )  # partition decisions agreed at every epoch
