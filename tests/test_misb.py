"""Unit tests for MISB's metadata caching and traffic accounting."""

import pytest

from repro.prefetchers.misb import SP_ENTRIES_PER_LINE, MisbPrefetcher, _MetadataCache


def feed(pf, pc, lines):
    return [[c.line for c in pf.observe(pc, line)] for line in lines]


def test_metadata_cache_lru_and_dirty():
    cache = _MetadataCache(capacity=2)
    assert not cache.probe(1)
    cache.install(1, dirty=True)
    cache.install(2)
    assert cache.probe(1)  # 2 is now LRU
    evicted = cache.install(3)
    assert evicted is None  # 2 was clean
    evicted = cache.install(4)  # evicts 1 (dirty)
    assert evicted == 1


def test_metadata_cache_hit_stats():
    cache = _MetadataCache(capacity=4)
    cache.install(1)
    cache.probe(1)
    cache.probe(2)
    assert cache.hits == 1
    assert cache.misses == 1


def test_misb_predicts_like_isb():
    pf = MisbPrefetcher(degree=1)
    chain = [10, 77, 3, 520]
    feed(pf, 0xA, chain)
    results = feed(pf, 0xA, chain)
    assert results[1] == [3]
    assert results[2] == [520]


def test_misb_generates_offchip_traffic_when_cache_small():
    pf = MisbPrefetcher(degree=1, onchip_bytes=256)  # tiny metadata cache
    import random

    rnd = random.Random(1)
    chain = [rnd.randrange(1 << 32) for _ in range(2000)]
    feed(pf, 0xA, chain)
    feed(pf, 0xA, chain)
    assert pf.metadata_dram_accesses > 0
    assert pf.drain_metadata_traffic() > 0
    assert pf.drain_metadata_traffic() == 0  # drained


def test_misb_large_cache_cuts_traffic():
    import random

    rnd = random.Random(2)
    chain = [rnd.randrange(1 << 32) for _ in range(2000)]
    small = MisbPrefetcher(onchip_bytes=512)
    large = MisbPrefetcher(onchip_bytes=1 << 20)
    for pf in (small, large):
        feed(pf, 0xA, chain)
        feed(pf, 0xA, chain)
    assert large.metadata_dram_accesses < small.metadata_dram_accesses


def test_sp_lines_pack_structural_neighbors():
    """Consecutive structural addresses share one SP cache line, which is
    where MISB's metadata-prefetching advantage comes from."""
    assert SP_ENTRIES_PER_LINE == 16
    pf = MisbPrefetcher(degree=1)
    chain = list(range(100, 116))
    feed(pf, 0xA, chain)
    sp_lines = {pf._maps._ps[x] // SP_ENTRIES_PER_LINE for x in chain}
    assert len(sp_lines) <= 2


@pytest.mark.parametrize("engine", ["single", "multi", "queued"])
def test_engines_drain_only_prefetchers_with_offchip_metadata(engine, monkeypatch):
    """MISB's metadata traffic is what it was when every engine drained
    every prefetcher on every training event; Triage is never drained."""
    from repro.prefetchers.base import BasePrefetcher
    from repro.sim.config import MachineConfig
    from repro.sim.multi_core import simulate_multicore
    from repro.sim.queued import simulate_queued
    from repro.sim.single_core import simulate
    from repro.workloads import spec

    drained = []
    drain = BasePrefetcher.drain_metadata_traffic

    def counting_drain(self):
        drained.append(self.name)
        return drain(self)

    monkeypatch.setattr(BasePrefetcher, "drain_metadata_traffic", counting_drain)
    trace = spec.make_trace("mcf", n_accesses=12_000, seed=1)

    def run(prefetcher):
        if engine == "single":
            return simulate(trace, prefetcher)
        if engine == "queued":
            return simulate_queued(trace, prefetcher)
        return simulate_multicore(
            [trace], prefetcher, machine=MachineConfig.multi_core(1)
        ).per_core[0]

    assert run("triage_1mb").traffic["metadata"] == 0
    assert drained == []
    misb = run("misb")
    # Both figures measured before the engines decided once per run.
    assert misb.traffic["metadata"] == 263_168
    assert misb.metadata_dram_accesses == 4_112
    assert drained and set(drained) == {"misb"}
