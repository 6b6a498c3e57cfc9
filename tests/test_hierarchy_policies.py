"""Hierarchy with non-LRU LLC policies and multi-level interactions."""

import pytest

from repro.memory.hierarchy import CacheHierarchy
from repro.sim.config import MachineConfig
from repro.sim.single_core import simulate
from repro.workloads.irregular import chain_trace
from tests.demand import Demand


@pytest.mark.parametrize("policy", ["lru", "srrip", "drrip", "hawkeye", "random"])
def test_hierarchy_runs_with_each_llc_policy(policy):
    h = CacheHierarchy(
        n_cores=1, l2_size=1024, l2_ways=2,
        llc_size_per_core=4096, llc_ways=4, llc_policy=policy,
    )
    demand = Demand(h, l1_size=512, l1_ways=2)
    for line in range(300):
        demand(0, 1, (line % 120) * 64)
    c = h.counters[0]
    assert c.accesses == 300
    assert c.accesses == c.l1_hits + c.l2_hits + c.llc_hits + c.dram_accesses


@pytest.mark.parametrize("policy", ["lru", "drrip", "hawkeye"])
def test_simulate_with_llc_policy(policy):
    from dataclasses import replace

    machine = replace(MachineConfig.scaled(16), llc_policy=policy)
    trace = chain_trace("p", 8_000, seed=1, hot_lines=1_000, cold_lines=1_000)
    result = simulate(trace, None, machine=machine)
    assert result.cycles > 0


def test_hawkeye_llc_beats_lru_on_scan_mixed_with_reuse():
    """Hawkeye's raison d'etre: protect the reused set from the scan."""
    from dataclasses import replace

    hot = [i * 64 for i in range(48)]
    accesses = []
    scan = 1000
    for _ in range(200):
        accesses.extend(hot)
        accesses.extend(range(scan * 64, (scan + 64) * 64, 64))
        scan += 64
    from repro.workloads.base import Trace

    trace = Trace("scanmix", [0x4] * len(accesses), accesses,
                  [False] * len(accesses))
    results = {}
    for policy in ("lru", "hawkeye"):
        machine = replace(
            MachineConfig.scaled(16), llc_policy=policy, l1_prefetcher="none"
        )
        results[policy] = simulate(trace, None, machine=machine)
    assert (
        results["hawkeye"].counters.dram_accesses
        <= results["lru"].counters.dram_accesses
    )
