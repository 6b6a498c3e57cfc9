"""Tests for the queued (event-driven) engine and its components."""

import pytest

from repro.core.triage import TriageConfig
from repro.sim.config import MachineConfig
from repro.sim.queued import BankedDram, simulate_queued
from repro.sim.queued.dram_sched import DramTimingParams
from repro.sim.single_core import simulate
from repro.workloads.irregular import chain_trace
from repro.workloads.regular import stream_trace

KB = 1024
MACHINE = MachineConfig.scaled(16)


def chain(n=24_000):
    return chain_trace(
        "qc", n, seed=1, hot_lines=3_000, cold_lines=5_000,
        hot_fraction=0.8, noise=0.0, sequential_frac=0.0,
    )


def triage_cfg():
    return TriageConfig(
        metadata_capacity=32 * KB, capacities=(0, 16 * KB, 32 * KB),
        epoch_accesses=2000,
    )


# -- banked DRAM --------------------------------------------------------------


def test_dram_bank_conflict_serializes():
    params = DramTimingParams(n_banks=2, bank_cycles=100, burst_cycles=4)
    dram = BankedDram(params)
    same_bank_line = 0
    first = dram.service(same_bank_line, 0.0)
    second = dram.service(same_bank_line, 0.0)
    assert second >= first + params.bank_cycles


def test_dram_different_banks_overlap():
    params = DramTimingParams(n_banks=16, bank_cycles=100, burst_cycles=4)
    dram = BankedDram(params)
    a = dram.service(0, 0.0)
    b = dram.service(1, 0.0)  # different bank: only the bus serializes
    assert b - a <= params.burst_cycles + params.turnaround_cycles + 1


def test_dram_bus_is_shared():
    params = DramTimingParams(n_banks=64, bank_cycles=10, burst_cycles=4)
    dram = BankedDram(params)
    finish = [dram.service(i, 0.0) for i in range(32)]
    # 32 bursts over one bus cannot finish faster than 32 * burst.
    assert max(finish) >= 32 * params.burst_cycles


def test_dram_turnaround_penalty():
    params = DramTimingParams(n_banks=16, bank_cycles=10, burst_cycles=4,
                              turnaround_cycles=50)
    dram = BankedDram(params)
    dram.service(0, 0.0, is_write=False)
    read_then_write = dram.service(1, 0.0, is_write=True)
    dram2 = BankedDram(params)
    dram2.service(0, 0.0, is_write=False)
    read_then_read = dram2.service(1, 0.0, is_write=False)
    assert read_then_write > read_then_read


# -- engine ----------------------------------------------------------------


def test_queued_engine_runs_and_counts():
    trace = chain(8_000)
    result = simulate_queued(trace, None, machine=MACHINE)
    assert result.cycles > 0
    assert result.counters.accesses == len(trace)


def test_queued_triage_speedup_and_coverage_match_state_model():
    trace = chain()
    qb = simulate_queued(trace, None, machine=MACHINE)
    qt = simulate_queued(trace, triage_cfg(), machine=MACHINE)
    ab = simulate(trace, None, machine=MACHINE)
    at = simulate(trace, triage_cfg(), machine=MACHINE)
    # Cache state is shared between engines: identical coverage.
    assert qt.coverage == pytest.approx(at.coverage, abs=0.01)
    # Both engines agree Triage helps...
    assert qt.speedup_over(qb) > 1.02
    # ...but the queued engine discounts late prefetches.
    assert qt.late_prefetch_hits > 0


def test_queued_engine_bandwidth_wall_on_streams():
    trace = stream_trace("s", 10_000, seed=1, n_streams=1, mlp=8.0)
    result = simulate_queued(trace, None, machine=MACHINE)
    # ~1 line per access over a 16 B/cycle bus: at least 4 cycles/access.
    assert result.cycles >= 0.9 * len(trace) * 4.0


def test_queued_engine_rejects_multicore():
    with pytest.raises(ValueError):
        simulate_queued(chain(100), None, machine=MachineConfig.multi_core(2))


def test_queued_engine_warmup():
    trace = chain(10_000)
    warmed = simulate_queued(trace, None, machine=MACHINE, warmup_accesses=4_000)
    assert warmed.counters.accesses == 6_000
    assert warmed.cycles > 0


def test_warmed_run_counts_only_measured_window_drops_and_stalls():
    from repro.workloads import spec

    trace = spec.make_trace("gcc", n_accesses=6_000, seed=1)
    whole = simulate_queued(trace, "bo")
    # The engine is causal: a run of the first 3,000 accesses counts
    # exactly what the warmup window of the longer run does.
    warmup = simulate_queued(trace.head(3_000), "bo")
    warmed = simulate_queued(trace, "bo", warmup_accesses=3_000)
    assert 0 < warmup.dropped_prefetches < whole.dropped_prefetches
    assert warmed.dropped_prefetches == (
        whole.dropped_prefetches - warmup.dropped_prefetches
    )
