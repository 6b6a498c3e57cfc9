"""Event-driven single-core simulation with real prefetch timing.

Differences from the analytic engine (:mod:`repro.sim.single_core`):

* **The out-of-order window** bounds outstanding demand misses at
  ``round(trace.mlp)`` (at most 8 on the shipped traces); a full window
  stalls the core until the oldest miss completes.
* **DRAM** is the banked, shared-bus scheduler of
  :mod:`repro.sim.queued.dram_sched` -- latency emerges from contention.
* **Prefetch timeliness is real**: a prefetched line records when its
  fill completes; a demand that arrives earlier waits for the remainder
  (a *late* prefetch recovers only part of the miss latency).
* A bounded **prefetch queue** drops prefetches when the memory system
  is saturated, mirroring ChampSim's lower-priority prefetch queue.

The cache *state* model is shared with the analytic engine (fills take
effect immediately in the arrays; timing is tracked alongside), which
keeps the two engines' hit/miss behaviour identical -- by design, so
that Figure-level comparisons isolate the timing model
(``experiments/ext_engine_validation.py``).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.memory.hierarchy import (
    L1D_HIT,
    L2_PF_L2,
    LLC_HIT,
    CacheHierarchy,
    trains_l2_prefetcher,
)
from repro.obs import ObsSession, RunObserver, get_session
from repro.obs.manifest import build_manifest
from repro.prefetchers.hybrid import HybridPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.factory import PrefetcherSpec, make_prefetcher
from repro.sim.front_end import front_end
from repro.sim.queued.dram_sched import BankedDram, DramTimingParams
from repro.sim.single_core import (
    TriageColumns,
    _MetadataPartition,
    _open_sim_span,
    _register_run_metrics,
    attach_observability,
    triage_components,
)
from repro.sim.stats import SimulationResult
from repro.workloads.base import Trace

#: The queued engine has no analytic epochs; when observing it samples
#: the time-series every this many demand accesses instead, plus once at
#: the end of the run.
OBS_SAMPLE_ACCESSES = 4_096


def simulate_queued(
    trace: Trace,
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    prefetch_queue_depth: int = 16,
    charge_metadata_to_llc: bool = True,
    warmup_accesses: int = 0,
    name: Optional[str] = None,
    obs: Optional[ObsSession] = None,
) -> SimulationResult:
    """Run ``trace`` through the queued engine; same result type as
    :func:`repro.sim.single_core.simulate`."""
    wall_start = time.perf_counter()
    config = machine or MachineConfig.single_core()
    if config.n_cores != 1:
        raise ValueError("the queued engine is single-core")
    pf = make_prefetcher(prefetcher, degree=degree)
    hierarchy = CacheHierarchy(
        n_cores=1,
        l2_size=config.l2_size,
        l2_ways=config.l2_ways,
        llc_size_per_core=config.llc_size_per_core,
        llc_ways=config.llc_ways,
        llc_policy=config.llc_policy,
    )
    triages = triage_components(pf)
    partition = _MetadataPartition(
        hierarchy, config, triages, charge_metadata_to_llc
    )
    front = front_end(trace, config)

    session = obs if obs is not None else get_session()
    run: Optional[RunObserver] = None
    sim_span = None
    if session is not None:
        run = session.begin_run(
            name or trace.name, pf.name if pf is not None else "none"
        )
        attach_observability(run, triages)
        sim_span = _open_sim_span(
            session, run, "queued",
            name or trace.name, pf.name if pf is not None else "none",
            t=wall_start,
        )
    columns = TriageColumns(config, [triages])

    dram = BankedDram(
        DramTimingParams(
            burst_cycles=64.0 / config.dram_bandwidth_bytes_per_cycle,
            base_latency=max(10.0, config.dram_latency_cycles - 104.0),
        )
    )
    # The out-of-order window sustains roughly trace.mlp concurrent
    # demand misses: more makes the core stall on the window, as real
    # pointer chases do.
    window = max(1, round(trace.mlp))
    outstanding: List[float] = []  # completion cycles of in-flight demands
    ready_at: Dict[int, float] = {}  # prefetched line -> fill completion
    prefetch_queue_free = 0.0

    now = 0.0
    llc_latency = config.llc_latency + config.extra_llc_latency
    counters = hierarchy.counters[0]
    late_prefetch_hits = 0
    dropped_prefetches = 0
    measured_start_cycle = 0.0
    traffic_offset: dict = {}

    def wait_for_window() -> float:
        nonlocal now
        while len(outstanding) >= window:
            done = heapq.heappop(outstanding)
            now = max(now, done)
        return now

    def drain_completions() -> None:
        while outstanding and outstanding[0] <= now:
            line_done = heapq.heappop(outstanding)
            del line_done

    def sample_obs(access_idx: int) -> None:
        """One time-series row (the queued engine's epoch substitute)."""
        useful = counters.l2_prefetch_hits
        would_miss = useful + counters.l2_demand_misses
        row = {
            "access_idx": access_idx,
            "cycles": now - measured_start_cycle,
            "coverage": useful / would_miss if would_miss else 0.0,
            "late_prefetch_hits": late_prefetch_hits,
            "dropped_prefetches": dropped_prefetches,
            "llc_data_ways": hierarchy.llc.active_ways,
        }
        columns.fill(row)
        run.sample_epoch(**row)

    feedback = pf is not None and pf.wants_feedback
    drains = pf is not None and pf.offchip_metadata
    trace_length = len(trace)
    for index, (pc, addr, is_write, l1, l1pf_offsets) in enumerate(
        zip(trace.pcs, trace.addrs, trace.writes, front.l1, front.l1pf)
    ):
        if index == warmup_accesses and warmup_accesses > 0:
            hierarchy.counters[0] = type(counters)()
            counters = hierarchy.counters[0]
            traffic_offset = hierarchy.traffic_bytes()
            measured_start_cycle = now
            late_prefetch_hits = 0
            dropped_prefetches = 0
        now += trace.instr_per_access * config.base_cpi
        drain_completions()

        line = addr >> 6
        outcome = L1D_HIT if l1 == L1D_HIT else hierarchy.access(0, pc, line, is_write, l1)
        if outcome == L1D_HIT:
            pass
        elif outcome <= L2_PF_L2:
            pending = ready_at.pop(line, None)
            if pending is not None and pending > now:
                # Late prefetch: wait out the in-flight remainder.
                late_prefetch_hits += 1
                wait_for_window()
                heapq.heappush(outstanding, pending)
            else:
                now += config.l2_latency / trace.mlp
        elif outcome == LLC_HIT:
            wait_for_window()
            heapq.heappush(outstanding, now + llc_latency)
        else:  # DRAM
            wait_for_window()
            heapq.heappush(outstanding, dram.service(line, now, is_write=False))

        for offset in l1pf_offsets:
            target = line + offset
            source = hierarchy.prefetch(0, target, pc, kind="l1")
            if source == "dram":
                ready_at[target] = dram.service(target, now)
            elif source == "llc":
                ready_at[target] = now + llc_latency

        if pf is not None and trains_l2_prefetcher(outcome):
            candidates = pf.observe(pc, line, prefetch_hit=outcome == L2_PF_L2)
            for candidate in candidates:
                # Bounded prefetch queue: drop when saturated.
                if prefetch_queue_free - now > prefetch_queue_depth * 10.0:
                    dropped_prefetches += 1
                    continue
                source = hierarchy.prefetch(0, candidate.line, pc)
                if feedback:
                    (candidate.owner or pf).feedback(candidate, source)
                if source == "dram":
                    done = dram.service(candidate.line, now, is_write=False)
                    ready_at[candidate.line] = done
                    prefetch_queue_free = done
                elif source == "llc":
                    ready_at[candidate.line] = now + llc_latency
            metadata_bytes = pf.drain_metadata_traffic() if drains else 0
            if metadata_bytes:
                hierarchy.traffic.add("metadata", metadata_bytes)
                # Metadata transfers occupy the same bus.
                for _ in range(max(1, metadata_bytes // 64)):
                    dram.service(line ^ 0x5A5A, now, is_write=False)

        # The last access closes a row too, so the rows' per-interval
        # columns sum to the run's totals.
        if run is not None and (
            (index + 1) % OBS_SAMPLE_ACCESSES == 0 or index + 1 == trace_length
        ):
            sample_obs(index + 1)

    while outstanding:
        now = max(now, heapq.heappop(outstanding))
    measured_from = warmup_accesses if warmup_accesses < trace_length else 0
    hierarchy.count_demand(0, front.l1, measured_from, trace_length)

    measured_accesses = len(trace) - min(warmup_accesses, len(trace))
    traffic = {
        category: total - traffic_offset.get(category, 0)
        for category, total in hierarchy.traffic_bytes().items()
    }
    metadata_llc = sum(t.store.llc_accesses for t in triages)
    metadata_dram = pf.metadata_dram_accesses if pf is not None else 0
    if isinstance(pf, HybridPrefetcher):
        metadata_dram = pf.total_metadata_dram_accesses
    manifest = build_manifest(
        kind="queued",
        workloads=[name or trace.name],
        prefetcher=pf.name if pf is not None else "none",
        config=config,
        seeds=[trace.metadata.get("seed")],
        trace_length=len(trace),
        warmup=warmup_accesses,
        instructions=measured_accesses * trace.instr_per_access,
        cycles=now - measured_start_cycle,
        wall_time_s=time.perf_counter() - wall_start,
        extra={
            "engine": "queued",
            "degree": degree,
            "prefetch_queue_depth": prefetch_queue_depth,
        },
    )
    result = SimulationResult(
        workload=name or trace.name,
        prefetcher=pf.name if pf is not None else "none",
        instructions=measured_accesses * trace.instr_per_access,
        cycles=now - measured_start_cycle,
        counters=replace(counters),
        traffic=traffic,
        metadata_llc_accesses=metadata_llc,
        metadata_dram_accesses=metadata_dram,
        manifest=manifest,
    )
    manifest.extra["kpis"] = result.kpis()
    # Engine-specific extras travel in the counters-adjacent fields.
    result.late_prefetch_hits = late_prefetch_hits
    result.dropped_prefetches = dropped_prefetches
    if run is not None:
        _register_run_metrics(session, counters, triages)
        session.registry.counter("queued.dropped_prefetches").inc(dropped_prefetches)
        if sim_span is not None:
            session.tracer.finish(sim_span, "ok")
        run.finish(manifest)
    partition.detach()
    return result
