"""Multi-core simulation: private L1/L2 per core, shared LLC and DRAM.

Follows the paper's multi-programmed methodology: each core runs its own
trace; cores that exhaust their trace restart it so every benchmark
observes contention for the whole run; Triage computes a per-core
metadata allocation (per-core controllers and stores) and the shared LLC
loses one data way per allocated metadata way.

Bandwidth is the shared resource that makes these runs interesting: all
cores drain the same 32 GB/s DRAM model, so high-traffic prefetchers
(MISB's metadata, BO's inaccurate prefetches) inflate everyone's memory
latency -- the mechanism behind Figures 11, 12 and 17.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import islice
from typing import List, Optional, Sequence

from repro.memory.dram import DramModel
from repro.memory.hierarchy import L1D_HIT, L2_PF_L2, CacheHierarchy
from repro.obs import ObsSession, RunObserver, get_session
from repro.obs.manifest import build_manifest
from repro.prefetchers.base import BasePrefetcher
from repro.prefetchers.hybrid import HybridPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.factory import PrefetcherSpec, make_prefetcher
from repro.sim.front_end import front_end, wrapped
from repro.sim.single_core import (
    TriageColumns,
    _MetadataPartition,
    _open_sim_span,
    _register_dram_metrics,
    _register_run_metrics,
    attach_observability,
    triage_components,
)
from repro.sim.stats import MultiCoreResult, SimulationResult
from repro.sim.timing import EpochLoad, resolve_epoch
from repro.workloads.base import Trace


def simulate_multicore(
    traces: Sequence[Trace],
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    accesses_per_core: Optional[int] = None,
    epoch_accesses: int = 2_000,
    charge_metadata_to_llc: bool = True,
    warmup_accesses_per_core: int = 0,
    obs: Optional[ObsSession] = None,
) -> MultiCoreResult:
    """Simulate one trace per core on a shared LLC + DRAM.

    ``prefetcher`` is instantiated once per core (each core trains its own
    prefetcher, as in ChampSim); Triage instances additionally share the
    LLC partition, with the data-way count tracking the *sum* of per-core
    metadata allocations.

    ``obs`` works as in :func:`repro.sim.single_core.simulate`: explicit
    session, else the globally enabled one, else uninstrumented.
    """
    wall_start = time.perf_counter()
    n_cores = len(traces)
    if n_cores == 0:
        raise ValueError("need at least one trace")
    config = machine or MachineConfig.multi_core(n_cores)
    if config.n_cores != n_cores:
        raise ValueError(
            f"machine is configured for {config.n_cores} cores, got {n_cores} traces"
        )
    if accesses_per_core is None:
        accesses_per_core = min(len(t) for t in traces)

    prefetchers: List[Optional[BasePrefetcher]] = [
        make_prefetcher(prefetcher, degree=degree) for _ in range(n_cores)
    ]
    hierarchy = CacheHierarchy(
        n_cores=n_cores,
        l2_size=config.l2_size,
        l2_ways=config.l2_ways,
        llc_size_per_core=config.llc_size_per_core,
        llc_ways=config.llc_ways,
        llc_policy=config.llc_policy,
    )
    dram = DramModel(
        base_latency_cycles=config.dram_latency_cycles,
        bandwidth_bytes_per_cycle=config.dram_bandwidth_bytes_per_cycle,
    )
    core_triages = [triage_components(pf) for pf in prefetchers]
    all_triages = [t for triages in core_triages for t in triages]
    partition = _MetadataPartition(
        hierarchy, config, all_triages, charge_metadata_to_llc
    )

    session = obs if obs is not None else get_session()
    run: Optional[RunObserver] = None
    sim_span = None
    if session is not None:
        run = session.begin_run(
            "+".join(t.name for t in traces),
            prefetchers[0].name if prefetchers[0] is not None else "none",
        )
        attach_observability(run, all_triages, dram=dram)
        sim_span = _open_sim_span(
            session, run, "analytic-multi",
            "+".join(t.name for t in traces),
            prefetchers[0].name if prefetchers[0] is not None else "none",
            t=wall_start,
        )
    columns = TriageColumns(config, core_triages)

    per_core_metadata_bytes = [0] * n_cores
    per_core_cycles = [0.0] * n_cores
    prev_counters = [(0, 0, 0)] * n_cores
    prev_bytes = 0
    # As in the single-core engine: warmup epochs are never resolved or
    # sampled, so warmup rows stay out of the epoch time-series and
    # ``dram.epoch_log`` holds only measured-window entries; the warmup
    # runs as one segment, the measured window as one per epoch.
    in_warmup = warmup_accesses_per_core > 0
    traffic_offset: dict = {}

    def sample_epoch(loads, epoch_bytes, cycles) -> None:
        """One epoch row: the per-core way split the paper plots (Fig 15/19)."""
        dram_info = dram.epoch_log[-1] if dram.epoch_log else {}
        row = {
            "epoch_bytes": epoch_bytes,
            "llc_data_ways": hierarchy.llc.active_ways,
            "dram_utilization": dram_info.get("utilization", 0.0),
            "dram_queue_penalty_cycles": dram_info.get("queue_penalty_cycles", 0.0),
        }
        for core in range(n_cores):
            prefix = f"c{core}."
            row[prefix + "cycles"] = cycles[core]
            row[prefix + "dram_accesses"] = loads[core].dram_accesses
        columns.fill(row)
        session.registry.histogram("dram.epoch_utilization_pct").observe(
            int(row["dram_utilization"] * 100)
        )
        run.sample_epoch(**row)

    def close_epoch(accesses: int) -> None:
        nonlocal prev_bytes
        if not in_warmup:
            loads = []
            for core in range(n_cores):
                counters = hierarchy.counters[core]
                snap = prev_counters[core]
                loads.append(
                    EpochLoad(
                        instructions=accesses * traces[core].instr_per_access,
                        l2_hits=counters.l2_hits - snap[0],
                        llc_hits=counters.llc_hits - snap[1],
                        dram_accesses=counters.dram_accesses - snap[2],
                        mlp=traces[core].mlp,
                    )
                )
            epoch_bytes = sum(hierarchy.traffic_bytes().values()) - prev_bytes
            cycles = resolve_epoch(loads, epoch_bytes, config, dram)
            for core in range(n_cores):
                per_core_cycles[core] += cycles[core]
            if run is not None:
                sample_epoch(loads, epoch_bytes, cycles)
        for core in range(n_cores):
            counters = hierarchy.counters[core]
            prev_counters[core] = (
                counters.l2_hits,
                counters.llc_hits,
                counters.dram_accesses,
            )
        prev_bytes = sum(hierarchy.traffic_bytes().values())

    steps = warmup_accesses_per_core + accesses_per_core
    fronts = [front_end(trace, config, steps) for trace in traces]
    warmup = min(warmup_accesses_per_core, steps)
    segments = [(0, warmup)] if warmup else []
    epoch = max(epoch_accesses, 1)  # an epoch holds at least one step
    segments += [(start, min(start + epoch, steps)) for start in range(warmup, steps, epoch)]
    # Each step's accesses, one per core, with their front-end results;
    # a core that exhausts its trace restarts it.
    records = zip(*(
        zip(
            wrapped(trace.pcs, steps),
            wrapped(trace.addrs, steps),
            wrapped(trace.writes, steps),
            front.l1,
            front.l1pf,
        )
        for trace, front in zip(traces, fronts)
    ))
    # Bound once: these run on every access.
    access = hierarchy.access
    prefetch = hierarchy.prefetch
    feedback = [pf is not None and pf.wants_feedback for pf in prefetchers]
    drains = [pf is not None and pf.offchip_metadata for pf in prefetchers]
    for start, stop in segments:
        if start == warmup_accesses_per_core > 0:
            # Warmup ends (paper: "we warm the cache ... and measure the
            # behavior of the next N instructions").
            for core in range(n_cores):
                hierarchy.counters[core] = type(hierarchy.counters[core])()
                prev_counters[core] = (0, 0, 0)
                per_core_cycles[core] = 0.0
                per_core_metadata_bytes[core] = 0
            prev_bytes = sum(hierarchy.traffic_bytes().values())
            traffic_offset = hierarchy.traffic_bytes()
            in_warmup = False
            if dram.epoch_log:
                dram.epoch_log.clear()
            columns.mark()
        for step in islice(records, stop - start):
            for core, (pc, addr, is_write, l1, l1pf_offsets) in enumerate(step):
                line = addr >> 6
                # Inlined hierarchy.trains_l2_prefetcher: an L1D hit or
                # a plain L2 hit (0) trains nothing.
                outcome = 0 if l1 == L1D_HIT else access(core, pc, line, is_write, l1)
                if l1pf_offsets:
                    for offset in l1pf_offsets:
                        prefetch(core, line + offset, pc, "l1")
                if outcome:
                    pf = prefetchers[core]
                    if pf is None:
                        continue
                    candidates = pf.observe(pc, line, outcome == L2_PF_L2)
                    for candidate in candidates:
                        source = prefetch(core, candidate.line, pc)
                        if feedback[core]:
                            (candidate.owner or pf).feedback(candidate, source)
                    if drains[core]:
                        metadata_bytes = pf.drain_metadata_traffic()
                        if metadata_bytes:
                            hierarchy.traffic.add("metadata", metadata_bytes)
                            per_core_metadata_bytes[core] += metadata_bytes
        for core, front in enumerate(fronts):
            hierarchy.count_demand(core, front.l1, start, stop)
        close_epoch(stop - start)

    per_core_results = []
    for core in range(n_cores):
        pf = prefetchers[core]
        triages = triage_components(pf)
        metadata_llc = sum(t.store.llc_accesses for t in triages)
        if isinstance(pf, HybridPrefetcher):
            metadata_dram = pf.total_metadata_dram_accesses
        else:
            metadata_dram = pf.metadata_dram_accesses if pf is not None else 0
        counters = hierarchy.counters[core]
        partition_history = []
        final_capacity = None
        for triage in triages:
            if triage.controller is not None:
                partition_history = [
                    d.capacity_bytes for d in triage.controller.decisions
                ]
            if not triage.store.unbounded:
                final_capacity = triage.metadata_capacity_bytes
        per_core_results.append(
            SimulationResult(
                workload=traces[core].name,
                prefetcher=pf.name if pf is not None else "none",
                instructions=accesses_per_core * traces[core].instr_per_access,
                cycles=per_core_cycles[core],
                counters=replace(counters),
                traffic={
                    "demand": counters.dram_accesses * 64,
                    "prefetch": counters.prefetch_fills_from_dram * 64,
                    "writeback": 0,
                    "metadata": per_core_metadata_bytes[core],
                },
                metadata_llc_accesses=metadata_llc,
                metadata_dram_accesses=metadata_dram,
                final_metadata_capacity=final_capacity,
                partition_history=partition_history,
            )
        )
    traffic = {
        category: total - traffic_offset.get(category, 0)
        for category, total in hierarchy.traffic_bytes().items()
    }
    manifest = build_manifest(
        kind="multi",
        workloads=[t.name for t in traces],
        prefetcher=(
            prefetchers[0].name if prefetchers[0] is not None else "none"
        ),
        config=config,
        seeds=[t.metadata.get("seed") for t in traces],
        trace_length=accesses_per_core,
        warmup=warmup_accesses_per_core,
        instructions=sum(r.instructions for r in per_core_results),
        cycles=max(r.cycles for r in per_core_results),
        wall_time_s=time.perf_counter() - wall_start,
        extra={"engine": "analytic", "n_cores": n_cores, "degree": degree},
    )
    result = MultiCoreResult(
        workloads=[t.name for t in traces],
        prefetcher=(
            prefetchers[0].name if prefetchers[0] is not None else "none"
        ),
        per_core=per_core_results,
        traffic=traffic,
        manifest=manifest,
    )
    manifest.extra["kpis"] = result.kpis()
    if run is not None:
        for core in range(n_cores):
            _register_run_metrics(
                session, hierarchy.counters[core], core_triages[core]
            )
        _register_dram_metrics(session, dram)
        if sim_span is not None:
            session.tracer.finish(sim_span, "ok")
        run.finish(manifest)
    partition.detach()
    return result
