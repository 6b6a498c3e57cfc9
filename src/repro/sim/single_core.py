"""Single-core trace simulation (the paper's Section 4.2 setup).

``simulate(trace, prefetcher=...)`` runs one workload through the Table-1
hierarchy: the trace's L1D outcomes and stride prefetches come from its
memoized front end (:mod:`repro.sim.front_end`), L1D misses walk
L2 -> LLC -> DRAM, the prefetcher trains on the L2 miss + prefetch-hit
stream and inserts into the L2, and Triage's metadata store both
occupies LLC ways (via way partitioning) and is resized on the fly by
the dynamic controller.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import islice
from typing import Dict, List, Optional, Sequence

from repro.core.triage import TriagePrefetcher
from repro.memory.dram import DramModel
from repro.memory.hierarchy import L1D_HIT, L2_PF_L2, CacheHierarchy, CoreCounters
from repro.obs import ObsSession, RunObserver, get_session
from repro.obs.manifest import build_manifest
from repro.prefetchers.base import BasePrefetcher
from repro.prefetchers.hybrid import HybridPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.factory import PrefetcherSpec, make_prefetcher
from repro.sim.front_end import front_end
from repro.sim.stats import SimulationResult
from repro.sim.timing import EpochLoad, resolve_epoch
from repro.workloads.base import Trace


def triage_components(prefetcher: Optional[BasePrefetcher]) -> List[TriagePrefetcher]:
    """All Triage instances inside ``prefetcher`` (hybrids included)."""
    if prefetcher is None:
        return []
    if isinstance(prefetcher, TriagePrefetcher):
        return [prefetcher]
    if isinstance(prefetcher, HybridPrefetcher):
        found: List[TriagePrefetcher] = []
        for component in prefetcher.components:
            found.extend(triage_components(component))
        return found
    return []


def attach_observability(
    run: RunObserver,
    triages: List[TriagePrefetcher],
    dram=None,
) -> None:
    """Point Triage's ``partition.apply`` hook at an observed run.

    The hook is a plain attribute defaulting to ``None``; attaching it is
    the *only* thing that makes Triage emit, so the disabled path stays a
    single ``is None`` check per resize.
    """
    for triage in triages:
        triage.events = run
    if dram is not None:
        dram.epoch_log = []


class TriageColumns:
    """Every engine's per-Triage epoch columns.

    Each Triage instance gets columns prefixed ``c<core>.``, or
    ``c<core>.t<i>.`` when a core's hybrid carries several:
    ``meta_capacity_bytes``, ``meta_ways`` and ``meta_occupancy`` as they
    stand; ``meta_hit_rate``, ``meta_evictions`` and
    ``meta_hawkeye_flips`` over the accesses since the previous row; and
    with a dynamic controller, ``partition_decisions`` since the previous
    row plus the last decision's ``sandbox_small_hit_rate`` and
    ``sandbox_large_hit_rate`` (``None`` before the first decision).
    These rows are the only record of store evictions, Hawkeye flips and
    partition decisions.
    """

    def __init__(
        self,
        config: MachineConfig,
        core_triages: Sequence[Sequence[TriagePrefetcher]],
    ):
        self.config = config
        self._columns = [
            (f"c{core}.t{i}." if len(triages) > 1 else f"c{core}.", triage)
            for core, triages in enumerate(core_triages)
            for i, triage in enumerate(triages)
        ]
        self._prev = [(0, 0, 0, 0, 0)] * len(self._columns)

    @staticmethod
    def _counts(triage: TriagePrefetcher) -> tuple:
        store = triage.store
        controller = triage.controller
        return (
            store.lookups,
            store.lookup_hits,
            store.evictions,
            store.predictor.flips,
            len(controller.decisions) if controller is not None else 0,
        )

    def mark(self) -> None:
        """Count the next row's deltas from now (the warmup boundary)."""
        self._prev = [self._counts(triage) for _, triage in self._columns]

    def fill(self, row: Dict[str, object]) -> None:
        """Add every Triage instance's columns to ``row``."""
        for i, (prefix, triage) in enumerate(self._columns):
            counts = self._counts(triage)
            lookups, hits, evictions, flips, decisions = (
                now - before for now, before in zip(counts, self._prev[i])
            )
            self._prev[i] = counts
            store = triage.store
            capacity = 0 if store.unbounded else store.capacity_bytes
            row[prefix + "meta_capacity_bytes"] = capacity
            row[prefix + "meta_ways"] = self.config.metadata_ways(capacity)
            row[prefix + "meta_hit_rate"] = hits / lookups if lookups else 0.0
            row[prefix + "meta_evictions"] = evictions
            row[prefix + "meta_occupancy"] = store.occupancy()
            row[prefix + "meta_hawkeye_flips"] = flips
            controller = triage.controller
            if controller is not None:
                last = controller.decisions[-1] if controller.decisions else None
                row[prefix + "partition_decisions"] = decisions
                row[prefix + "sandbox_small_hit_rate"] = (
                    last.small_hit_rate if last is not None else None
                )
                row[prefix + "sandbox_large_hit_rate"] = (
                    last.large_hit_rate if last is not None else None
                )


class _MetadataPartition:
    """Keeps the LLC's data ways in sync with Triage's metadata usage."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        config: MachineConfig,
        triages: List[TriagePrefetcher],
        charge_llc: bool = True,
    ):
        self.hierarchy = hierarchy
        self.config = config
        self.triages = triages
        self.charge_llc = charge_llc
        for triage in triages:
            triage.on_partition_change = lambda _capacity: self.apply()
        self.apply()

    def detach(self) -> None:
        """Drop the Triage callbacks once the run is over.

        Each callback refers back to this object and so to the hierarchy:
        a reference cycle that would keep the whole run's cache state
        alive until the next full garbage collection.
        """
        for triage in self.triages:
            triage.on_partition_change = None

    def metadata_bytes(self) -> int:
        return sum(
            t.metadata_capacity_bytes for t in self.triages if not t.store.unbounded
        )

    def apply(self) -> None:
        if not self.charge_llc:
            return
        ways = self.config.metadata_ways(self.metadata_bytes())
        data_ways = self.config.llc_ways - ways
        if data_ways < 1:
            raise ValueError("metadata would consume the entire LLC")
        if data_ways != self.hierarchy.llc.active_ways:
            self.hierarchy.resize_llc_data_ways(data_ways)


def simulate(
    trace: Trace,
    prefetcher: PrefetcherSpec = None,
    machine: Optional[MachineConfig] = None,
    degree: int = 1,
    epoch_accesses: int = 5_000,
    charge_metadata_to_llc: bool = True,
    warmup_accesses: int = 0,
    name: Optional[str] = None,
    obs: Optional[ObsSession] = None,
) -> SimulationResult:
    """Simulate ``trace`` on a single core and return the result.

    ``warmup_accesses`` mirrors the paper's methodology (each SimPoint is
    warmed before measurement): the first N accesses train caches and
    prefetchers but are excluded from every reported statistic.

    ``charge_metadata_to_llc=False`` gives Triage a free metadata store
    on the side (the "optimistic" configuration of Figure 7).

    ``obs`` is an explicit observability session; when omitted the
    globally enabled one (``repro.obs.enable``) is used, and when neither
    exists the run is uninstrumented (the default, zero-overhead path).
    """
    wall_start = time.perf_counter()
    config = machine or MachineConfig.single_core()
    if config.n_cores != 1:
        raise ValueError("simulate() is single-core; use simulate_multicore()")
    pf = make_prefetcher(prefetcher, degree=degree)
    hierarchy = CacheHierarchy(
        n_cores=1,
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
    triages = triage_components(pf)
    partition = _MetadataPartition(
        hierarchy, config, triages, charge_metadata_to_llc
    )

    session = obs if obs is not None else get_session()
    run: Optional[RunObserver] = None
    sim_span = None
    if session is not None:
        run = session.begin_run(
            name or trace.name, pf.name if pf is not None else "none"
        )
        attach_observability(run, triages, dram=dram)
        sim_span = _open_sim_span(
            session, run, "analytic",
            name or trace.name, pf.name if pf is not None else "none",
            t=wall_start,
        )
    columns = TriageColumns(config, [triages])

    counters = hierarchy.counters[0]
    total_cycles = 0.0
    # Epoch snapshots.
    prev = (0, 0, 0)  # (l2_hits, llc_hits, dram_accesses)
    prev_bytes = 0
    prev_coverage = (0, 0)  # (l2_prefetch_hits, would-have-missed)
    #: True until the warmup boundary passes.  Warmup epochs are not
    #: resolved or sampled at all: their rows would pollute the epoch
    #: time-series and leave warmup entries in ``dram.epoch_log`` (which
    #: ``_register_dram_metrics`` folds into the registry), and nothing
    #: downstream consumes warmup cycles -- the boundary resets them.
    #: So the warmup runs as one segment, and the measured window as one
    #: segment per epoch.
    in_warmup = warmup_accesses > 0
    # Warmup offsets, captured when measurement starts.
    traffic_offset: dict = {}
    metadata_llc_offset = 0
    metadata_dram_offset = 0

    def sample_epoch(load: EpochLoad, epoch_bytes: int, cycles: float) -> None:
        """One epoch row for the time-series sampler (observing only)."""
        nonlocal prev_coverage
        dram_info = dram.epoch_log[-1] if dram.epoch_log else {}
        useful = counters.l2_prefetch_hits
        would_miss = useful + counters.l2_demand_misses
        d_useful = useful - prev_coverage[0]
        d_would_miss = would_miss - prev_coverage[1]
        prev_coverage = (useful, would_miss)
        row = {
            "access_idx": counters.accesses,
            "cycles": cycles,
            "l2_hits": load.l2_hits,
            "llc_hits": load.llc_hits,
            "dram_accesses": load.dram_accesses,
            "epoch_bytes": epoch_bytes,
            "llc_data_ways": hierarchy.llc.active_ways,
            "coverage": d_useful / d_would_miss if d_would_miss else 0.0,
            "dram_utilization": dram_info.get("utilization", 0.0),
            "dram_queue_penalty_cycles": dram_info.get("queue_penalty_cycles", 0.0),
        }
        columns.fill(row)
        session.registry.histogram("dram.epoch_utilization_pct").observe(
            int(row["dram_utilization"] * 100)
        )
        run.sample_epoch(**row)

    def close_epoch(accesses: int) -> None:
        nonlocal prev, prev_bytes, total_cycles
        if not in_warmup:
            load = EpochLoad(
                instructions=accesses * trace.instr_per_access,
                l2_hits=counters.l2_hits - prev[0],
                llc_hits=counters.llc_hits - prev[1],
                dram_accesses=counters.dram_accesses - prev[2],
                mlp=trace.mlp,
            )
            epoch_bytes = sum(hierarchy.traffic_bytes().values()) - prev_bytes
            cycles = resolve_epoch([load], epoch_bytes, config, dram)[0]
            total_cycles += cycles
            if run is not None:
                sample_epoch(load, epoch_bytes, cycles)
        prev = (counters.l2_hits, counters.llc_hits, counters.dram_accesses)
        prev_bytes = sum(hierarchy.traffic_bytes().values())

    front = front_end(trace, config)
    n = len(trace)
    warmup = min(warmup_accesses, n)
    segments = [(0, warmup)] if warmup else []
    epoch = max(epoch_accesses, 1)  # an epoch holds at least one access
    segments += [(start, min(start + epoch, n)) for start in range(warmup, n, epoch)]
    records = zip(trace.pcs, trace.addrs, trace.writes, front.l1, front.l1pf)
    # Bound once: these run on every access.
    access = hierarchy.access
    prefetch = hierarchy.prefetch
    prefetch_l1 = hierarchy.prefetch_l1
    feedback = pf is not None and pf.wants_feedback
    drains = pf is not None and pf.offchip_metadata
    observe = pf.observe if pf is not None else None
    for start, stop in segments:
        if start == warmup_accesses > 0:
            # Warmup ends: drop the statistics gathered so far (state in
            # the caches, prefetchers and partition controller persists).
            hierarchy.counters[0] = CoreCounters()
            counters = hierarchy.counters[0]
            traffic_offset = hierarchy.traffic_bytes()
            metadata_llc_offset = sum(t.store.llc_accesses for t in triages)
            if pf is not None:
                metadata_dram_offset = pf.metadata_dram_accesses
                if isinstance(pf, HybridPrefetcher):
                    metadata_dram_offset = pf.total_metadata_dram_accesses
            total_cycles = 0.0
            prev = (0, 0, 0)
            prev_bytes = sum(hierarchy.traffic_bytes().values())
            prev_coverage = (0, 0)
            in_warmup = False
            # Observability state gathered during warmup is dropped so a
            # warmed run reports only measured-window epochs: any stray
            # warmup records would otherwise inflate the folded
            # ``dram.queue_penalty_cycles`` registry counter.
            if dram.epoch_log:
                dram.epoch_log.clear()
            columns.mark()
        for pc, addr, is_write, l1, l1pf_offsets in islice(records, stop - start):
            line = addr >> 6
            # Inlined hierarchy.trains_l2_prefetcher: an L1D hit or a
            # plain L2 hit (0) trains nothing.
            outcome = 0 if l1 == L1D_HIT else access(0, pc, line, is_write, l1)
            if l1pf_offsets:
                prefetch_l1(0, line, pc, l1pf_offsets)
            if outcome and observe is not None:
                candidates = observe(pc, line, outcome == L2_PF_L2)
                for candidate in candidates:
                    source = prefetch(0, candidate.line, pc)
                    if feedback:
                        (candidate.owner or pf).feedback(candidate, source)
                if drains:
                    metadata_bytes = pf.drain_metadata_traffic()
                    if metadata_bytes:
                        hierarchy.traffic.add("metadata", metadata_bytes)
        hierarchy.close_segment(0, front.l1, start, stop)
        close_epoch(stop - start)

    metadata_llc = sum(t.store.llc_accesses for t in triages) - metadata_llc_offset
    metadata_dram = pf.metadata_dram_accesses if pf is not None else 0
    if isinstance(pf, HybridPrefetcher):
        metadata_dram = pf.total_metadata_dram_accesses
    metadata_dram -= metadata_dram_offset
    partition_history = []
    final_capacity = None
    for triage in triages:
        if triage.controller is not None:
            partition_history = [
                d.capacity_bytes for d in triage.controller.decisions
            ]
        if not triage.store.unbounded:
            final_capacity = triage.metadata_capacity_bytes

    measured_accesses = len(trace) - min(warmup_accesses, len(trace))
    traffic = {
        category: total - traffic_offset.get(category, 0)
        for category, total in hierarchy.traffic_bytes().items()
    }
    manifest = build_manifest(
        kind="single",
        workloads=[name or trace.name],
        prefetcher=pf.name if pf is not None else "none",
        config=config,
        seeds=[trace.metadata.get("seed")],
        trace_length=len(trace),
        warmup=warmup_accesses,
        instructions=measured_accesses * trace.instr_per_access,
        cycles=total_cycles,
        wall_time_s=time.perf_counter() - wall_start,
        extra={
            "engine": "analytic",
            "degree": degree,
            "charge_metadata_to_llc": charge_metadata_to_llc,
        },
    )
    result = SimulationResult(
        workload=name or trace.name,
        prefetcher=pf.name if pf is not None else "none",
        instructions=measured_accesses * trace.instr_per_access,
        cycles=total_cycles,
        counters=replace(counters),
        traffic=traffic,
        metadata_llc_accesses=metadata_llc,
        metadata_dram_accesses=metadata_dram,
        final_metadata_capacity=final_capacity,
        partition_history=partition_history,
        manifest=manifest,
    )
    manifest.extra["kpis"] = result.kpis()
    if run is not None:
        _register_run_metrics(session, counters, triages)
        _register_dram_metrics(session, dram)
        if sim_span is not None:
            session.tracer.finish(sim_span, "ok")
        run.finish(manifest)
    partition.detach()
    return result


def _open_sim_span(session, run, engine, workload, prefetcher, t=None):
    """This run's ``sim.run`` span, or ``None`` when tracing is off.

    Under a current trace (a ``sweep.cell`` root, a serve request) the
    span attaches as a child; otherwise it roots a standalone trace
    keyed on the session's deterministic run id.
    """
    tracer = session.tracer
    if not tracer.enabled:
        return None
    attrs = {"engine": engine, "workload": workload, "prefetcher": prefetcher}
    if tracer.current() is not None:
        return tracer.start_span("sim.run", t=t, **attrs)
    return tracer.start_trace("sim.run", run.run_id, t=t, **attrs)


def _register_dram_metrics(session, dram) -> None:
    """Fold a run's DRAM epoch log into the session registry."""
    if dram is not None and getattr(dram, "epoch_log", None):
        session.registry.counter("dram.queue_penalty_cycles").inc(
            int(sum(e["queue_penalty_cycles"] for e in dram.epoch_log))
        )


def _register_run_metrics(session, counters, triages) -> None:
    """Fold one finished core's component stats into the session registry."""
    reg = session.registry
    reg.counter("sim.runs").inc()
    reg.counter("sim.accesses").inc(counters.accesses)
    reg.counter("sim.dram_accesses").inc(counters.dram_accesses)
    reg.counter("sim.prefetches_issued").inc(counters.prefetches_issued)
    reg.counter("sim.prefetches_useful").inc(counters.l2_prefetch_hits)
    for triage in triages:
        store = triage.store
        reg.counter("triage.meta_store.lookups").inc(store.lookups)
        reg.counter("triage.meta_store.hits").inc(store.lookup_hits)
        reg.counter("triage.meta_store.inserts").inc(store.inserts)
        reg.counter("triage.meta_store.evictions").inc(store.evictions)
        if triage.controller is not None:
            reg.counter("triage.partition.decisions").inc(
                len(triage.controller.decisions)
            )
            reg.counter("triage.partition.changes").inc(
                sum(1 for d in triage.controller.decisions if d.changed)
            )
