"""Parameter-sweep utility: run a grid of configurations in one call.

``sweep`` is the library's bulk-evaluation front door: give it a set of
workloads and a set of prefetcher configurations (plus optional machine
overrides) and it returns a tidy list of records ready for a table or a
CSV.  Used by several experiment harnesses and handy interactively::

    from repro.sim.sweep import sweep
    records = sweep(
        benchmarks=["mcf", "omnetpp"],
        prefetchers={"bo": "bo", "triage": TriageConfig(...)},
        n_accesses=60_000,
        scale=4,
        n_jobs=4,                      # fan cells over worker processes
        cache_dir="results/cache",     # reuse results across invocations
    )

Cells (every baseline and every configuration run) execute through
:mod:`repro.sim.parallel`, so ``n_jobs > 1`` fans them over a process
pool and ``cache_dir`` (or the ambient ``REPRO_CACHE_DIR``) adds a
persistent disk tier -- both without changing a single reported number
relative to the serial, uncached path.  The cache is also the sweep's
checkpoint: a rerun serves the cells it already holds and runs the rest.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.sim import parallel
from repro.sim.config import MachineConfig
from repro.sim.factory import PrefetcherSpec
from repro.sim.stats import SimulationResult


@dataclass
class SweepRecord:
    """One (workload, configuration) cell of a sweep."""

    workload: str
    config: str
    result: SimulationResult
    baseline: SimulationResult

    @property
    def speedup(self) -> float:
        return self.result.speedup_over(self.baseline)

    @property
    def coverage(self) -> float:
        return self.result.coverage

    @property
    def accuracy(self) -> float:
        return self.result.accuracy

    @property
    def traffic_overhead(self) -> float:
        return self.result.traffic_overhead_vs(self.baseline)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": self.config,
            "speedup": self.speedup,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "traffic_overhead": self.traffic_overhead,
            "ipc": self.result.ipc,
        }


def sweep(
    benchmarks: Sequence[str],
    prefetchers: Dict[str, PrefetcherSpec],
    n_accesses: int = 60_000,
    seed: int = 1,
    scale: int = 4,
    machine: Optional[MachineConfig] = None,
    warmup_fraction: float = 1 / 3,
    degree: int = 1,
    n_jobs: Optional[int] = None,
    cache_dir=None,
    retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    report: Optional[bool] = None,
) -> List[SweepRecord]:
    """Run every (benchmark x prefetcher) combination.

    Each configuration gets a *fresh* prefetcher instance (specs that are
    already-built instances are reused across benchmarks and therefore
    carry state -- pass names/configs/factories to avoid that).

    ``n_jobs`` fans the grid's cells over worker processes
    (``None`` reads ``REPRO_JOBS`` and defaults to serial; results are
    bit-identical to ``n_jobs=1``).  Cells whose spec is an
    already-built instance or a factory callable always run in-process.
    ``cache_dir`` enables the persistent result/trace cache for this and
    later invocations (``None`` keeps whatever ``repro.cache`` is
    already configured with, including ``REPRO_CACHE_DIR``).

    ``retries``/``cell_timeout`` override the ambient resilience policy
    (``REPRO_RETRIES``/``REPRO_CELL_TIMEOUT``): failed or timed-out
    cells are retried with backoff and dead worker pools are respawned.
    Cells whose results the cache already holds are served from it
    without being dispatched, so re-running an interrupted grid picks up
    where it stopped instead of restarting.  See ``docs/resilience.md``.

    ``report=True`` (or ``REPRO_REPORT=1``) drops a self-contained HTML
    report (:mod:`repro.obs.reporting`) into the active obs session's
    output directory after the grid completes; it is a no-op without an
    obs session that has an ``out_dir``.  See ``docs/reporting.md``.
    """
    machine = machine or MachineConfig.scaled(scale)
    warmup = int(n_accesses * warmup_fraction)
    if n_jobs is None:
        n_jobs = parallel.jobs_from_env(default=1)

    cells = []
    for bench in benchmarks:
        cells.append(
            parallel.sweep_cell(
                bench, None, "baseline", n_accesses, seed, scale, machine, warmup
            )
        )
        for config_name, prefetcher_spec in prefetchers.items():
            cells.append(
                parallel.sweep_cell(
                    bench,
                    prefetcher_spec,
                    config_name,
                    n_accesses,
                    seed,
                    scale,
                    machine,
                    warmup,
                    degree=degree,
                )
            )
    results = parallel.run_cells(
        cells,
        n_jobs=n_jobs,
        cache_dir=cache_dir,
        retries=retries,
        cell_timeout=cell_timeout,
    )

    records: List[SweepRecord] = []
    per_bench = 1 + len(prefetchers)
    for b, bench in enumerate(benchmarks):
        baseline = results[b * per_bench]
        for c, config_name in enumerate(prefetchers):
            records.append(
                SweepRecord(
                    workload=bench,
                    config=config_name,
                    result=results[b * per_bench + 1 + c],
                    baseline=baseline,
                )
            )
    if report is None:
        report = os.environ.get("REPRO_REPORT", "") not in ("", "0")
    if report:
        _drop_report()
    return records


def _drop_report() -> None:
    """Flush the active obs session and write a report beside its artifacts.

    Report generation is best-effort decoration of a finished sweep: a
    failure here (e.g. no session output directory) warns on stderr
    rather than discarding the computed records.
    """
    from repro.obs import get_session

    session = get_session()
    if session is None or session.out_dir is None:
        print(
            "warning: sweep(report=True) needs an obs session with an "
            "output directory; skipping report generation",
            file=sys.stderr,
        )
        return
    try:
        session.flush()
        from repro.obs.reporting import generate_report

        paths = generate_report(session.out_dir)
        print(f"sweep report: {paths['html']}", file=sys.stderr)
    except Exception as exc:
        print(f"warning: sweep report generation failed: {exc}", file=sys.stderr)

