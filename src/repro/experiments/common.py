"""Shared experiment infrastructure.

All experiments run on a machine scaled down from Table 1 by
:data:`SCALE` (see ``MachineConfig.scaled``) with workloads shrunk by the
same factor, so every capacity ratio the paper's evaluation depends on is
preserved while Python-speed simulation stays tractable.  The metadata
store candidates scale identically: the paper's {0, 512 KB, 1 MB} become
{0, 512/SCALE KB, 1024/SCALE KB}; figure harnesses still label them with
the paper's names ("Triage_512KB", "Triage_1MB").

Simulation results are memoized per (workload, prefetcher, machine) so
figures that share configurations (e.g. Figures 5, 6 and 12) reuse runs
within one process.  Traces are memoized too, multi-core ones included:
every configuration run on a mix reads the same per-core traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.manifest import log_cached_manifest
from repro.sim import factory
from repro.sim.config import MachineConfig
from repro.sim.factory import (  # noqa: F401 -- re-exported for the harnesses
    EPOCH_ACCESSES,
    SCALE,
    capacities_for_scale,
    label,
    triage_config,
    triangel_config,
)
from repro.sim.multi_core import simulate_multicore
from repro.sim.single_core import simulate
from repro.sim.stats import MultiCoreResult, SimulationResult
from repro.workloads import cloudsuite, mixes, spec

#: The paper's 512 KB and 1 MB metadata store candidates, scaled.
_, CAP_SMALL, CAP_LARGE = capacities_for_scale(SCALE)

#: Default single-core trace length (accesses).  A third of each trace
#: is warmup (paper: 200 M-instruction warmup before each SimPoint); the
#: length is chosen so warm-tier reuse is in steady state within the
#: measured region.
N_SINGLE = 240_000
N_SINGLE_QUICK = 60_000
WARMUP_FRACTION = 1 / 3

#: Multi-core experiments shrink further so 16-core mixes stay tractable.
MULTI_SCALE = 8
N_MULTI = 30_000
N_MULTI_QUICK = 15_000

MACHINE = MachineConfig.scaled(SCALE)


def make_spec(name: str, degree: int = 1, scale: int = SCALE):
    """Build a prefetcher by name (:data:`repro.sim.factory.TABLE`) for a
    machine at ``scale``.

    Returns a fresh instance per call (required for multi-core runs).
    Multi-core helpers pass ``scale=MULTI_SCALE`` so Triage's store
    candidates shrink with the multi-core machine.
    """
    return factory.build(name, degree, scale)


# -- memoized simulation runs ---------------------------------------------
#
# Two tiers: a process-local dict (figures sharing configurations reuse
# runs within one invocation) in front of the optional persistent disk
# cache (:mod:`repro.cache`, enabled via ``REPRO_CACHE_DIR`` or
# ``python -m repro run --cache-dir``), which survives across processes.
# Tests and benchmarks reset the process tier with :func:`clear_caches`
# rather than reaching into the private dicts.

_TRACE_CACHE: Dict[Tuple, object] = {}
_RUN_CACHE: Dict[Tuple, SimulationResult] = {}


def clear_caches() -> None:
    """Empty every process-local memo (disk cache entries are untouched)."""
    from repro.sim import parallel

    _TRACE_CACHE.clear()
    _RUN_CACHE.clear()
    _MIX_CACHE.clear()
    parallel.clear_trace_memo()


def _disk_cache():
    from repro import cache

    return cache.get_cache()


def _run_single_disk_key(
    suite: str,
    bench: str,
    prefetcher: str,
    n: int,
    seed: int,
    degree: int,
    machine: MachineConfig,
    charge_metadata_to_llc: bool,
) -> str:
    from repro import cache

    return cache.run_key(
        namespace="experiments.run_single",
        workload={
            "suite": suite,
            "bench": bench,
            "n_accesses": n,
            "seed": seed,
            "scale": SCALE,
        },
        prefetcher=cache.spec_fingerprint(prefetcher),
        machine=machine,
        degree=degree,
        warmup=int(n * WARMUP_FRACTION),
        charge_metadata_to_llc=charge_metadata_to_llc,
    )


def run_single_cache_key(
    bench: str,
    prefetcher: str,
    n: Optional[int] = None,
    seed: int = 1,
    degree: int = 1,
    suite: str = "spec",
    machine: Optional[MachineConfig] = None,
    charge_metadata_to_llc: bool = True,
) -> str:
    """The disk key a :func:`run_single` call's result lands under.

    Mirrors :func:`run_single`'s defaulting exactly (same signature), so
    :func:`repro.sim.parallel.run_cells` can serve a cell's cached
    result without dispatching it.  Raises :class:`repro.cache.UncacheableSpec` for specs
    with no stable fingerprint.
    """
    n = n or N_SINGLE
    return _run_single_disk_key(
        suite, bench, prefetcher, n, seed, degree,
        machine or MACHINE, charge_metadata_to_llc,
    )


def get_trace(bench: str, n: int, seed: int = 1, suite: str = "spec"):
    """Build (and cache) a scaled trace for a named benchmark.

    Process memo first, then the persistent disk tier (when a cache is
    configured), then the generator.
    """
    key = (suite, bench, n, seed, SCALE)
    if key not in _TRACE_CACHE:
        disk = _disk_cache()
        disk_key = None
        if disk is not None:
            from repro import cache

            disk_key = cache.trace_key(suite, bench, n, seed, SCALE)
            cached = disk.get_trace(disk_key)
            if cached is not None:
                _TRACE_CACHE[key] = cached
                return cached
        maker = spec.make_trace if suite == "spec" else cloudsuite.make_trace
        _TRACE_CACHE[key] = maker(bench, n_accesses=n, seed=seed, scale=SCALE)
        if disk_key is not None:
            disk.put_trace(disk_key, _TRACE_CACHE[key])
    return _TRACE_CACHE[key]


def _core_trace(suite: str, bench: str, n: int, seed: int, arena: int):
    """One core's trace for a multi-core run, on the multi-core machine.

    Memoized in the process tier of :data:`_TRACE_CACHE`, so every
    configuration run on a mix shares its traces.  The key carries the
    arena, so it never collides with a single-core key.
    """
    key = (suite, bench, n, seed, MULTI_SCALE, arena)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        maker = spec.make_trace if suite == "spec" else cloudsuite.make_trace
        trace = _TRACE_CACHE[key] = maker(
            bench, n_accesses=n, seed=seed, arena=arena, scale=MULTI_SCALE
        )
    return trace


def run_single(
    bench: str,
    prefetcher: str,
    n: Optional[int] = None,
    seed: int = 1,
    degree: int = 1,
    suite: str = "spec",
    machine: Optional[MachineConfig] = None,
    charge_metadata_to_llc: bool = True,
) -> SimulationResult:
    """One memoized single-core run of ``bench`` under ``prefetcher``."""
    n = n or N_SINGLE
    machine_key = machine or MACHINE
    key = (
        suite, bench, prefetcher, n, seed, degree,
        machine_key, charge_metadata_to_llc,
    )
    if key not in _RUN_CACHE:
        disk = _disk_cache()
        disk_key = None
        if disk is not None:
            disk_key = _run_single_disk_key(
                suite, bench, prefetcher, n, seed, degree,
                machine_key, charge_metadata_to_llc,
            )
            cached = disk.get_result(disk_key)
            if cached is not None:
                _RUN_CACHE[key] = cached
                log_cached_manifest(cached)
                return cached
        trace = get_trace(bench, n, seed, suite)
        _RUN_CACHE[key] = simulate(
            trace,
            make_spec(prefetcher, degree),
            machine=machine_key,
            charge_metadata_to_llc=charge_metadata_to_llc,
            warmup_accesses=int(n * WARMUP_FRACTION),
        )
        if disk_key is not None:
            disk.put_result(disk_key, _RUN_CACHE[key])
    return _RUN_CACHE[key]


def warm_grid(
    benches: Sequence[str],
    prefetchers: Sequence[str],
    n: Optional[int] = None,
    seed: int = 1,
    degree: int = 1,
    suite: str = "spec",
    n_jobs: Optional[int] = None,
    retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> int:
    """Precompute a (benchmark x prefetcher) grid of :func:`run_single`.

    Fans the not-yet-memoized cells over worker processes
    (:mod:`repro.sim.parallel`) and primes :data:`_RUN_CACHE`, so a
    figure harness's serial loop afterwards only does table assembly.
    ``n_jobs=None`` reads ``REPRO_JOBS`` and stays a no-op when that
    requests a serial run (the harness loop computes the same cells
    lazily, so skipping here avoids doing the work twice).  Returns the
    number of cells actually computed.

    ``retries``/``cell_timeout`` feed the resilience layer
    (:mod:`repro.resilience`); left as ``None`` they follow
    ``REPRO_RETRIES``/``REPRO_CELL_TIMEOUT``, which is how the figure
    harnesses inherit the CLI's ``--retries`` / ``--cell-timeout``
    flags.
    """
    from repro.sim import parallel

    n = n or N_SINGLE
    if n_jobs is None:
        n_jobs = parallel.jobs_from_env(default=1)
    if n_jobs <= 1:
        return 0
    cells = []
    keys = []
    for bench in benches:
        for prefetcher in prefetchers:
            key = (suite, bench, prefetcher, n, seed, degree, MACHINE, True)
            if key in _RUN_CACHE:
                continue
            keys.append(key)
            cells.append(
                parallel.run_single_cell(
                    bench=bench,
                    prefetcher=prefetcher,
                    n=n,
                    seed=seed,
                    degree=degree,
                    suite=suite,
                )
            )
    if not cells:
        return 0
    results = parallel.run_cells(
        cells,
        n_jobs=n_jobs,
        retries=retries,
        cell_timeout=cell_timeout,
    )
    for key, result in zip(keys, results):
        _RUN_CACHE[key] = result
    return len(cells)


def run_mix(
    n_cores: int,
    mix_seed: int,
    prefetcher: str,
    n_per_core: int = N_MULTI,
    irregular_only: bool = True,
    names: Optional[List[str]] = None,
    degree: int = 1,
) -> MultiCoreResult:
    """One multi-core mix run on the multi-core scaled machine."""
    machine = MachineConfig.scaled(MULTI_SCALE, n_cores=n_cores)
    traces = [
        _core_trace("spec", name, n_per_core, trace_seed, arena)
        for name, trace_seed, arena in mixes.mix_cores(
            n_cores, mix_seed, irregular_only, names
        )
    ]
    # A callable spec builds one fresh prefetcher per core.  Half the run
    # is warmup, as in the paper's multi-core methodology (warm 30 M,
    # measure 30 M).
    return simulate_multicore(
        traces,
        lambda: make_spec(prefetcher, degree, scale=MULTI_SCALE),
        machine=machine,
        accesses_per_core=n_per_core // 2,
        warmup_accesses_per_core=n_per_core // 2,
    )


# -- table rendering ---------------------------------------------------------


@dataclass
class ExperimentTable:
    """A figure's regenerated data: headers + rows + free-form notes."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def column(self, header: str) -> List[object]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row(self, first_cell: object) -> List[object]:
        for row in self.rows:
            if row[0] == first_cell:
                return row
        raise KeyError(first_cell)

    def to_csv(self) -> str:
        """The table as CSV (floats at full precision), for plotting."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def __str__(self) -> str:
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.3f}"
            return str(cell)

        table = [self.headers] + [[fmt(c) for c in row] for row in self.rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(self.headers))]
        lines = [f"== {self.title} =="]
        for i, row in enumerate(table):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def pct(ratio: float) -> float:
    """Speedup ratio -> percent improvement (1.235 -> 23.5)."""
    return (ratio - 1.0) * 100.0


_MIX_CACHE: Dict[Tuple, MultiCoreResult] = {}


def run_mix_cached(
    n_cores: int,
    mix_seed: int,
    prefetcher: str,
    n_per_core: int = N_MULTI,
    irregular_only: bool = True,
    names_key: Optional[Tuple[str, ...]] = None,
    degree: int = 1,
) -> MultiCoreResult:
    """Memoized :func:`run_mix` (process memo + optional disk tier)."""
    key = (n_cores, mix_seed, prefetcher, n_per_core, irregular_only, names_key, degree)
    if key not in _MIX_CACHE:
        disk = _disk_cache()
        disk_key = None
        if disk is not None:
            from repro import cache

            disk_key = cache.generic_key(
                "experiments.run_mix",
                {
                    "n_cores": n_cores,
                    "mix_seed": mix_seed,
                    "prefetcher": prefetcher,
                    "n_per_core": n_per_core,
                    "irregular_only": irregular_only,
                    "names": list(names_key) if names_key else None,
                    "degree": degree,
                    "multi_scale": MULTI_SCALE,
                },
            )
            cached = disk.get_result(disk_key)
            if cached is not None:
                _MIX_CACHE[key] = cached
                log_cached_manifest(cached)
                return cached
        _MIX_CACHE[key] = run_mix(
            n_cores,
            mix_seed,
            prefetcher,
            n_per_core=n_per_core,
            irregular_only=irregular_only,
            names=list(names_key) if names_key else None,
            degree=degree,
        )
        if disk_key is not None:
            disk.put_result(disk_key, _MIX_CACHE[key])
    return _MIX_CACHE[key]


def run_cloudsuite_4core(
    bench: str,
    prefetcher: str,
    n_per_core: int = N_MULTI,
    degree: int = 1,
) -> MultiCoreResult:
    """Run a CloudSuite-like benchmark in 4-core rate mode.

    The CRC-2 traces are 4-core full-system samples; we approximate with
    four differently-seeded instances of the same server workload in
    disjoint arenas sharing the LLC and DRAM.
    """
    key = ("cloudsuite", bench, prefetcher, n_per_core, degree)
    if key in _MIX_CACHE:
        return _MIX_CACHE[key]
    machine = MachineConfig.scaled(MULTI_SCALE, n_cores=4)
    traces = [
        _core_trace("cloudsuite", bench, n_per_core, 10 + core, 2000 + core * 40)
        for core in range(4)
    ]
    result = simulate_multicore(
        traces,
        lambda: make_spec(prefetcher, degree, scale=MULTI_SCALE),
        machine=machine,
        accesses_per_core=n_per_core // 2,
        warmup_accesses_per_core=n_per_core // 2,
    )
    _MIX_CACHE[key] = result
    return result
