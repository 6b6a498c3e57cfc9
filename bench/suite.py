"""The four benchmark workloads.

Each workload is a function ``(run, seed)`` that drives the simulator
through its public entry points, one cell at a time, via
``run.cell(identity, accesses, fn, *args)``.  ``seed`` feeds the trace
and mix generators only.  Entry points are looked up on their modules at
call time, so the traced repeat sees the wrappers of :mod:`layers`.

Cell sizes are a fraction of the figure harnesses' ``--quick`` sizes so
that one repeat takes about two seconds and a run times many repeats.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

#: Single-core cells shared by ``irregular_temporal`` and
#: ``parallel_sweep``: equal sizes make equal identities, so one pinned
#: digest checks the serial and the parallel path.
N_SINGLE = 12_000
N_REGULAR = 18_000
N_PER_CORE = 5_000
#: A fixed irregular mix, so the seed changes trace contents but not
#: which benchmarks share the LLC (a random mix would move the run time
#: with the seed).
MIX_NAMES = ("mcf", "omnetpp", "soplex_k", "xalancbmk")
#: Worker processes of ``parallel_sweep`` (the reference box has 2 cores).
PARALLEL_JOBS = 2
#: The Figure 5 ``--quick`` grid.
GRID_BENCHES = ("gcc_166", "mcf", "soplex_k")
GRID_CONFIGS = ("none", "bo", "sms", "triage_512kb", "triage_1mb", "triage_dynamic", "triangel")

#: Imports every layer the serial workloads use (cache and obs included).
_CORE_IMPORTS = ("repro.experiments.common",)


def single_id(bench: str, config: str, n: int, seed: int) -> str:
    return f"{bench}|{config}|{n}|{seed}"


def mix_id(config: str, mix_seed: int) -> str:
    return single_id("mix:" + "+".join(MIX_NAMES), config, N_PER_CORE, mix_seed)


def irregular_temporal(run, seed: int) -> None:
    from repro.experiments import common

    for bench in ("mcf", "omnetpp", "soplex_k"):
        for config in ("none", "triage_1mb", "triage_dynamic", "triangel"):
            run.cell(
                single_id(bench, config, N_SINGLE, seed), N_SINGLE,
                common.run_single, bench, config, n=N_SINGLE, seed=seed,
            )


def regular_spatial(run, seed: int) -> None:
    from repro.experiments import common

    for bench in ("libquantum", "bwaves", "milc", "perlbench"):
        for config in ("none", "bo", "sms"):
            run.cell(
                single_id(bench, config, N_REGULAR, seed), N_REGULAR,
                common.run_single, bench, config, n=N_REGULAR, seed=seed,
            )


def multicore_mix(run, seed: int) -> None:
    from repro.experiments import common

    for mix_seed in (seed, seed + 1):
        for config in ("none", "triage_dynamic", "triangel"):
            run.cell(
                mix_id(config, mix_seed), len(MIX_NAMES) * N_PER_CORE,
                common.run_mix, len(MIX_NAMES), mix_seed, config,
                n_per_core=N_PER_CORE, names=list(MIX_NAMES),
            )


def parallel_sweep(run, seed: int) -> None:
    """A cold grid over worker processes, then the same grid read warm."""
    from repro import cache, obs
    from repro.experiments import common

    store = cache.configure(run.fresh_dir())
    cells = [(b, c) for b in GRID_BENCHES for c in GRID_CONFIGS]
    if run.traced:
        # Workers report each cell's seconds as parallel.cell_done events.
        obs.enable(trace=False, categories=["parallel.cell_done"])
    try:
        computed = run.cell(
            None, len(cells) * N_SINGLE, common.warm_grid, GRID_BENCHES,
            GRID_CONFIGS, n=N_SINGLE, seed=seed, n_jobs=PARALLEL_JOBS,
        )
        if run.traced:
            run.cell_seconds += sum(
                e.fields["seconds"]
                for e in obs.get_session().events.events("parallel.cell_done")
            )
    finally:
        if run.traced:
            obs.disable()
    run.check("cold grid computed every cell", computed == len(cells))
    # The cold results, served from the process memo warm_grid filled.
    for bench, config in cells:
        run.cell(
            single_id(bench, config, N_SINGLE, seed), 0,
            common.run_single, bench, config, n=N_SINGLE, seed=seed,
        )
    common.clear_caches()
    hits, misses = store.hits, store.misses
    for bench, config in cells:
        run.cell(
            single_id(bench, config, N_SINGLE, seed), 0,
            common.run_single, bench, config, n=N_SINGLE, seed=seed,
        )
    run.check(
        "warm grid read every cell from the disk cache",
        (store.hits - hits, store.misses - misses) == (len(cells), 0),
    )


class Workload(NamedTuple):
    run: Callable
    why: str
    #: Modules whose import time is the workload's ``setup_s``.
    imports: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    "irregular_temporal": Workload(
        irregular_temporal,
        "pointer-chasing traces under Triage and Triangel: metadata store, "
        "training unit, partition controller and Hawkeye do the work",
        _CORE_IMPORTS,
    ),
    "regular_spatial": Workload(
        regular_spatial,
        "streaming and strided traces under BO and SMS: cache model and "
        "driver do the work, the metadata store is never called",
        _CORE_IMPORTS,
    ),
    "multicore_mix": Workload(
        multicore_mix,
        "4-core irregular mix on a shared LLC and DRAM: the multi-core "
        "driver and per-core Triage partitions summed into the LLC",
        _CORE_IMPORTS,
    ),
    "parallel_sweep": Workload(
        parallel_sweep,
        "Figure 5 quick grid over 2 worker processes into an empty disk "
        "cache, then read back warm: fan-out and cache do the work",
        _CORE_IMPORTS + ("repro.sim.parallel",),
    ),
}
