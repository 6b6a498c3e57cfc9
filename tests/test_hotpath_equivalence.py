"""Hot-path equivalence goldens: the optimized engine must be bit-identical.

PR 5 rewrote the cache fill/replacement hot path (free-way freelist,
policy-owned ``victim()``, ``__slots__`` records).  These goldens were
generated from the *pre-optimization* engine, so any numeric drift here
means the fast path changed simulation semantics -- exactly what the
rewrite promised not to do.

The committed golden covers the full :class:`SimulationResult` surface
(cycles, every counter, per-category traffic, metadata accesses and the
dynamic-partition history) for a grid of representative configurations:
the pure-LRU demand path, a best-offset run, Triage with both a fixed
and a dynamically partitioned Hawkeye metadata store, an SMS run, a
write-heavy streaming run, and Triage over each policy-driven LLC
(``MachineConfig.llc_policy`` other than ``"lru"``).  The SMS, write-heavy
and LLC-policy cells were generated from the engine before the LRU
levels moved to :class:`repro.memory.cache.LruCache`; they pin the
policy-driven ``Cache`` LLC and the dirty/writeback bookkeeping across
that rewrite.

The ``STORE_CELLS`` drive the metadata store's own slow paths, which the
grid above never reaches (its stores never fill and its partitions never
move): a 16 KB store under each replacement policy evicts thousands of
entries, and a dynamic controller on 500-access epochs shrinks the store
and the LLC's data ways mid-run while lines sit in the ways it gives up.
Two more 16 KB cells take the store's other entry paths: the near index
level of ``index_mode="nonuniform"`` and the always-overwrite update of
``use_confidence=False``.  They run at degree 4: at degree 1 the ``mcf``
run never hits its near level and never looks up an entry the ablation
overwrote, so both cells would equal ``mcf/triage@16KB``.  The cells
also pin each store's eviction count.
The first four were generated from the engine before the store and its
policies dropped their per-set preallocation, the last two from the
engine before store entries became packed ints.

The ``FRONT_END_CELLS`` and ``WRAP_CELL`` pin the paths of the L1D and
its stride prefetcher that the grid above never takes: the stride
prefetcher switched off, the stride prefetcher at degree 2, an L2 no
larger than the L1D (so dirty L1D victims are written back into the
L2, into the LLC and to DRAM), and a two-core run whose warmup plus
measured steps wrap each core's trace.  They were generated from the
engine that still walked the L1D inside ``CacheHierarchy.access``.

The ``REGULAR_CELLS`` and ``REGULAR_MIX_CELL`` pin the BO, SMS and
stride paths the grid above leaves out: BO at degree 4 (a candidate
list longer than one), SMS on the streaming ``libquantum`` trace (whose
first touches of a region hit the pattern history table), and a
two-core BO mix (the stride prefetcher's replay and the L2 prefetcher's
calls on more than one core).  They were generated from the engine
whose ``CacheHierarchy.prefetch`` still returned source strings.

Regenerate (only when a change alters results *intentionally*) with::

    PYTHONPATH=src python tests/test_hotpath_equivalence.py --regen
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro import cache
from repro.core.triage import TriagePrefetcher
from repro.experiments import common
from repro.memory.hierarchy import CacheHierarchy
from repro.prefetchers.triangel import TriangelPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.multi_core import simulate_multicore
from repro.sim.single_core import simulate
from repro.workloads import mixes, spec

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "simresult_hotpath.json"

#: Short traces keep the grid under a few seconds yet long enough to
#: exercise warmup, epoch rollover, LLC eviction pressure and at least
#: one dynamic-partition decision.
N_ACCESSES = 12_000

#: (benchmark, prefetcher, LLC policy) cells.  The Triage rows also use
#: the Hawkeye-managed metadata store.  A cell on the default LRU LLC is
#: keyed ``bench/prefetcher``, any other as ``bench/prefetcher@policy``.
CELLS = [
    ("mcf", "none", "lru"),
    ("mcf", "bo", "lru"),
    ("mcf", "triage_1mb", "lru"),
    ("mcf", "triage_dynamic", "lru"),
    ("omnetpp", "triage_dynamic", "lru"),
    ("perlbench", "sms", "lru"),
    ("lbm", "bo", "lru"),  # ~20% writes
    ("mcf", "triage_dynamic", "srrip"),
    ("mcf", "triage_dynamic", "drrip"),
    ("mcf", "triage_dynamic", "hawkeye"),
    ("mcf", "triage_dynamic", "random"),
]

KB = 1024

#: Store-path cells: key -> fresh prefetcher, each run on ``mcf``.
STORE_CELLS = {
    "mcf/triage@16KB": lambda: TriagePrefetcher(
        common.triage_config(capacity=16 * KB)
    ),
    "mcf/triage@16KB:lru": lambda: TriagePrefetcher(
        common.triage_config(capacity=16 * KB, replacement="lru")
    ),
    "mcf/triage@16KB:nonuniform": lambda: TriagePrefetcher(
        common.triage_config(capacity=16 * KB, degree=4, index_mode="nonuniform")
    ),
    "mcf/triage@16KB:noconf": lambda: TriagePrefetcher(
        common.triage_config(capacity=16 * KB, degree=4, use_confidence=False)
    ),
    "mcf/triangel@16KB": lambda: TriangelPrefetcher(
        common.triangel_config(capacity=16 * KB)
    ),
    "mcf/triage_dynamic@epoch500": lambda: TriagePrefetcher(
        common.triage_config(dynamic=True, epoch_accesses=500)
    ),
}

#: L1D/stride path cells: key -> (benchmark, prefetcher, machine overrides).
FRONT_END_CELLS = {
    "bwaves/bo:l1pf=none": ("bwaves", "bo", {"l1_prefetcher": "none"}),
    "bwaves/bo:l1pf_degree=2": ("bwaves", "bo", {"l1_prefetcher_degree": 2}),
    "perlbench/bo:l2=l1": (
        "perlbench", "bo",
        {
            "l2_size": common.MACHINE.l1_size,
            "llc_size_per_core": 4 * common.MACHINE.l1_size,
        },
    ),
}

#: A two-core run on traces of ``WRAP_TRACE`` accesses, each core
#: stepping ``WRAP_WARMUP + WRAP_MEASURED`` times: every trace wraps.
WRAP_CELL = "mix:mcf+lbm/triage_dynamic:wrap"
WRAP_NAMES = ("mcf", "lbm")
WRAP_TRACE = 2_000
WRAP_WARMUP = 1_500
WRAP_MEASURED = 1_500

#: Regular-path cells: key -> (benchmark, prefetcher, degree).
REGULAR_CELLS = {
    "bwaves/bo@degree4": ("bwaves", "bo", 4),
    "libquantum/sms": ("libquantum", "sms", 1),
}

#: A two-core BO mix of two streaming benchmarks, half of each core's
#: steps warmup.
REGULAR_MIX_CELL = "mix:bwaves+libquantum/bo"
REGULAR_MIX_NAMES = ("bwaves", "libquantum")
REGULAR_MIX_ACCESSES = 6_000

REL_TOL = 1e-12  # bit-identical up to float formatting in JSON


def result_fingerprint(result) -> dict:
    """Every numeric field of a SimulationResult, JSON-friendly."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "counters": asdict(result.counters),
        "traffic": dict(result.traffic),
        "metadata_llc_accesses": result.metadata_llc_accesses,
        "metadata_dram_accesses": result.metadata_dram_accesses,
        "final_metadata_capacity": result.final_metadata_capacity,
        "partition_history": list(result.partition_history),
    }


def cell_key(bench: str, pf: str, llc_policy: str) -> str:
    return f"{bench}/{pf}" if llc_policy == "lru" else f"{bench}/{pf}@{llc_policy}"


def store_cell_fingerprint(make_prefetcher) -> dict:
    """A store cell's result fingerprint plus its store's eviction count."""
    prefetcher = make_prefetcher()
    result = simulate(
        common.get_trace("mcf", N_ACCESSES),
        prefetcher,
        machine=common.MACHINE,
        warmup_accesses=int(N_ACCESSES * common.WARMUP_FRACTION),
    )
    fingerprint = result_fingerprint(result)
    fingerprint["store_evictions"] = prefetcher.store.evictions
    return fingerprint


def front_end_cell_fingerprint(bench: str, pf: str, overrides: dict) -> dict:
    return result_fingerprint(
        common.run_single(
            bench, pf, n=N_ACCESSES, machine=replace(common.MACHINE, **overrides)
        )
    )


def regular_cell_fingerprint(bench: str, pf: str, degree: int) -> dict:
    return result_fingerprint(
        common.run_single(bench, pf, n=N_ACCESSES, degree=degree)
    )


def regular_mix_fingerprint() -> dict:
    """The two-core BO mix: each core's fingerprint, total traffic."""
    result = common.run_mix(
        len(REGULAR_MIX_NAMES), 1, "bo",
        n_per_core=REGULAR_MIX_ACCESSES, names=list(REGULAR_MIX_NAMES),
    )
    return {
        "per_core": {
            f"c{core}": result_fingerprint(core_result)
            for core, core_result in enumerate(result.per_core)
        },
        "traffic": dict(result.traffic),
    }


def wrap_traces() -> list:
    return [
        spec.make_trace(
            name, n_accesses=WRAP_TRACE, seed=seed, arena=arena,
            scale=common.MULTI_SCALE,
        )
        for name, seed, arena in mixes.mix_cores(
            len(WRAP_NAMES), 1, names=list(WRAP_NAMES)
        )
    ]


def wrap_cell_fingerprint() -> dict:
    """The wrapping two-core run: each core's fingerprint, total traffic."""
    result = simulate_multicore(
        wrap_traces(),
        lambda: common.make_spec("triage_dynamic", scale=common.MULTI_SCALE),
        machine=MachineConfig.scaled(common.MULTI_SCALE, n_cores=len(WRAP_NAMES)),
        accesses_per_core=WRAP_MEASURED,
        warmup_accesses_per_core=WRAP_WARMUP,
    )
    return {
        "per_core": {
            f"c{core}": result_fingerprint(core_result)
            for core, core_result in enumerate(result.per_core)
        },
        "traffic": dict(result.traffic),
    }


def compute_grid() -> dict:
    common.clear_caches()
    try:
        grid = {
            cell_key(bench, pf, policy): result_fingerprint(
                common.run_single(
                    bench, pf, n=N_ACCESSES,
                    machine=replace(common.MACHINE, llc_policy=policy),
                )
            )
            for bench, pf, policy in CELLS
        }
        for key, make_prefetcher in STORE_CELLS.items():
            grid[key] = store_cell_fingerprint(make_prefetcher)
        for key, cell in FRONT_END_CELLS.items():
            grid[key] = front_end_cell_fingerprint(*cell)
        grid[WRAP_CELL] = wrap_cell_fingerprint()
        for key, cell in REGULAR_CELLS.items():
            grid[key] = regular_cell_fingerprint(*cell)
        grid[REGULAR_MIX_CELL] = regular_mix_fingerprint()
        return grid
    finally:
        common.clear_caches()


def assert_cell_equal(got: dict, want: dict, where: str) -> None:
    assert set(got) == set(want), f"{where}: field set changed"
    for key, want_value in want.items():
        got_value = got[key]
        if key == "per_core":
            for core, want_core in want_value.items():
                assert_cell_equal(got_value[core], want_core, f"{where}.{core}")
        elif isinstance(want_value, dict):
            assert set(got_value) == set(want_value), f"{where}.{key}: keys changed"
            for sub, want_sub in want_value.items():
                assert math.isclose(
                    got_value[sub], want_sub, rel_tol=REL_TOL, abs_tol=0.0
                ), f"{where}.{key}.{sub}: {got_value[sub]!r} != {want_sub!r}"
        elif isinstance(want_value, list):
            assert got_value == want_value, f"{where}.{key}: {got_value!r} != {want_value!r}"
        elif isinstance(want_value, float):
            assert math.isclose(
                got_value, want_value, rel_tol=REL_TOL, abs_tol=0.0
            ), f"{where}.{key}: {got_value!r} != {want_value!r}"
        else:
            assert got_value == want_value, f"{where}.{key}: {got_value!r} != {want_value!r}"


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache.configure(None)
    yield
    cache.configure(None)


def test_simulation_results_match_pre_optimization_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["n_accesses"] == N_ACCESSES
    grid = compute_grid()
    assert set(grid) == set(golden["cells"]), "cell grid changed; regenerate"
    for cell, want in golden["cells"].items():
        assert_cell_equal(grid[cell], want, cell)


def test_golden_pins_writebacks_on_every_llc_kind():
    """The grid must reach the dirty-eviction path on both LLC kinds."""
    cells = json.loads(GOLDEN_PATH.read_text())["cells"]
    for bench, pf, policy in CELLS:
        key = cell_key(bench, pf, policy)
        assert cells[key]["traffic"]["writeback"] > 0, key


def test_store_cells_reach_eviction_and_resize_paths():
    """Each store cell evicts from the store or moves the partition."""
    cells = json.loads(GOLDEN_PATH.read_text())["cells"]
    for key in STORE_CELLS:
        cell = cells[key]
        assert (
            cell["store_evictions"] > 0 or len(set(cell["partition_history"])) >= 2
        ), key


def test_near_and_overwrite_cells_differ_from_the_plain_store():
    """The nonuniform and confidence-off cells each move a result away
    from the same degree-4 store without either feature: the near level
    serves lookups the far array would have charged, and the ablation
    overwrites entries the confidence bit would have kept."""
    cells = json.loads(GOLDEN_PATH.read_text())["cells"]
    common.clear_caches()
    try:
        plain = store_cell_fingerprint(
            lambda: TriagePrefetcher(common.triage_config(capacity=16 * KB, degree=4))
        )
    finally:
        common.clear_caches()
    near = cells["mcf/triage@16KB:nonuniform"]
    assert near["metadata_llc_accesses"] < plain["metadata_llc_accesses"]
    assert cells["mcf/triage@16KB:noconf"]["cycles"] != plain["cycles"]


def test_front_end_cells_reach_their_paths():
    """Each L1D/stride cell takes the path it was added for."""
    cells = json.loads(GOLDEN_PATH.read_text())["cells"]
    off = cells["bwaves/bo:l1pf=none"]["counters"]
    assert off["l1pf_issued"] == off["l1pf_redundant"] == off["l1pf_useful"] == 0
    deep = cells["bwaves/bo:l1pf_degree=2"]["counters"]
    # At degree 1 the stride prefetcher issues at most once per access.
    assert deep["l1pf_issued"] > 0
    assert deep["l1pf_issued"] + deep["l1pf_redundant"] > deep["accesses"]
    assert cells["perlbench/bo:l2=l1"]["traffic"]["writeback"] > 0


def test_dirty_l1_victims_land_at_every_level(monkeypatch):
    """In the cell whose L2 is no larger than its L1D, dirty L1D victims
    are written back into the L2, into the LLC and to DRAM.

    Nothing touches a victim after its write-back, so where it sits once
    ``access`` returns is where it went: still in the L2, else in the
    LLC, else DRAM took it.
    """
    landed = Counter()
    original = CacheHierarchy.access

    def access(self, core, pc, line, is_write, l1):
        outcome = original(self, core, pc, line, is_write, l1)
        if l1 >= 0:
            if self.l2s[core].contains(l1):
                landed["l2"] += 1
            elif self.llc.contains(l1):
                landed["llc"] += 1
            else:
                landed["dram"] += 1
        return outcome

    monkeypatch.setattr(CacheHierarchy, "access", access)
    common.clear_caches()
    try:
        front_end_cell_fingerprint(*FRONT_END_CELLS["perlbench/bo:l2=l1"])
    finally:
        common.clear_caches()
    assert all(landed[level] > 0 for level in ("l2", "llc", "dram")), landed


def test_wrap_cell_wraps_every_trace():
    """The two-core cell steps past the end of each core's trace."""
    traces = wrap_traces()
    assert all(len(trace) == WRAP_TRACE for trace in traces)
    assert (WRAP_WARMUP + WRAP_MEASURED) // WRAP_TRACE > 0
    assert any(any(trace.writes) for trace in traces)
    cell = json.loads(GOLDEN_PATH.read_text())["cells"][WRAP_CELL]
    assert set(cell["per_core"]) == {f"c{core}" for core in range(len(WRAP_NAMES))}
    for core in cell["per_core"].values():
        assert core["counters"]["accesses"] == WRAP_MEASURED


def test_regular_cells_reach_their_paths(monkeypatch):
    """BO at degree 4 issues up to four prefetches per trained access,
    SMS on ``libquantum`` hits its pattern history table, both mix cores
    replay stride prefetches and issue BO's, and no regular cell equals
    another cell of the golden."""
    cells = json.loads(GOLDEN_PATH.read_text())["cells"]
    deep = cells["bwaves/bo@degree4"]["counters"]
    # The L2 miss + prefetch-hit stream BO trains on.
    trained = sum(
        deep[field]
        for field in ("l2_prefetch_hits", "l1pf_useful", "llc_hits", "dram_accesses")
    )
    assert deep["prefetches_issued"] + deep["prefetches_redundant"] > 2 * trained
    for core in cells[REGULAR_MIX_CELL]["per_core"].values():
        assert core["counters"]["l1pf_issued"] > 0
        assert core["counters"]["prefetches_issued"] > 0
    for key in (*REGULAR_CELLS, REGULAR_MIX_CELL):
        assert all(cells[key] != cells[other] for other in cells if other != key), key

    from repro.prefetchers.sms import SmsPrefetcher

    hits = Counter()
    original = SmsPrefetcher.observe

    def observe(self, pc, line, prefetch_hit=False):
        candidates = original(self, pc, line, prefetch_hit)
        hits["pht"] += bool(candidates)
        return candidates

    monkeypatch.setattr(SmsPrefetcher, "observe", observe)
    common.clear_caches()
    try:
        regular_cell_fingerprint(*REGULAR_CELLS["libquantum/sms"])
    finally:
        common.clear_caches()
    assert hits["pht"] > 0


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {"n_accesses": N_ACCESSES, "cells": compute_grid()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['cells'])} cells)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
