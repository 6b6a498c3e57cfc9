"""Each simulator signal is recorded by one channel, and counted once.

Store evictions, Hawkeye flips and partition decisions are columns of the
epoch rows; the only simulator event is ``partition.apply``, one per real
resize.  An observed ``mcf`` run that evicts from its store, flips Hawkeye
predictions and moves its partition must give row sums equal to the
component counters and the registry, in both analytic engines, and the
queued engine's samples must carry the same columns.

The run is the ``triage_dynamic@epoch500`` store cell of
``test_hotpath_equivalence.py`` without warmup, with candidates of
0/8/16 KB (``scale=64``) instead of 0/128/256 KB: at the cell's own sizes
the store never fills, so its eviction and flip counts are 0 and their
checks would hold vacuously.
"""

from __future__ import annotations

import pytest

from repro import cache, obs
from repro.core.triage import TriagePrefetcher
from repro.experiments import common
from repro.obs.manifest import drain_run_log
from repro.sim.multi_core import simulate_multicore
from repro.sim.queued import simulate_queued
from repro.sim.single_core import simulate

N_ACCESSES = 12_000

#: Every per-Triage column a dynamic Triage run's rows carry.
TRIAGE_COLUMNS = {
    "meta_capacity_bytes",
    "meta_ways",
    "meta_hit_rate",
    "meta_evictions",
    "meta_occupancy",
    "meta_hawkeye_flips",
    "partition_decisions",
    "sandbox_small_hit_rate",
    "sandbox_large_hit_rate",
}


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache.configure(None)
    yield
    cache.configure(None)
    drain_run_log()


def make_triages():
    """A factory of fresh dynamic Triage prefetchers, and what it built."""
    built = []

    def make():
        built.append(
            TriagePrefetcher(
                common.triage_config(dynamic=True, epoch_accesses=500, scale=64)
            )
        )
        return built[-1]

    return make, built


def run(engine: str):
    """One observed run; returns its session and its Triage instances."""
    trace = common.get_trace("mcf", N_ACCESSES)
    make, built = make_triages()
    session = obs.ObsSession()
    if engine == "single":
        simulate(trace, make(), machine=common.MACHINE, obs=session)
    else:
        simulate_multicore(
            [trace, trace], make,
            machine=common.MACHINE.with_cores(2),
            accesses_per_core=N_ACCESSES, obs=session,
        )
    return session, built


def column_sum(rows, name: str) -> int:
    return sum(v for row in rows for k, v in row.items() if k.endswith("." + name))


@pytest.mark.parametrize("engine", ["single", "multi"])
def test_each_signal_is_counted_once(engine):
    session, triages = run(engine)
    rows = session.sampler.rows

    def counter(name: str) -> int:
        return session.registry.get(name).value

    applies = session.events.events("partition.apply")
    assert len(applies) == counter("triage.partition.changes") > 0
    assert {e.category for e in session.events.events()} == {"partition.apply"}
    assert session.events.emitted == len(session.events.events())

    evictions = column_sum(rows, "meta_evictions")
    assert evictions == counter("triage.meta_store.evictions") > 0
    assert evictions == sum(t.store.evictions for t in triages)
    decisions = column_sum(rows, "partition_decisions")
    assert decisions == counter("triage.partition.decisions") > 0
    flips = column_sum(rows, "meta_hawkeye_flips")
    assert flips == sum(t.store.predictor.flips for t in triages) > 0

    for core in range(len(triages)):
        columns = {k.split(".", 1)[1] for k in rows[0] if k.startswith(f"c{core}.")}
        assert TRIAGE_COLUMNS <= columns


def test_queued_samples_carry_the_same_columns():
    make, _ = make_triages()
    session = obs.ObsSession()
    simulate_queued(
        common.get_trace("mcf", N_ACCESSES), make(),
        machine=common.MACHINE, obs=session,
    )
    rows = session.sampler.rows
    assert rows
    for row in rows:
        assert {k[len("c0."):] for k in row if k.startswith("c0.")} == TRIAGE_COLUMNS
    assert {e.category for e in session.events.events()} <= {"partition.apply"}


@pytest.mark.parametrize("engine", ["single", "multi"])
def test_hybrid_columns_are_prefixed_per_triage(engine):
    """A hybrid's Triage instances each get ``c<core>.t<i>.`` columns."""
    trace = common.get_trace("mcf", 3_000)

    def hybrid():
        return common.make_spec("triage_512kb+triangel_512kb", scale=16)

    session = obs.ObsSession()
    if engine == "single":
        simulate(trace, hybrid(), machine=common.MACHINE, obs=session)
        cores = 1
    else:
        simulate_multicore(
            [trace, trace], hybrid, machine=common.MACHINE.with_cores(2), obs=session
        )
        cores = 2
    row = session.sampler.rows[0]
    prefixes = {k.rsplit(".", 1)[0] for k in row if k.endswith(".meta_evictions")}
    assert prefixes == {f"c{core}.t{i}" for core in range(cores) for i in (0, 1)}
