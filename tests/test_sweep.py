"""Tests for the sweep utility."""

from repro.sim.sweep import sweep


def test_sweep_produces_grid():
    records = sweep(
        benchmarks=["mcf", "libquantum"],
        prefetchers={"bo": "bo", "none2": None},
        n_accesses=6_000,
        scale=16,
    )
    assert len(records) == 4
    keys = {(r.workload, r.config) for r in records}
    assert ("mcf", "bo") in keys
    none_records = [r for r in records if r.config == "none2"]
    for record in none_records:
        assert record.speedup == 1.0  # identical to its own baseline
