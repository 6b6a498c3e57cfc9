"""Tests for the sweep utility."""

from repro.sim.sweep import records_to_csv, sweep


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


def test_sweep_csv():
    records = sweep(
        benchmarks=["mcf"],
        prefetchers={"bo": "bo"},
        n_accesses=4_000,
        scale=16,
    )
    csv_text = records_to_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("workload,config,speedup")
    assert len(lines) == 2
    assert records_to_csv([]) == ""
