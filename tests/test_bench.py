"""Tests for the benchmark-trajectory layer (repro.obs.bench).

Covers KPI extraction (per-figure and the generic fallback), the timed
bench harness, trajectory append/load/validate round trips, record
comparison semantics (the one relative tolerance, work counts, schema
drift, incomparable records), and the ``bench``/``compare`` CLI
subcommands with their exit codes.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS
from repro.obs import bench
from repro.obs.manifest import drain_run_log, machine_fingerprint
from repro.sim.config import MachineConfig
from repro.sim.single_core import simulate
from repro.workloads.irregular import chain_trace

MACHINE = MachineConfig.scaled(16)
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    common.clear_caches()
    drain_run_log()
    yield
    obs.disable()
    common.clear_caches()
    drain_run_log()


class _StubExperiment:
    """A registry-shaped experiment that runs instantly."""

    __doc__ = "Stub experiment for bench tests."
    calls = 0

    @staticmethod
    def run(quick=False):
        _StubExperiment.calls += 1
        table = common.ExperimentTable(
            title="stub", headers=["benchmark", "speedup", "label"]
        )
        table.add("alpha", 1.5, "x")
        table.add("geomean", 1.25, "y")
        return table

    main = run


class _StubWithKpis(_StubExperiment):
    @staticmethod
    def kpis(table):
        return {"speedup_geomean": table.row("geomean")[1]}


def _record(**overrides):
    """A minimal schema-valid record for comparison tests."""
    record = {
        "schema": bench.SCHEMA_VERSION,
        "experiment": "stub",
        "quick": True,
        "repeats": 2,
        "warmup": 1,
        "created_unix": 1.0,
        "kpis": {"speedup": 1.25, "coverage": 0.4},
        "wall_times_s": [1.0, 1.1],
        "wall_time_mean_s": 1.05,
        "wall_time_min_s": 1.0,
        "accesses_total": 1000,
        "throughput_accesses_per_s": 952.4,
        "peak_rss_kb": 1,
        "cache": {"enabled": False, "hits": 0, "misses": 0},
        "work": {"sim.accesses": 1000, "triage.meta_store.lookups": 40},
        "fingerprint": machine_fingerprint(),
    }
    record.update(overrides)
    return record


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic_within_process(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_required_fields(self):
        fp = machine_fingerprint()
        for key in ("python", "cpu_count", "package_version", "system"):
            assert key in fp
        assert fp["cpu_count"] >= 1

    def test_returns_a_copy(self):
        fp = machine_fingerprint()
        fp["cpu_count"] = -1
        assert machine_fingerprint()["cpu_count"] >= 1


# ---------------------------------------------------------------------------
# KPI extraction
# ---------------------------------------------------------------------------


class TestKpiExtraction:
    def test_generic_fallback_uses_last_row_numeric_cells(self):
        table = _StubExperiment.run()
        kpis = bench.table_kpis(table)
        assert kpis == {"speedup": 1.25}  # strings and the label col drop out

    def test_module_kpis_hook_wins(self):
        table = _StubWithKpis.run()
        kpis = bench.kpis_for("stub", _StubWithKpis, table)
        assert kpis == {"speedup_geomean": 1.25}

    def test_figure_modules_define_kpis(self):
        for name in ("fig01", "fig05", "fig06", "fig11", "fig19"):
            assert callable(getattr(EXPERIMENTS[name], "kpis", None)), name

    def test_simulation_kpis(self):
        trace = chain_trace("kpi", 4_000, seed=3, hot_lines=64, cold_lines=256)
        result = simulate(trace, None, machine=MACHINE)
        kpis = bench.simulation_kpis(result)
        assert set(kpis) >= {"ipc", "coverage", "accuracy", "traffic_bytes"}
        assert kpis["ipc"] > 0
        drain_run_log()

    def test_fig05_kpis_shape(self):
        from repro.experiments import fig05_irregular_speedup as fig05

        table = common.ExperimentTable(
            title="f", headers=["benchmark"] + fig05.CONFIGS
        )
        table.add("geomean", *[1.0 + i / 10 for i in range(len(fig05.CONFIGS))])
        kpis = fig05.kpis(table)
        assert kpis["speedup_geomean.bo"] == 1.0
        assert len(kpis) == len(fig05.CONFIGS)


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------


class TestTrajectory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_stub.json"
        bench.append_record(path, _record())
        bench.append_record(path, _record(created_unix=2.0))
        records = bench.load_trajectory(path)
        assert len(records) == 2
        assert records[0]["created_unix"] == 1.0  # append-only: order kept
        for record in records:
            bench.validate_record(record)

    def test_load_missing_file_is_empty(self, tmp_path):
        assert bench.load_trajectory(tmp_path / "nope.json") == []

    def test_load_rejects_non_array(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": 1}')
        with pytest.raises(bench.BenchSchemaError, match="JSON array"):
            bench.load_trajectory(path)

    def test_validate_rejects_missing_field(self):
        record = _record()
        del record["kpis"]
        with pytest.raises(bench.BenchSchemaError, match="kpis"):
            bench.validate_record(record)

    def test_validate_rejects_wrong_type(self):
        with pytest.raises(bench.BenchSchemaError, match="wall_time_mean_s"):
            bench.validate_record(_record(wall_time_mean_s="fast"))

    def test_validate_rejects_future_schema(self):
        with pytest.raises(bench.BenchSchemaError, match="schema"):
            bench.validate_record(_record(schema=bench.SCHEMA_VERSION + 1))

    def test_validate_rejects_non_numeric_kpi(self):
        with pytest.raises(bench.BenchSchemaError, match="not numeric"):
            bench.validate_record(_record(kpis={"speedup": "fast"}))


# ---------------------------------------------------------------------------
# the timed harness
# ---------------------------------------------------------------------------


class TestBenchExperiment:
    def test_record_is_schema_valid(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubWithKpis)
        record = bench.bench_experiment("stub", repeats=2, warmup=1, quick=True)
        bench.validate_record(record)
        assert record["experiment"] == "stub"
        assert record["repeats"] == 2
        assert len(record["wall_times_s"]) == 2
        assert record["kpis"] == {"speedup_geomean": 1.25}
        assert record["fingerprint"] == machine_fingerprint()
        assert record["quick"] is True

    def test_warmup_runs_are_untimed(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubExperiment)
        _StubExperiment.calls = 0
        record = bench.bench_experiment("stub", repeats=3, warmup=2)
        assert _StubExperiment.calls == 5
        assert len(record["wall_times_s"]) == 3

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            bench.bench_experiment("fig99")

    def test_bad_repeats_raises(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubExperiment)
        with pytest.raises(ValueError, match="repeats"):
            bench.bench_experiment("stub", repeats=0)

    def test_obs_session_restored(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubExperiment)
        bench.bench_experiment("stub", repeats=1, warmup=0)
        assert obs.get_session() is None  # ephemeral session torn down
        mine = obs.enable()
        bench.bench_experiment("stub", repeats=1, warmup=0)
        assert obs.get_session() is mine  # existing session left in place

    def test_work_counts_merged_from_parallel_workers(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "grid", _GridExperiment)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = bench.bench_experiment("grid", repeats=2, warmup=0)
        monkeypatch.setenv("REPRO_JOBS", "2")
        fanned = bench.bench_experiment("grid", repeats=1, warmup=0)
        assert set(serial["work"]) == set(bench.WORK_COUNTERS)
        assert fanned["work"] == serial["work"]  # one repeat's worth each
        assert serial["work"]["sim.accesses"] > 0
        assert serial["accesses_total"] == 2 * serial["work"]["sim.accesses"]
        assert fanned["throughput_accesses_per_s"] > 0
        assert bench.compare_records(serial, fanned).ok

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_disk_cache_hits_drop_work(self, monkeypatch, tmp_path, jobs):
        from repro import cache

        monkeypatch.setitem(EXPERIMENTS, "grid", _GridExperiment)
        monkeypatch.setenv("REPRO_JOBS", jobs)
        cache.configure(tmp_path)
        try:
            # The warmup fills the disk cache, so the timed repeat is
            # served from it -- in the workers when fanned out.
            record = bench.bench_experiment("grid", repeats=1, warmup=1)
        finally:
            cache.configure(None)
        assert record["cache"]["hits"] > 0
        assert "work" not in record
        bench.validate_record(record)
        comparison = bench.compare_records(_record(experiment="grid",
                                                   quick=False), record)
        assert any("work counts not compared" in n for n in comparison.notes)


class _GridExperiment:
    """An experiment whose run() fans a small grid out under REPRO_JOBS."""

    __doc__ = "Grid stub exercising serial and fanned-out cells."
    BENCHES = ("mcf", "omnetpp")

    @staticmethod
    def run(quick=False):
        common.warm_grid(_GridExperiment.BENCHES, ["none"], n=2_000)
        table = common.ExperimentTable(title="grid", headers=["benchmark", "ipc"])
        for name in _GridExperiment.BENCHES:
            table.add(name, common.run_single(name, "none", n=2_000).ipc)
        return table

    main = run


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


class TestCompare:
    def test_identical_records_pass(self):
        comparison = bench.compare_records(_record(), _record())
        assert comparison.ok and not comparison.notes
        assert "work.sim.accesses" in [row[0] for row in comparison.rows]
        # Older records carry an ``engine`` field and ``cell_latency_s``;
        # they are history, not compare dimensions.
        old = _record(engine="batched", cell_latency_s={"count": 0})
        comparison = bench.compare_records(old, _record())
        assert comparison.ok and not comparison.notes

    def test_kpi_within_tolerance_passes(self):
        # Only the cross-platform libm slack passes: 1e-12 relative.
        candidate = _record()
        candidate["kpis"]["speedup"] *= 1 + 1e-12
        assert bench.compare_records(_record(), candidate).ok

    def test_kpi_past_tolerance_fails_both_directions(self):
        for factor in (1 + 1e-6, 1 - 1e-6):
            candidate = _record()
            candidate["kpis"]["speedup"] *= factor
            comparison = bench.compare_records(_record(), candidate)
            assert not comparison.ok
            assert "speedup" in comparison.regressions[0]

    def test_work_count_off_by_one_fails(self):
        for delta in (1, -1):
            candidate = _record()
            candidate["work"]["triage.meta_store.lookups"] += delta
            comparison = bench.compare_records(_record(), candidate)
            assert not comparison.ok
            assert "triage.meta_store.lookups" in comparison.regressions[0]

    def test_removed_work_count_is_schema_drift(self):
        candidate = _record(work={"sim.accesses": 1000})
        comparison = bench.compare_records(_record(), candidate)
        assert not comparison.ok
        assert any("disappeared" in r for r in comparison.regressions)

    def test_missing_work_is_noted_not_failed(self):
        old = _record()
        del old["work"]
        for baseline, candidate in ((old, _record()), (_record(), old)):
            comparison = bench.compare_records(baseline, candidate)
            assert comparison.ok
            assert any("work counts not compared" in n for n in comparison.notes)

    def test_removed_kpi_is_schema_drift(self):
        candidate = _record(kpis={"speedup": 1.25})
        comparison = bench.compare_records(_record(), candidate)
        assert not comparison.ok
        assert any("disappeared" in r for r in comparison.regressions)

    def test_new_kpi_is_noted_not_failed(self):
        candidate = _record()
        candidate["kpis"]["extra"] = 7.0
        comparison = bench.compare_records(_record(), candidate)
        assert comparison.ok
        assert any("new" in n for n in comparison.notes)

    def test_wall_time_and_fingerprint_are_not_gated(self):
        fp = dict(machine_fingerprint(), cpu_count=999)
        candidate = _record(wall_time_mean_s=100.0, fingerprint=fp)
        comparison = bench.compare_records(_record(), candidate)
        assert comparison.ok and not comparison.notes
        assert "wall_time_mean_s" not in [row[0] for row in comparison.rows]

    def test_different_quick_modes_raise(self):
        with pytest.raises(bench.BenchSchemaError, match="cannot compare quick"):
            bench.compare_records(_record(), _record(quick=False))

    def test_different_experiments_raise(self):
        with pytest.raises(bench.BenchSchemaError, match="cannot compare"):
            bench.compare_records(_record(), _record(experiment="other"))

    def test_render_includes_verdict(self):
        candidate = _record()
        candidate["kpis"]["speedup"] *= 2
        comparison = bench.compare_records(_record(), candidate)
        text = bench.render_comparison(comparison)
        assert "REGRESSION" in text and "verdict: REGRESSED" in text
        assert "speedup" in text

    def test_comparison_to_dict(self):
        payload = bench.compare_records(_record(), _record()).to_dict()
        assert payload["ok"] is True
        assert all("metric" in row for row in payload["rows"])
        json.dumps(payload)  # must be serializable for --json


class TestCommittedTrajectories:
    """Every committed ``BENCH_*.json`` still validates, compares, renders."""

    def test_every_committed_record_validates_compares_and_renders(self):
        from repro.obs.reporting.dashboard import dashboard_data
        from repro.obs.reporting.discover import TrajectoryFile

        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert paths, "no committed trajectories found"
        trajectories = []
        for path in paths:
            records = bench.load_trajectory(path)
            assert len(records) >= 2, path
            for record in records:
                bench.validate_record(record)
            for older, newer in zip(records, records[1:]):
                bench.compare_records(older, newer)  # comparable: no raise
            newest = bench.compare_records(records[-2], records[-1])
            assert newest.ok, (path.name, newest.regressions)
            experiment = path.stem[len("BENCH_"):]
            trajectories.append(
                TrajectoryFile(path=path, experiment=experiment, records=records)
            )
        data = dashboard_data(trajectories)
        assert data["ok"], [e["problems"] for e in data["experiments"]]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_bench_writes_trajectory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubWithKpis)
        out = tmp_path / "BENCH_stub.json"
        assert main(
            ["bench", "stub", "--repeats", "2", "--warmup", "0",
             "--quick", "--out", str(out)]
        ) == 0
        records = bench.load_trajectory(out)
        assert len(records) == 1
        bench.validate_record(records[0])
        assert "speedup_geomean" in capsys.readouterr().out

    def test_bench_default_path_is_cwd(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubExperiment)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "stub", "--repeats", "1", "--warmup", "0"]) == 0
        assert (tmp_path / "BENCH_stub.json").exists()

    def test_bench_no_append_and_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "stub", _StubExperiment)
        out = tmp_path / "BENCH_stub.json"
        assert main(
            ["bench", "stub", "--repeats", "1", "--warmup", "0",
             "--out", str(out), "--no-append", "--json"]
        ) == 0
        assert not out.exists()
        record = json.loads(capsys.readouterr().out)
        bench.validate_record(record)

    def test_bench_unknown_experiment_exits_2(self, capsys):
        assert main(["bench", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_compare_within_one_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_stub.json"
        bench.append_record(path, _record())
        bench.append_record(path, _record(created_unix=2.0))
        assert main(["compare", str(path)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_compare_two_files_regression_exits_1(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        bench.append_record(base, _record())
        perturbed = _record()
        perturbed["kpis"]["speedup"] *= 1.5
        bench.append_record(cand, perturbed)
        assert main(["compare", str(base), str(cand)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_rejects_tolerance_flags(self, tmp_path, capsys):
        # One gate, no knobs: neither command takes a tolerance.
        for command in ("compare", "dashboard"):
            for flag in ("--kpi-tol", "--time-tol"):
                with pytest.raises(SystemExit) as exc:
                    main([command, str(tmp_path), flag, "0.6"])
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_quick_vs_full_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_stub.json"
        bench.append_record(path, _record())
        bench.append_record(path, _record(quick=False))
        assert main(["compare", str(path)]) == 2
        assert "cannot compare quick" in capsys.readouterr().err

    def test_compare_single_record_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_stub.json"
        bench.append_record(path, _record())
        assert main(["compare", str(path)]) == 2
        assert "need two" in capsys.readouterr().err

    def test_compare_schema_drift_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        broken = _record()
        del broken["fingerprint"]
        path.write_text(json.dumps([_record(), broken]))
        assert main(["compare", str(path)]) == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_compare_json_output(self, tmp_path, capsys):
        path = tmp_path / "BENCH_stub.json"
        bench.append_record(path, _record())
        bench.append_record(path, _record(created_unix=2.0))
        assert main(["compare", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
