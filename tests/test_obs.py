"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro import obs
from repro.core.triage import TriageConfig
from repro.obs.events import TraceEventStream
from repro.obs.manifest import (
    RUN_LOG,
    RunManifest,
    build_manifest,
    drain_run_log,
)
from repro.obs.profiling import PhaseTimer
from repro.obs.registry import (
    NULL_INSTRUMENT,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import render_report
from repro.obs.reporting.discover import load_run_dir
from repro.obs.sampler import EpochSampler
from repro.sim.config import MachineConfig
from repro.sim.single_core import simulate
from repro.workloads.irregular import chain_trace

KB = 1024
MACHINE = MachineConfig.scaled(16)

#: The only traffic categories a result may carry, obs on or off.
TRAFFIC_CATEGORIES = {"demand", "prefetch", "writeback", "metadata"}


@pytest.fixture(autouse=True)
def _no_global_session():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


def small_trace(n=12_000, seed=1):
    trace = chain_trace(
        "chain", n, seed,
        hot_lines=3_000, cold_lines=3_000, hot_fraction=0.8,
        noise=0.0, sequential_frac=0.0,
    )
    trace.metadata["seed"] = seed
    return trace


def triage_cfg():
    return TriageConfig(
        dynamic=True,
        capacities=(0, 16 * KB, 32 * KB),
        epoch_accesses=2_000,
        partition_warmup_epochs=1,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("triage.meta_store.evictions")
        b = reg.counter("triage.meta_store.evictions")
        assert a is b
        a.inc(3)
        assert reg.as_dict() == {"triage.meta_store.evictions": 3}

    def test_rejects_bad_names(self):
        reg = MetricsRegistry()
        for bad in ("", "Upper.case", "double..dot", ".lead", "trail.", "sp ace"):
            with pytest.raises(ValueError, match="bad metric name"):
                reg.counter(bad)

    def test_rejects_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("dram.accesses")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("dram.accesses")

    def test_names_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("triage.meta_store.hits")
        reg.counter("triage.partition.changes")
        reg.gauge("dram.utilization")
        assert reg.names("triage") == [
            "triage.meta_store.hits",
            "triage.partition.changes",
        ]
        # "tri" is not a dotted segment boundary.
        assert reg.names("tri") == []

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(5)
        reg.gauge("a.g").set(2.5)
        reg.reset()
        assert len(reg) == 2
        assert reg.as_dict() == {"a.b": 0, "a.g": 0.0}

    def test_disabled_registry_hands_out_nulls(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x.y")
        assert c is NULL_INSTRUMENT
        c.inc(10)
        c.set(3)
        c.observe(7)
        assert c.dump() == 0
        assert len(reg) == 0
        assert reg.as_dict() == {}


class TestHistogram:
    def test_log2_bucketing(self):
        h = Histogram("h")
        for v in (0, 1, 2, 3, 4, 7, 8, 1023):
            h.observe(v)
        dump = h.dump()
        # bucket upper bounds: 0 -> zeros, 1 -> {1}, 3 -> {2,3}, 7 -> {4..7}
        assert dump["buckets"] == {"0": 1, "1": 1, "3": 2, "7": 2, "15": 1, "1023": 1}
        assert dump["count"] == 8
        assert h.mean == pytest.approx(sum((0, 1, 2, 3, 4, 7, 8, 1023)) / 8)

    def test_overflow_lands_in_last_bucket(self):
        h = Histogram("h", buckets=4)
        h.observe(10**9)
        assert h.counts[-1] == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Histogram("h").observe(-1)


# ---------------------------------------------------------------------------
# trace events
# ---------------------------------------------------------------------------


class TestEvents:
    def test_severity_floor(self):
        stream = TraceEventStream(min_severity="info")
        assert not stream.emit("meta_store.evict", "debug")
        assert stream.emit("partition.decision", "info")
        assert stream.filtered == 1
        assert stream.emitted == 1

    def test_category_prefix_filter(self):
        stream = TraceEventStream(categories=["partition"])
        assert stream.emit("partition.decision")
        assert stream.emit("partition")
        assert not stream.emit("partitioning.other")
        assert not stream.emit("hawkeye.flip")
        assert len(stream) == 2

    def test_ring_is_bounded_but_counts_all(self):
        stream = TraceEventStream(capacity=4)
        for i in range(10):
            stream.emit("c", value=i)
        assert len(stream) == 4
        assert stream.emitted == 10
        assert [e.fields["value"] for e in stream.events()] == [6, 7, 8, 9]

    def test_unknown_severity_raises(self):
        with pytest.raises(ValueError, match="unknown severity"):
            TraceEventStream().emit("c", "fatal")

    def test_jsonl_round_trip(self, tmp_path):
        stream = TraceEventStream()
        stream.emit("partition.decision", "info", capacity_bytes=32768)
        path = stream.write_jsonl(tmp_path / "events.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [
            {
                "seq": 0,
                "category": "partition.decision",
                "severity": "info",
                "capacity_bytes": 32768,
            }
        ]


# ---------------------------------------------------------------------------
# epoch sampler
# ---------------------------------------------------------------------------


class TestSampler:
    def test_sample_shape_and_columns(self):
        s = EpochSampler()
        s.sample(epoch=0, meta_ways=8)
        s.sample(epoch=1, meta_ways=4, coverage=0.5)
        assert len(s) == 2
        assert s.columns() == ["epoch", "meta_ways", "coverage"]
        assert s.column("coverage") == [None, 0.5]

    def test_probes_evaluated_per_sample(self):
        s = EpochSampler()
        box = {"v": 1}
        s.add_probe("probe", lambda: box["v"])
        s.sample(epoch=0)
        box["v"] = 2
        s.sample(epoch=1)
        assert s.column("probe") == [1, 2]
        with pytest.raises(ValueError, match="duplicate probe"):
            s.add_probe("probe", lambda: 0)

    def test_jsonl_and_csv_export(self, tmp_path):
        s = EpochSampler()
        s.sample(epoch=0, meta_ways=8)
        s.sample(epoch=1, meta_ways=4)
        rows = [
            json.loads(line)
            for line in s.to_jsonl(tmp_path / "e.jsonl").read_text().splitlines()
        ]
        assert rows == [{"epoch": 0, "meta_ways": 8}, {"epoch": 1, "meta_ways": 4}]
        csv_lines = s.to_csv(tmp_path / "e.csv").read_text().splitlines()
        assert csv_lines[0] == "epoch,meta_ways"
        assert csv_lines[1:] == ["0,8", "1,4"]


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


class TestManifest:
    def test_round_trip_through_disk(self, tmp_path):
        manifest = build_manifest(
            kind="single",
            workloads=["mcf"],
            prefetcher="triage",
            config=MACHINE,
            seeds=[1],
            trace_length=1000,
            warmup=0,
            instructions=2000.0,
            cycles=5000.0,
            wall_time_s=0.1,
            extra={"engine": "analytic"},
        )
        drain_run_log()  # don't leak into other tests
        path = manifest.write(tmp_path / "manifest.json")
        back = RunManifest.read(path)
        assert back == manifest
        assert back.config["llc_size_per_core"] == MACHINE.llc_size_per_core
        assert back.extra["engine"] == "analytic"

    def test_from_dict_routes_unknown_keys_to_extra(self):
        m = RunManifest.from_dict(
            {"kind": "single", "workloads": ["x"], "prefetcher": "none",
             "config": {}, "future_field": 42}
        )
        assert m.extra == {"future_field": 42}

    def test_run_log_is_drained(self):
        drain_run_log()
        build_manifest(
            kind="single", workloads=["a"], prefetcher="none", config={},
            seeds=[], trace_length=0, warmup=0, instructions=0,
            cycles=0, wall_time_s=0,
        )
        assert len(RUN_LOG) == 1
        drained = drain_run_log()
        assert [m.workloads for m in drained] == [["a"]]
        assert len(RUN_LOG) == 0


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------


class TestProfiling:
    def test_phase_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("trace_gen"):
            pass
        timer.add("l2_stream", 1.5, calls=10)
        timer.add("l2_stream", 0.5, calls=5)
        assert timer.calls["l2_stream"] == 15
        assert timer.seconds["l2_stream"] == pytest.approx(2.0)
        assert timer.total_seconds >= 2.0
        table = timer.table()
        assert "l2_stream" in table and "trace_gen" in table


# ---------------------------------------------------------------------------
# simulator integration
# ---------------------------------------------------------------------------


class TestSimulatorIntegration:
    def test_disabled_path_adds_no_keys(self):
        trace = small_trace()
        result = simulate(trace, triage_cfg(), machine=MACHINE)
        # Hot-path dicts keep exactly the standard categories.
        assert set(result.traffic) == TRAFFIC_CATEGORIES
        # The manifest is always attached (provenance is free).
        assert result.manifest is not None
        assert result.manifest.kind == "single"
        assert result.manifest.seeds == [1]
        assert result.manifest.trace_length == len(trace)
        # But no metric dump rides along when observability is off.
        assert result.manifest.metrics == {}
        drain_run_log()

    def test_enabled_run_samples_way_split_and_events(self, tmp_path):
        trace = small_trace()
        with obs.session(out_dir=tmp_path) as session:
            result = simulate(
                trace, triage_cfg(), machine=MACHINE, epoch_accesses=2_000
            )
            rows = session.sampler.rows
            assert rows, "expected epoch samples"
            for key in ("run", "epoch", "c0.meta_ways", "c0.meta_hit_rate",
                        "llc_data_ways", "dram_utilization", "coverage"):
                assert key in rows[0], key
            # Epochs are numbered consecutively for the single run.
            assert [r["epoch"] for r in rows] == list(range(len(rows)))
            # The dynamic controller emits partition decisions.
            assert session.events.events("partition.decision")
            # Counters were registered and the manifest carries the dump.
            assert session.registry.get("sim.runs").value == 1
            assert session.registry.get("triage.meta_store.lookups").value > 0
            assert result.manifest.metrics["sim.accesses"] == len(trace)
            paths = session.flush()
        assert (tmp_path / "epochs.csv").exists()
        run = load_run_dir(tmp_path)
        assert len(run.epochs) == len(rows)
        assert run.manifests[0]["prefetcher"] == result.prefetcher
        assert paths["metrics"].exists()
        drain_run_log()

    def test_flush_report_round_trip(self, tmp_path):
        trace = small_trace()
        with obs.session(out_dir=tmp_path) as session:
            simulate(trace, triage_cfg(), machine=MACHINE, epoch_accesses=2_000)
            session.flush()
        report = render_report(tmp_path)
        assert "Run manifests" in report
        assert "Epoch time-series" in report
        assert "c0.meta_ways" in report
        assert "Trace events" in report
        drain_run_log()

    def test_explicit_session_beats_global(self, tmp_path):
        trace = small_trace(n=6_000)
        explicit = obs.ObsSession()
        with obs.session(out_dir=tmp_path) as global_session:
            simulate(trace, None, machine=MACHINE, obs=explicit)
        assert len(global_session.sampler) == 0
        assert len(explicit.sampler) > 0
        drain_run_log()

    def test_profile_phase_attribution(self):
        trace = small_trace(n=6_000)
        session = obs.ObsSession(profile=True)
        simulate(trace, triage_cfg(), machine=MACHINE, obs=session)
        phases = {name for name, *_ in session.profiler.sorted_phases()}
        assert "l2_stream" in phases
        assert "l2_prefetcher" in phases
        assert "metadata_store" in phases
        drain_run_log()


# ---------------------------------------------------------------------------
# event ring capacity configuration (REPRO_OBS_EVENTS)
# ---------------------------------------------------------------------------


class TestEventCapacityConfig:
    def test_env_sets_default_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_EVENTS", "16")
        assert TraceEventStream().capacity == 16

    def test_enable_capacity_kwarg(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_EVENTS", "16")
        session = obs.enable(capacity=4)  # explicit beats the environment
        try:
            assert session.events.capacity == 4
        finally:
            obs.disable()

    def test_event_capacity_kwarg_still_works(self):
        assert obs.ObsSession(event_capacity=7).events.capacity == 7

    def test_both_capacity_spellings_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            obs.ObsSession(capacity=4, event_capacity=8)

    def test_invalid_env_warns_once_and_falls_back(self, monkeypatch, capsys):
        from repro import config
        from repro.obs.events import DEFAULT_CAPACITY

        monkeypatch.setenv("REPRO_OBS_EVENTS", "banana")
        monkeypatch.setattr(config, "_WARNED", set())
        assert TraceEventStream().capacity == DEFAULT_CAPACITY
        assert TraceEventStream().capacity == DEFAULT_CAPACITY
        err = capsys.readouterr().err
        assert err.count("REPRO_OBS_EVENTS") == 1  # warn-once

    def test_zero_env_ignored(self, monkeypatch):
        from repro import config
        from repro.obs.events import DEFAULT_CAPACITY

        monkeypatch.setenv("REPRO_OBS_EVENTS", "0")
        monkeypatch.setattr(config, "_WARNED", set())
        assert TraceEventStream().capacity == DEFAULT_CAPACITY

    def test_explicit_invalid_capacity_still_raises(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceEventStream(capacity=0)


# ---------------------------------------------------------------------------
# report: partial artifacts, events tail, machine fingerprint stamping
# ---------------------------------------------------------------------------


class TestReportRobustness:
    def _flushed_dir(self, tmp_path):
        trace = small_trace()
        with obs.session(out_dir=tmp_path) as session:
            simulate(trace, triage_cfg(), machine=MACHINE, epoch_accesses=2_000)
            session.flush()
        drain_run_log()
        return tmp_path

    def test_render_survives_partially_missing_artifacts(self, tmp_path):
        full = self._flushed_dir(tmp_path)
        for missing in ("events.jsonl", "manifests.jsonl", "metrics.json",
                        "epochs.jsonl"):
            (full / missing).unlink()
            report = render_report(full)  # must not raise
            assert "Epoch time-series" in report
        # Everything gone: still renders the empty-epochs placeholder.
        assert "no epoch samples" in render_report(full)

    def test_events_tail_zero_suppresses_tail_dump(self, tmp_path):
        full = self._flushed_dir(tmp_path)
        assert "last events:" in render_report(full, events_tail=8)
        assert "last events:" not in render_report(full, events_tail=0)

    def test_report_cli_events_tail_and_json(self, tmp_path, capsys):
        from repro.__main__ import main

        full = self._flushed_dir(tmp_path)
        assert main(["report", str(full), "--events-tail", "0"]) == 0
        assert "last events:" not in capsys.readouterr().out
        assert main(["report", str(full), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifests"] and payload["epochs"]
        assert payload["manifests"][0]["host"]["cpu_count"] >= 1

    def test_manifest_carries_machine_fingerprint(self):
        from repro.obs.manifest import machine_fingerprint

        trace = small_trace(n=6_000)
        result = simulate(trace, None, machine=MACHINE)
        assert result.manifest.host == machine_fingerprint()
        assert machine_fingerprint() == machine_fingerprint()
        drain_run_log()


# ---------------------------------------------------------------------------
# PhaseTimer spread statistics
# ---------------------------------------------------------------------------


class TestPhaseSpread:
    def test_mean_min_max_tracked(self):
        timer = PhaseTimer()
        timer.add("l2", 1.0)
        timer.add("l2", 3.0)
        timer.add("dram", 2.0)
        name, secs, calls, mean, lo, hi = timer.sorted_phases()[0]
        assert (name, secs, calls) == ("l2", 4.0, 2)
        assert mean == pytest.approx(2.0)
        assert (lo, hi) == (1.0, 3.0)

    def test_batched_add_uses_per_call_average(self):
        timer = PhaseTimer()
        timer.add("x", 10.0, calls=4)
        _, _, calls, mean, lo, hi = timer.sorted_phases()[0]
        assert calls == 4
        assert mean == lo == hi == pytest.approx(2.5)

    def test_sort_is_stable_on_ties(self):
        timer = PhaseTimer()
        timer.add("zeta", 1.0)
        timer.add("alpha", 1.0)
        assert [p[0] for p in timer.sorted_phases()] == ["alpha", "zeta"]

    def test_table_shows_spread_columns(self):
        timer = PhaseTimer()
        timer.add("l2", 1.0)
        table = timer.table()
        for column in ("mean", "min", "max", "share", "calls"):
            assert column in table
