"""Tests for causal tracing, SLO burn rates and the exposition surface.

The contract under test is the observability tentpole:

* span ids are *derived* (seeded tokens + per-parent counters), so the
  same work produces the same trace tree -- serially, across worker
  processes, and across reruns;
* the disabled path allocates nothing (``NULL_SPAN`` identity, zero
  spans started);
* a 2-job sweep's merged trace forest is structurally identical to the
  serial run's;
* the serve loadtest under chaos faults yields a *complete* and
  bit-deterministic span set, SLO verdicts included;
* the Prometheus text exposition round-trips through the strict parser;
* waterfall grouping dedupes retried roots and picks the nearest-rank
  p95 exemplar deterministically.
"""

from __future__ import annotations

import pytest

from repro import cache, faults, obs
from repro.experiments import common
from repro.obs import exposition, slo
from repro.obs.registry import MetricsRegistry
from repro.obs.reporting import waterfall
from repro.obs.tracing import NULL_SPAN, Tracer, trace_id_for
from repro.serve import LoadgenConfig, ServiceConfig, run_loadtest
from repro.sim.sweep import sweep


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    cache.configure(None)
    common.clear_caches()
    obs.disable()
    yield
    cache.configure(None)
    common.clear_caches()
    obs.disable()
    faults._PLAN = None


def tree_of(records):
    """Structural shape of a span set: ids + topology, no durations."""
    return sorted(
        (
            r["trace_id"],
            r["span_id"],
            r.get("parent_id") or "",
            r["name"],
            r.get("status"),
        )
        for r in records
    )


# ---------------------------------------------------------------------------
# deterministic ids + wire propagation
# ---------------------------------------------------------------------------


class TestDeterministicIds:
    def test_trace_id_is_a_pure_function_of_the_token(self):
        assert trace_id_for("cell:a") == trace_id_for("cell:a")
        assert trace_id_for("cell:a") != trace_id_for("cell:b")
        assert len(trace_id_for("cell:a")) == 16

    def test_same_operations_same_tree(self):
        def build():
            tracer = Tracer(enabled=True)
            with tracer.start_trace("root", "token-1"):
                with tracer.span("child-a"):
                    pass
                with tracer.span("child-b"):
                    pass
            return tracer.records()

        assert tree_of(build()) == tree_of(build())

    def test_sibling_spans_get_distinct_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.start_trace("root", "token-1"):
            with tracer.span("step"):
                pass
            with tracer.span("step"):
                pass
        ids = [r["span_id"] for r in tracer.records()]
        assert len(ids) == len(set(ids)) == 3

    def test_wire_round_trip_reconstructs_the_same_ids(self):
        wire = Tracer.to_wire("cell:mcf:bo", "sweep.cell")
        local = Tracer(enabled=True)
        with local.start_trace("sweep.cell", "cell:mcf:bo") as span:
            local_ids = (span.trace_id, span.span_id)
        remote = Tracer(enabled=True)
        with remote.begin_from_wire(wire, "sweep.cell") as span:
            remote_ids = (span.trace_id, span.span_id)
        assert local_ids == remote_ids

    def test_begin_from_wire_marks_error_on_exception(self):
        tracer = Tracer(enabled=True)
        wire = Tracer.to_wire("cell:x", "sweep.cell")
        with pytest.raises(RuntimeError):
            with tracer.begin_from_wire(wire, "sweep.cell"):
                raise RuntimeError("boom")
        (record,) = tracer.records()
        assert record["status"] == "error"

    def test_merge_preserves_remote_records(self):
        remote = Tracer(enabled=True)
        with remote.begin_from_wire(
            Tracer.to_wire("cell:y", "sweep.cell"), "sweep.cell"
        ):
            pass
        local = Tracer(enabled=True)
        local.merge(remote.records())
        assert tree_of(local.records()) == tree_of(remote.records())


# ---------------------------------------------------------------------------
# zero-cost disabled path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_tracer_allocates_no_spans(self):
        tracer = Tracer(enabled=False)
        with tracer.start_trace("root", "tok") as root:
            with tracer.span("child") as child:
                pass
        assert root is NULL_SPAN and child is NULL_SPAN
        tracer.finish(tracer.start_span("late", parent=root, t=0.0), t=1.0)
        assert tracer.started == 0
        assert len(tracer) == 0 and tracer.records() == []

    def test_begin_from_wire_disabled_is_null(self):
        tracer = Tracer(enabled=False)
        wire = Tracer.to_wire("tok", "root")
        assert tracer.begin_from_wire(wire, "root") is NULL_SPAN

    def test_session_with_tracing_off_records_nothing(self):
        session = obs.enable(trace=False)
        try:
            sweep(["mcf"], {"stride": "stride"}, n_accesses=2_000, n_jobs=1)
            assert session.tracer.started == 0
            assert len(session.tracer) == 0
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# sweep propagation: serial == parallel
# ---------------------------------------------------------------------------


GRID = {"stride": "stride", "bo": "bo"}


def _swept_tree(n_jobs):
    session = obs.enable(trace=True)
    try:
        sweep(["mcf", "omnetpp"], GRID, n_accesses=3_000, n_jobs=n_jobs)
        return tree_of(session.tracer.records())
    finally:
        obs.disable()


def test_two_job_sweep_trace_tree_matches_serial():
    serial = _swept_tree(1)
    common.clear_caches()
    fanned = _swept_tree(2)
    assert serial == fanned
    # every cell (2 benches x (2 prefetchers + baseline)) contributes a
    # root with a sim.run child
    names = [row[3] for row in serial]
    assert names.count("sweep.cell") == 6
    assert names.count("sim.run") == 6


def test_sweep_cell_spans_parent_the_engine_span():
    session = obs.enable(trace=True)
    try:
        sweep(["mcf"], {"stride": "stride"}, n_accesses=2_000, n_jobs=1)
        records = session.tracer.records()
    finally:
        obs.disable()
    by_name = {r["name"]: r for r in records}
    cell, sim_run = by_name["sweep.cell"], by_name["sim.run"]
    assert sim_run["parent_id"] == cell["span_id"]
    assert sim_run["trace_id"] == cell["trace_id"]
    assert not cell["parent_id"]  # the cell is its trace's root
    assert (cell["attrs"] or {})["bench"] == "mcf"


# ---------------------------------------------------------------------------
# serve chaos loadtest: complete + deterministic
# ---------------------------------------------------------------------------


def _chaos_report():
    saved = faults._PLAN
    try:
        faults.configure("serve_worker_crash:0.2,serve_slow_reply:0.1", seed=42)
        session = obs.enable(trace=True)
        report = run_loadtest(
            LoadgenConfig(
                shape="spike", duration_s=5.0, base_rps=120.0,
                n_tenants=4, deadline_s=0.5, seed=7, trace_accesses=512,
            ),
            ServiceConfig(n_workers=2, queue_watermark=16),
        )
        return report, session.tracer.records()
    finally:
        obs.disable()
        faults._PLAN = saved


def test_chaos_loadtest_traces_are_complete_and_deterministic():
    report_a, spans_a = _chaos_report()
    report_b, spans_b = _chaos_report()
    assert spans_a == spans_b  # bit-identical, virtual-time durations included
    assert report_a.slo == report_b.slo
    # completeness: every span closed, every parent present, one trace
    # per submitted request
    ids = {r["span_id"] for r in spans_a}
    assert all(r["end"] is not None for r in spans_a)
    assert all((r.get("parent_id") or "") in ids | {""} for r in spans_a)
    roots = [r for r in spans_a if not r.get("parent_id")]
    assert len(roots) == report_a.requests
    assert set(report_a.slo) == {"serve_p95_latency", "serve_shed_rate"}


# ---------------------------------------------------------------------------
# SLO burn rates
# ---------------------------------------------------------------------------


class TestSLO:
    def test_burn_is_rounded_before_the_verdict(self):
        # burn computes to 4.0000000000000001-ish ratios in float; the
        # verdict must be taken on the rounded value so displayed burn
        # and verdict can never disagree.
        window = slo.Window(seconds=10.0, warn=4.0, breach=8.0)
        assert window.verdict(4.0) == "warn"
        assert window.verdict(3.9999999) == "ok"

    def test_evaluate_counts_windowless_objective(self):
        objective = slo.sweep_cell_objective()
        clean = slo.evaluate_counts(objective, total=100, bad=0)
        assert clean["verdict"] == "ok" and clean["burn"] == 0.0
        dirty = slo.evaluate_counts(objective, total=100, bad=50)
        assert dirty["verdict"] == "breach"
        assert dirty["burn"] == round(0.5 / objective.budget, 6)

    def test_sweep_summary_carries_a_cell_slo_verdict(self):
        session = obs.enable(trace=False)
        try:
            sweep(["mcf"], {"stride": "stride"}, n_accesses=2_000, n_jobs=1)
            summaries = session.events.events(category="sweep.summary")
        finally:
            obs.disable()
        assert summaries, "sweep must emit a summary event"
        verdict = summaries[-1].fields["slo"]
        assert verdict["name"] == "sweep_cell_failures"
        assert verdict["verdict"] == "ok"

    def test_worst_verdict_ordering(self):
        assert slo.worst_verdict(["ok", "warn"]) == "warn"
        assert slo.worst_verdict(["warn", "breach", "ok"]) == "breach"
        assert slo.worst_verdict([]) == "ok"


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def test_registry_render_parses_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(3)
        registry.gauge("serve.queue_depth").set(7)
        text = exposition.render(registry=registry)
        families = exposition.parse_text(text)
        # counter families are keyed by base name (the _total suffix is
        # the sample's, per Prometheus convention)
        assert families["repro_serve_requests"]["type"] == "counter"
        assert families["repro_serve_requests"]["samples"][0]["value"] == 3.0
        assert families["repro_serve_queue_depth"]["type"] == "gauge"

    def test_malformed_text_is_rejected(self):
        with pytest.raises(exposition.ExpositionError):
            exposition.parse_text("# TYPE x counter\nx{bad 1\n")

    def test_loadtest_exposition_is_valid(self):
        report = run_loadtest(
            LoadgenConfig(
                shape="ramp", duration_s=3.0, base_rps=60.0,
                n_tenants=2, deadline_s=0.5, seed=3, trace_accesses=512,
            ),
            ServiceConfig(n_workers=2, queue_watermark=16),
        )
        families = exposition.parse_text(report.exposition)
        assert "repro_serve_submitted" in families


# ---------------------------------------------------------------------------
# waterfall selection
# ---------------------------------------------------------------------------


def _span(trace_id, span_id, parent, name, start, end, status="ok"):
    return {
        "trace_id": trace_id, "span_id": span_id, "parent_id": parent,
        "name": name, "start": start, "end": end, "status": status,
        "attrs": {},
    }


class TestWaterfall:
    def test_group_dedupes_retried_roots(self):
        first = _span("t1", "s1", "", "sweep.cell", 0.0, 1.0, "error")
        retry = dict(first)  # same derived ids, same start -> one bar
        spans = [first, retry, _span("t1", "s2", "s1", "sim.run", 0.1, 0.9)]
        traces = waterfall.group_traces(spans)
        assert len(traces["t1"]) == 2

    def test_p95_is_nearest_rank_and_deterministic(self):
        spans = []
        for i in range(20):
            spans.append(_span(f"t{i:02d}", f"s{i:02d}", "", "r", 0.0, i + 1.0))
        traces = waterfall.group_traces(spans)
        assert waterfall.p95_trace_id(traces) == "t18"
        assert waterfall.trace_duration(traces["t18"]) == 19.0

    def test_exemplars_slowest_first(self):
        spans = [
            _span("a", "s1", "", "r", 0.0, 2.0),
            _span("b", "s2", "", "r", 0.0, 5.0),
        ]
        rows = waterfall.slowest_exemplars(waterfall.group_traces(spans))
        assert [r["trace_id"] for r in rows] == ["b", "a"]

    def test_svg_renders_error_rows(self):
        spans = [
            _span("t", "s1", "", "root", 0.0, 1.0),
            _span("t", "s2", "s1", "child", 0.2, 0.6, "error"),
        ]
        svg = waterfall.waterfall_svg(spans, "title")
        assert svg.startswith("<svg") and "child [error]" in svg

    def test_empty_section_degrades_gracefully(self):
        html, summary = waterfall.waterfall_section([])
        assert "no spans" in html
        assert summary == {"spans": 0, "traces": 0}
