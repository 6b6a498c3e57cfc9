"""Tests for the reporting subsystem (repro.obs.reporting).

Covers tolerant artifact discovery over nested/partial/corrupt trees,
the dependency-free Frame, SVG figure rendering, the end-to-end
sweep -> HTML report round trip, the report-manifest schema, the
dashboard's regression-highlight logic on synthetic BENCH trajectories,
the sweep.summary obs event and the CLI exit conventions.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.__main__ import main
from repro.experiments import common
from repro.obs.reporting import (
    Frame,
    ReportError,
    discover,
    generate_dashboard,
    generate_report,
    read_jsonl_tolerant,
)
from repro.obs.reporting import figures as rfigures
from repro.obs.reporting.dashboard import analyze_trajectory, render_dashboard_html
from repro.obs.reporting.discover import TrajectoryFile
from repro.obs.reporting.page import self_containment_violations
from repro.sim.sweep import sweep


@pytest.fixture(autouse=True)
def _clean_obs(monkeypatch):
    """Isolated observability and no ambient sweep knobs."""
    for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_REPORT",
                "REPRO_RETRIES", "REPRO_CELL_TIMEOUT"):
        monkeypatch.delenv(var, raising=False)
    obs.disable()
    yield
    obs.disable()


def run_mini_sweep(out_dir):
    """A real two-config sweep under an obs session, flushed to disk."""
    session = obs.enable(out_dir=out_dir)
    try:
        records = sweep(
            ["mcf"],
            {"bo": "bo", "triage": common.triage_config(dynamic=True)},
            n_accesses=6_000,
            scale=4,
        )
        session.flush()
    finally:
        obs.disable()
    return records


def make_bench_record(experiment="figXX", kpis=None, wall=1.0):
    """A minimal schema-valid BENCH trajectory record."""
    return {
        "schema": 1,
        "experiment": experiment,
        "quick": True,
        "repeats": 2,
        "warmup": 1,
        "created_unix": 1700000000.0,
        "kpis": dict(kpis or {"speedup": 1.5, "coverage": 0.4}),
        "wall_times_s": [wall, wall],
        "wall_time_mean_s": wall,
        "wall_time_min_s": wall,
        "accesses_total": 1000,
        "throughput_accesses_per_s": 1000.0,
        "peak_rss_kb": 1024,
        "cache": {"enabled": False},
        "fingerprint": {"python": "3.x", "machine": "test"},
    }


def write_trajectory(path, records):
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return path


# -- tolerant parsing + discovery --------------------------------------------


def test_read_jsonl_tolerant_skips_torn_records(tmp_path):
    path = tmp_path / "epochs.jsonl"
    path.write_text('{"epoch": 0, "coverage": 0.5}\n'
                    "not json at all\n"
                    '{"epoch": 1, "coverage": 0.6}\n'
                    '{"epoch": 2, "cover')  # crash mid-append
    rows, problems = read_jsonl_tolerant(path)
    assert [r["epoch"] for r in rows] == [0, 1]
    assert len(problems) == 2
    assert all(str(path) in p for p in problems)


def test_discover_nested_partial_and_corrupt(tmp_path):
    # A complete run dir, nested two levels down.
    good = tmp_path / "results" / "obs" / "fig05"
    good.mkdir(parents=True)
    (good / "manifests.jsonl").write_text('{"kind": "single"}\n')
    (good / "epochs.jsonl").write_text('{"epoch": 0}\n')
    (good / "events.jsonl").write_text('{"category": "x"}\n')
    (good / "metrics.json").write_text("{}\n")
    # A partial run dir: epochs only, no manifests/events.
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "epochs.jsonl").write_text('{"epoch": 0}\ntruncated{{{\n')
    # A corrupt metrics file alongside a valid marker.
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    (corrupt / "manifests.jsonl").write_text('{"kind": "single"}\n')
    (corrupt / "metrics.json").write_text("][ not json")
    # A bench trajectory.
    write_trajectory(tmp_path / "BENCH_fig05.json", [make_bench_record("fig05")])
    # Cache payload shards must be pruned, not walked.
    payload = tmp_path / "cache" / "v1" / "results" / "ab"
    payload.mkdir(parents=True)
    (payload / "manifests.jsonl").write_text('{"kind": "should-not-load"}\n')

    tree = discover(tmp_path)
    names = {run.path.name for run in tree.runs}
    assert names == {"fig05", "partial", "corrupt"}
    assert len(tree.manifests) == 2  # payload shard's manifest not loaded
    assert len(tree.trajectories) == 1 and tree.trajectories[0].experiment == "fig05"
    problems = tree.all_problems()
    assert any("partial" in p and "malformed" in p for p in problems)
    assert any("metrics.json" in p for p in problems)
    partial_run = next(r for r in tree.runs if r.path.name == "partial")
    assert "manifests.jsonl" in partial_run.missing()


def test_discover_missing_root_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover(tmp_path / "nope")


def test_discover_obs_results_dir_is_not_pruned(tmp_path):
    # "results/obs" is a conventional obs output path; only v<N>/results
    # cache shards are pruned.  Guard against over-eager pruning.
    run = tmp_path / "results" / "obs"
    run.mkdir(parents=True)
    (run / "manifests.jsonl").write_text('{"kind": "single"}\n')
    assert len(discover(tmp_path).manifests) == 1


# -- Frame --------------------------------------------------------------------


def test_frame_accessors():
    frame = Frame([
        {"a": 1, "b": "x"},
        {"a": 2, "b": "y", "c": True},
        {"a": "bad", "b": "x"},
    ])
    assert frame.columns() == ["a", "b", "c"]
    assert frame.numeric("a") == [1.0, 2.0]
    assert len(frame.where(b="x")) == 2
    assert len(frame.where(lambda r: r["a"] == 2)) == 1
    assert set(frame.groupby("b")) == {"x", "y"}
    assert frame.unique("b") == ["x", "y"]


def test_frame_to_pandas_is_gated():
    frame = Frame([{"a": 1}])
    try:
        import pandas  # noqa: F401
    except ImportError:
        with pytest.raises(RuntimeError, match="pandas is not installed"):
            frame.to_pandas()
    else:
        assert len(frame.to_pandas()) == 1


# -- figures ------------------------------------------------------------------


def test_bar_chart_renders_values_and_highlight():
    svg = rfigures.bar_chart(
        "IPC", ["mcf", "lbm"],
        {"bo": [1.0, 2.0], "triage": [1.5, None]},
        ylabel="ipc", highlight=["triage"],
    )
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "IPC" in svg and "mcf" in svg
    assert rfigures.HIGHLIGHT in svg  # the highlighted series' color
    assert "<title>mcf / bo: 1</title>" in svg  # hover tooltip


def test_line_chart_and_empty_figure():
    svg = rfigures.line_chart(
        "coverage", {"run0": [(0, 0.1), (1, 0.4)]}, xlabel="epoch"
    )
    assert "<path" in svg and "<circle" in svg
    assert "no data" in rfigures.line_chart("empty", {})
    assert "no data" in rfigures.bar_chart("empty", [], {})


# -- end-to-end report --------------------------------------------------------


class TestSweepReportRoundTrip:
    @pytest.fixture(scope="class")
    def report_paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep_obs")
        run_mini_sweep(root)
        return root, generate_report(root)

    def test_report_files_written(self, report_paths):
        root, paths = report_paths
        assert paths["html"].exists() and paths["manifest"].exists()
        assert paths["html"].parent == root / "report"

    def test_html_is_self_contained(self, report_paths):
        html = report_paths[1]["html"].read_text()
        assert self_containment_violations(html) == []

    def test_html_carries_provenance_and_figures(self, report_paths):
        html = report_paths[1]["html"].read_text()
        import platform

        assert platform.python_version() in html  # machine fingerprint
        assert html.count("<svg") >= 2  # rendered figures
        for heading in ("Run manifests", "Machine fingerprint",
                        "Resolved config", "KPIs", "Epoch time-series",
                        "Resilience", "Cache economics", "Energy"):
            assert heading in html
        assert "Sweep summaries" in html  # sweep.summary made it through

    def test_report_manifest_schema(self, report_paths):
        manifest = json.loads(report_paths[1]["manifest"].read_text())
        assert manifest["schema"] == 1
        for key in ("root", "html", "generated_unix", "runs", "figures",
                    "kpis", "fingerprints", "energy", "sweep_summaries",
                    "trajectories", "problems"):
            assert key in manifest, key
        assert len(manifest["runs"]) == 1
        run = manifest["runs"][0]
        assert run["manifests"] == 3  # baseline + bo + triage
        assert set(manifest["kpis"]) and all(
            "ipc" in k for k in manifest["kpis"].values()
        )
        # The energy section reflects the fig13 model for the triage run.
        triage_rows = [e for e in manifest["energy"]
                       if e["prefetcher"].startswith("triage")]
        assert triage_rows and triage_rows[0]["energy_nominal"] == (
            triage_rows[0]["metadata_llc_accesses"]
            + 25.0 * triage_rows[0]["metadata_dram_accesses"]
        )
        summary = manifest["sweep_summaries"][0]
        assert summary["status"] == "ok"
        assert summary["cells_total"] == 3 and summary["executed"] == 3
        for field in ("resumed", "retries", "timeouts", "failed",
                      "cache_hits", "cache_misses", "wall_s"):
            assert field in summary


def test_report_degrades_on_missing_and_truncated_artifacts(tmp_path):
    run_mini_sweep(tmp_path)
    (tmp_path / "events.jsonl").unlink()
    epochs = tmp_path / "epochs.jsonl"
    lines = epochs.read_text().splitlines()
    epochs.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
    paths = generate_report(tmp_path)
    html = paths["html"].read_text()
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["runs"][0]["manifests"] == 3  # manifests intact
    assert "events.jsonl" in str(manifest["runs"][0]["missing"])
    assert any("skipped malformed line" in p for p in manifest["problems"])
    assert "Problems" in html


# -- one torn-file fixture set, fed to every JSONL reader ---------------------


def write_torn_jsonl(path, rows):
    """``rows`` as JSONL plus the damage a crash or a bad disk leaves:
    blank lines, a non-object JSON line, non-UTF-8 bytes and a record
    truncated mid-write at the end."""
    lines = [json.dumps(row, sort_keys=True).encode() for row in rows]
    path.write_bytes(
        b"\n" + b"\n\n".join(lines) + b"\n[1, 2, 3]\n\xff\xfe\xfa not utf-8\n\n"
        + lines[0][: len(lines[0]) // 2]
    )


@pytest.fixture(scope="module")
def torn_run(tmp_path_factory):
    """A real flushed run directory whose JSONL files are all torn;
    returns it with the number of complete rows per file."""
    root = tmp_path_factory.mktemp("torn")
    run_mini_sweep(root)
    # A sweep samples no epochs; give the epochs file rows of its own.
    (root / "epochs.jsonl").write_text("".join(
        json.dumps({"run": "000:mcf:bo", "epoch": i, "coverage": 0.5}) + "\n"
        for i in range(4)
    ))
    complete = {}
    for name in ("manifests", "epochs", "events"):
        path = root / f"{name}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows, name
        write_torn_jsonl(path, rows)
        complete[name] = len(rows)
    return root, complete


def test_text_report_keeps_complete_rows_of_torn_files(torn_run, capsys):
    root, complete = torn_run
    assert main(["report", str(root)]) == 0
    assert "== Problems ==" in capsys.readouterr().out
    assert main(["report", str(root), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {name: len(payload[name]) for name in complete} == complete
    assert len(payload["problems"]) == 3 * len(complete)


def test_html_report_keeps_complete_rows_of_torn_files(torn_run, tmp_path, capsys):
    root, complete = torn_run
    assert main(["report", "html", str(root), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "report-manifest.json").read_text())
    assert {name: manifest["runs"][0][name] for name in complete} == complete


@pytest.mark.parametrize("damage", ["truncated", "non_utf8"])
def test_dashboard_and_compare_reject_torn_bench_file(tmp_path, capsys, damage):
    text = json.dumps([make_bench_record("t"), make_bench_record("t")]).encode()
    torn = text[: len(text) // 2] if damage == "truncated" else b"\xff\xfe" + text
    path = tmp_path / "BENCH_t.json"
    path.write_bytes(torn)

    assert main(["dashboard", str(tmp_path), "--json"]) == 0
    out, err = capsys.readouterr()
    (entry,) = json.JSONDecoder().raw_decode(out)[0]["experiments"]
    assert entry["records"] == 0
    assert len(entry["problems"]) == 1 and str(path) in entry["problems"][0]
    assert "Traceback" not in err

    assert main(["compare", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err


def test_report_error_on_manifestless_tree(tmp_path):
    (tmp_path / "notes.txt").write_text("nothing here")
    with pytest.raises(ReportError, match="no discoverable run manifests"):
        generate_report(tmp_path)


# -- sweep.summary event ------------------------------------------------------


def test_sweep_emits_summary_event(tmp_path):
    session = obs.enable(out_dir=tmp_path)
    try:
        sweep(["mcf"], {"bo": "bo"}, n_accesses=6_000, scale=4)
        summaries = [e.fields for e in session.events.events("sweep.summary")]
    finally:
        obs.disable()
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary["status"] == "ok"
    assert summary["cells_total"] == 2  # baseline + bo
    assert summary["executed"] == 2
    assert summary["retries"] == 0 and summary["timeouts"] == 0
    assert summary["failed"] == 0 and summary["resumed"] == 0
    assert summary["wall_s"] > 0


def test_sweep_report_flag_writes_report(tmp_path):
    session = obs.enable(out_dir=tmp_path)
    try:
        sweep(["mcf"], {"bo": "bo"}, n_accesses=6_000, scale=4, report=True)
    finally:
        obs.disable()
    assert (tmp_path / "report" / "report.html").exists()
    assert session.out_dir == tmp_path


def test_resumed_sweep_report_keeps_manifests(tmp_path, monkeypatch):
    """A sweep served wholly from the cache still reports its runs.

    Cells served before dispatch skip simulation, so their manifests
    must be filed with the session by the prefill path — otherwise the
    obs dir flushes an empty manifests.jsonl and report generation fails.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    obs.enable(out_dir=tmp_path / "first")
    try:
        sweep(["mcf"], {"bo": "bo"}, n_accesses=6_000, scale=4)
    finally:
        obs.disable()

    session = obs.enable(out_dir=tmp_path / "second")
    try:
        sweep(["mcf"], {"bo": "bo"}, n_accesses=6_000, scale=4)
        summaries = [e.fields for e in session.events.events("sweep.summary")]
        session.flush()
    finally:
        obs.disable()

    assert summaries[-1]["resumed"] == 2
    assert summaries[-1]["executed"] == 0
    paths = generate_report(tmp_path / "second")
    data = json.loads(pathlib.Path(paths["manifest"]).read_text())
    assert data["runs"][0]["manifests"] == 2
    assert len(data["kpis"]) == 2


# -- dashboard regression highlighting ----------------------------------------


def test_dashboard_flags_kpi_drift_beyond_tolerance(tmp_path):
    base = make_bench_record("fig05", kpis={"speedup": 2.0, "coverage": 0.5})
    drifted = make_bench_record("fig05", kpis={"speedup": 1.0, "coverage": 0.5})
    write_trajectory(tmp_path / "BENCH_fig05.json", [base, drifted])
    steady = [
        make_bench_record("fig01", kpis={"speedup": 1.0}),
        make_bench_record("fig01", kpis={"speedup": 1.0 + 1e-12}),
    ]
    write_trajectory(tmp_path / "BENCH_fig01.json", steady)

    data = generate_dashboard(tmp_path)
    assert data["ok"] is False
    by_name = {e["experiment"]: e for e in data["experiments"]}
    assert by_name["fig05"]["ok"] is False
    assert by_name["fig05"]["regressed_kpis"] == ["speedup"]
    assert by_name["fig01"]["ok"] is True  # libm-sized drift passes
    assert by_name["fig01"]["regressed_kpis"] == []

    html = (tmp_path / "dashboard.html").read_text()
    assert self_containment_violations(html) == []
    assert 'class="regressed"' in html  # the drifted row is highlighted
    assert "badge-regressed" in html and "badge-ok" in html


def test_analyze_trajectory_single_record_is_ok(tmp_path):
    trajectory = TrajectoryFile(
        path=tmp_path / "BENCH_x.json", experiment="x",
        records=[make_bench_record("x")],
    )
    entry = analyze_trajectory(trajectory)
    assert entry["ok"] is True and entry["comparison"] is None
    html = render_dashboard_html(
        {"schema": 1, "generated_unix": 0, "experiments": [entry], "ok": True},
        [trajectory],
    )
    assert self_containment_violations(html) == []


# -- CLI ----------------------------------------------------------------------


def test_cli_report_html_round_trip(tmp_path, capsys):
    run_mini_sweep(tmp_path / "obs")
    out = tmp_path / "site"
    assert main(["report", "html", str(tmp_path / "obs"), "--out", str(out)]) == 0
    assert (out / "report.html").exists()
    assert (out / "report-manifest.json").exists()
    assert "report.html" in capsys.readouterr().out


def test_cli_report_html_exit_2_without_manifests(tmp_path, capsys):
    assert main(["report", "html", str(tmp_path / "missing")]) == 2
    (tmp_path / "empty").mkdir()
    assert main(["report", "html", str(tmp_path / "empty")]) == 2
    err = capsys.readouterr().err
    assert "no discoverable run manifests" in err
    assert "Traceback" not in err


def test_cli_dashboard_exit_codes(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["dashboard", str(empty)]) == 2

    ok_dir = tmp_path / "ok"
    ok_dir.mkdir()
    write_trajectory(ok_dir / "BENCH_a.json",
                     [make_bench_record("a"), make_bench_record("a")])
    assert main(["dashboard", str(ok_dir)]) == 0

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    write_trajectory(
        bad_dir / "BENCH_b.json",
        [make_bench_record("b", kpis={"speedup": 2.0}),
         make_bench_record("b", kpis={"speedup": 1.0})],
    )
    assert main(["dashboard", str(bad_dir)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert (bad_dir / "dashboard.html").exists()


def test_cli_run_report_generates_html(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_QUICK", "1")
    obs_out = tmp_path / "obs-out"
    assert main(["run", "fig01", "--quick", "--obs-out", str(obs_out),
                 "--report"]) == 0
    assert (obs_out / "report" / "report.html").exists()
    assert "HTML report:" in capsys.readouterr().out
