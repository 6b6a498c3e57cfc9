"""Cross-run KPI/perf dashboard over ``BENCH_*.json`` trajectories.

Each committed trajectory is an append-only series of schema-versioned
bench records (:mod:`repro.obs.bench`).  The dashboard renders, per
experiment: the KPI trajectory across records (normalized to the first
record so different KPI scales share one chart), the wall-time
trajectory, and a regression analysis of the newest record against its
predecessor using the same gate as ``repro compare`` (every KPI and
work count at :data:`repro.obs.bench.REL_TOL`) -- regressed KPIs are
highlighted in the charts and tables.

``python -m repro dashboard [root]`` renders every discovered
trajectory; :func:`dashboard_data` returns the same analysis as a plain
dict for machine consumption (and for the report manifest).
"""

from __future__ import annotations

import time
from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs import bench
from repro.obs.reporting import figures, page
from repro.obs.reporting.discover import TrajectoryFile, discover

#: Dashboard data schema version (mirrors the report manifest).
SCHEMA_VERSION = 1


def _latest_summary(record: Dict[str, object]) -> Dict[str, object]:
    return {
        "created_unix": record.get("created_unix"),
        "quick": record.get("quick"),
        "wall_time_mean_s": record.get("wall_time_mean_s"),
        "throughput_accesses_per_s": record.get("throughput_accesses_per_s"),
        "kpis": dict(record.get("kpis", {})),
    }


def analyze_trajectory(trajectory: TrajectoryFile) -> Dict[str, object]:
    """One experiment's dashboard entry: trajectory + newest-vs-previous."""
    entry: Dict[str, object] = {
        "experiment": trajectory.experiment,
        "path": str(trajectory.path),
        "records": len(trajectory.records),
        "problems": list(trajectory.problems),
        "latest": None,
        "comparison": None,
        "regressed_kpis": [],
        "ok": True,
    }
    if not trajectory.records:
        return entry
    entry["latest"] = _latest_summary(trajectory.records[-1])
    if len(trajectory.records) < 2:
        return entry
    try:
        comparison = bench.compare_records(
            trajectory.records[-2], trajectory.records[-1]
        )
    except bench.BenchSchemaError as exc:
        entry["problems"].append(f"{trajectory.path}: compare failed: {exc}")
        entry["ok"] = False
        return entry
    entry["comparison"] = comparison.to_dict()
    entry["regressed_kpis"] = [
        row[0] for row in comparison.rows if row[-1] in ("REGRESSED", "REMOVED")
    ]
    entry["ok"] = comparison.ok
    return entry


def dashboard_data(trajectories: Sequence[TrajectoryFile]) -> Dict[str, object]:
    """The full dashboard as a machine-readable dict."""
    experiments = [
        analyze_trajectory(t)
        for t in sorted(trajectories, key=lambda t: t.experiment)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "generated_unix": time.time(),
        "experiments": experiments,
        "ok": all(e["ok"] for e in experiments),
    }


# -- rendering ---------------------------------------------------------------


def _kpi_trajectory_chart(trajectory: TrajectoryFile, regressed: Sequence[str]) -> str:
    """Per-KPI series across records, normalized to each KPI's first value."""
    series: Dict[str, List] = {}
    baselines: Dict[str, float] = {}
    for index, record in enumerate(trajectory.records):
        for kpi, value in record.get("kpis", {}).items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if kpi not in baselines:
                if float(value) == 0.0:
                    continue  # a zero baseline has no relative trajectory
                baselines[kpi] = float(value)
            series.setdefault(kpi, []).append(
                (float(index), float(value) / baselines[kpi])
            )
    return figures.line_chart(
        f"{trajectory.experiment}: KPI trajectory (relative to record 0)",
        series,
        xlabel="record",
        ylabel="x of first record",
        highlight=regressed,
    )


def _wall_time_chart(trajectory: TrajectoryFile) -> str:
    points = [
        (float(i), float(r["wall_time_mean_s"]))
        for i, r in enumerate(trajectory.records)
        if isinstance(r.get("wall_time_mean_s"), (int, float))
    ]
    return figures.line_chart(
        f"{trajectory.experiment}: mean wall time per record",
        {"wall_time_mean_s": points},
        xlabel="record",
        ylabel="seconds",
    )


def comparison_table(comparison: Dict[str, object]) -> str:
    """The newest-vs-previous diff with regressed rows highlighted."""
    rows, classes = [], []
    for row in comparison.get("rows", []):
        status = str(row.get("status"))
        rows.append(
            [
                row.get("metric"),
                row.get("baseline"),
                row.get("candidate"),
                row.get("delta_pct"),
                status,
            ]
        )
        classes.append("regressed" if status in ("REGRESSED", "REMOVED") else "ok")
    return page.html_table(
        ["metric", "baseline", "candidate", "delta %", "status"],
        rows,
        row_classes=classes,
        cell_classes={4: "status"},
    )


def _records_table(trajectory: TrajectoryFile) -> str:
    rows = []
    for i, record in enumerate(trajectory.records):
        created = record.get("created_unix")
        stamp = (
            time.strftime("%Y-%m-%d %H:%M", time.gmtime(float(created)))
            if isinstance(created, (int, float))
            else "-"
        )
        rows.append(
            [
                i,
                stamp,
                record.get("quick"),
                record.get("repeats"),
                record.get("wall_time_mean_s"),
                record.get("throughput_accesses_per_s"),
                record.get("peak_rss_kb"),
            ]
        )
    return page.html_table(
        ["#", "created (UTC)", "quick", "repeats", "wall mean s",
         "accesses/s", "peak RSS KB"],
        rows,
    )


def render_dashboard_html(data: Dict[str, object], trajectories: Sequence[TrajectoryFile]) -> str:
    """The dashboard document for :func:`dashboard_data` output."""
    by_name = {t.experiment: t for t in trajectories}
    chunks: List[str] = [
        f'<p class="meta">KPIs and work counts gated at relative '
        f'{bench.REL_TOL:g} &middot; '
        f'{len(data["experiments"])} experiment(s) &middot; overall: '
        + (
            '<span class="badge-ok">ok</span>'
            if data["ok"]
            else '<span class="badge-regressed">REGRESSED</span>'
        )
        + "</p>"
    ]
    for entry in data["experiments"]:
        trajectory = by_name.get(entry["experiment"])
        chunks.append(f"<h2>{escape(entry['experiment'])}</h2>")
        chunks.append(
            f'<p class="meta">{escape(entry["path"])} &middot; '
            f'{entry["records"]} record(s)</p>'
        )
        chunks.append(page.problems_html(entry["problems"]))
        if trajectory is None or not trajectory.records:
            continue
        chunks.append(page.figure_html(
            _kpi_trajectory_chart(trajectory, entry["regressed_kpis"])
        ))
        chunks.append(page.figure_html(_wall_time_chart(trajectory)))
        chunks.append(_records_table(trajectory))
        if entry["comparison"] is not None:
            verdict = (
                '<span class="badge-ok">ok</span>'
                if entry["ok"]
                else '<span class="badge-regressed">REGRESSED</span>'
            )
            chunks.append(
                f"<h3>newest vs previous record: {verdict}</h3>"
                + comparison_table(entry["comparison"])
            )
    return page.html_page("Benchmark trajectory dashboard", "\n".join(chunks))


def generate_dashboard(root, out: Optional[object] = None) -> Dict[str, object]:
    """Discover trajectories under ``root``, render HTML, return the data.

    ``root`` may be a directory (recursively searched for
    ``BENCH_*.json``) or a single trajectory file.  ``out`` names the
    HTML file to write (default ``dashboard.html`` next to ``root`` or
    inside it).  The returned dict is the :func:`dashboard_data` payload
    plus an ``html`` key naming the written file.
    """
    root = Path(root)
    tree = discover(root)
    if not tree.trajectories:
        raise FileNotFoundError(
            f"no BENCH_*.json trajectories discoverable under {root}"
        )
    data = dashboard_data(tree.trajectories)
    html = render_dashboard_html(data, tree.trajectories)
    if out is None:
        out = (root if root.is_dir() else root.parent) / "dashboard.html"
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html)
    data["html"] = str(out)
    return data
