"""Self-contained static HTML report for one sweep's obs artifacts.

:func:`generate_report` discovers everything under a results root
(:mod:`repro.obs.reporting.discover`), renders paper-style figures from
the run manifests' KPI stamps, the epoch time-series, the resilience
event stream and the Figure-13 energy model, and writes two files:

* ``report.html`` -- one artifact carrying the sweep's full provenance:
  run manifests, machine fingerprint, resolved config, KPIs, figures
  (inline SVG), epoch time-series, resilience/cache economics and the
  energy section.  No scripts, no external fetches.
* ``report-manifest.json`` -- the same facts machine-readable, so CI
  and later tooling can consume a report without parsing HTML.

A missing or truncated per-run artifact degrades that section (the
degradation is listed under "Problems"); only a root with no
discoverable run manifests at all is an error
(:class:`ReportError` -- ``python -m repro report html`` exits 2).
"""

from __future__ import annotations

import json
import time
from html import escape
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.reporting import figures, page, waterfall
from repro.obs.reporting.dashboard import dashboard_data
from repro.obs.reporting.discover import ArtifactTree, discover
from repro.obs.reporting.frames import Frame, epochs_frame, events_frame
from repro.sim.energy import (
    DRAM_ACCESS_ENERGY_HIGH,
    DRAM_ACCESS_ENERGY_LOW,
    DRAM_ACCESS_ENERGY_NOMINAL,
    metadata_energy,
)

#: Report-manifest schema version, bumped on breaking changes.
SCHEMA_VERSION = 1

#: Epoch table rows shown inline before truncation (full data stays in
#: the source JSONL; the report is a view, not an archive).
MAX_EPOCH_ROWS = 48

#: Epoch time-series columns promoted into line charts when present.
EPOCH_FIGURE_COLUMNS = ("coverage", "dram_utilization")

#: At most this many epoch series per chart (dense sweeps stay legible).
MAX_EPOCH_SERIES = 12


class ReportError(RuntimeError):
    """The root holds nothing a report can be built from."""


# -- manifest digestion ------------------------------------------------------


def _manifest_workload(manifest: Dict[str, object]) -> str:
    workloads = manifest.get("workloads") or []
    return ",".join(str(w) for w in workloads) or "?"


def _manifest_kpis(manifest: Dict[str, object]) -> Dict[str, float]:
    """The engine's KPI stamp (``extra.kpis``), empty for older writers."""
    extra = manifest.get("extra") or {}
    kpis = extra.get("kpis") if isinstance(extra, dict) else None
    if not isinstance(kpis, dict):
        return {}
    return {
        k: float(v)
        for k, v in kpis.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _kpi_bar_figure(
    manifests: Sequence[Dict[str, object]], kpi: str, title: str, ylabel: str
) -> Optional[str]:
    """Grouped bars of one KPI: workloads x prefetchers, or ``None``."""
    workloads: Dict[str, None] = {}
    series: Dict[str, Dict[str, float]] = {}
    for manifest in manifests:
        value = _manifest_kpis(manifest).get(kpi)
        if value is None:
            continue
        workload = _manifest_workload(manifest)
        prefetcher = str(manifest.get("prefetcher", "?"))
        workloads.setdefault(workload, None)
        series.setdefault(prefetcher, {})[workload] = value
    if not series:
        return None
    categories = list(workloads)
    return figures.bar_chart(
        title,
        categories,
        {
            prefetcher: [values.get(w) for w in categories]
            for prefetcher, values in series.items()
        },
        ylabel=ylabel,
    )


def _epoch_line_figure(epochs: Frame, column: str) -> Optional[str]:
    """One epoch column over epoch index, one series per observed run."""
    rows = epochs.where(lambda r: isinstance(r.get(column), (int, float)))
    if not rows:
        return None
    series: Dict[str, List[Tuple[float, float]]] = {}
    clipped = False
    for row in rows:
        label = str(row.get("run", row.get("run_dir", "run")))
        if label not in series and len(series) >= MAX_EPOCH_SERIES:
            clipped = True
            continue
        points = series.setdefault(label, [])
        epoch = row.get("epoch")
        x = float(epoch) if isinstance(epoch, (int, float)) else float(len(points))
        points.append((x, float(row[column])))
    title = f"Epoch time-series: {column}"
    if clipped:
        title += f" (first {MAX_EPOCH_SERIES} runs)"
    return figures.line_chart(title, series, xlabel="epoch", ylabel=column)


def _energy_rows(manifests: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-run metadata energy (Figure 13 model) from the KPI stamps."""
    rows = []
    for manifest in manifests:
        kpis = _manifest_kpis(manifest)
        if "metadata_llc_accesses" not in kpis and "metadata_dram_accesses" not in kpis:
            continue
        llc = int(kpis.get("metadata_llc_accesses", 0))
        dram = int(kpis.get("metadata_dram_accesses", 0))
        rows.append(
            {
                "workload": _manifest_workload(manifest),
                "prefetcher": str(manifest.get("prefetcher", "?")),
                "metadata_llc_accesses": llc,
                "metadata_dram_accesses": dram,
                "energy_nominal": metadata_energy(llc, dram),
                "energy_low": metadata_energy(llc, dram, DRAM_ACCESS_ENERGY_LOW),
                "energy_high": metadata_energy(llc, dram, DRAM_ACCESS_ENERGY_HIGH),
            }
        )
    return rows


def _slo_rows(
    manifests: Sequence[Dict[str, object]],
    summaries: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Every SLO verdict discoverable in the tree, one row each.

    Sources: loadtest/serve manifests stamping ``extra.slo`` (a dict of
    per-objective reports from :mod:`repro.obs.slo`) and ``sweep.summary``
    events carrying their cell-failure verdict in ``slo``.
    """
    rows: List[Dict[str, object]] = []

    def add(source: str, report: object) -> None:
        if not isinstance(report, dict) or "verdict" not in report:
            return
        burn = report.get("burn")
        windows = report.get("windows")
        if burn is None and isinstance(windows, list):
            burn = max(
                (float(w.get("burn", 0.0)) for w in windows if isinstance(w, dict)),
                default=0.0,
            )
        rows.append(
            {
                "source": source,
                "objective": report.get("name"),
                "target": report.get("objective"),
                "total": report.get("total"),
                "bad": report.get("bad"),
                "worst_burn": burn,
                "verdict": report.get("verdict"),
            }
        )

    for manifest in manifests:
        extra = manifest.get("extra") or {}
        slo = extra.get("slo") if isinstance(extra, dict) else None
        if isinstance(slo, dict):
            for name in sorted(slo):
                add(f"manifest:{_manifest_workload(manifest)}", slo[name])
    for summary in summaries:
        add(f"sweep:{summary.get('run_dir')}", summary.get("slo"))
    return rows


def _traces_section(
    tree: ArtifactTree,
    slo_rows: Sequence[Dict[str, object]],
) -> Tuple[str, Dict[str, object]]:
    """Waterfall + exemplars + SLO verdict table: ``(html, summary)``."""
    spans = [span for run in tree.runs for span in run.spans]
    chunks, summary = waterfall.waterfall_section(spans)
    parts = [chunks]
    if slo_rows:
        headers = ["source", "objective", "target", "total", "bad",
                   "worst_burn", "verdict"]
        parts.append(
            "<h3>SLO burn-rate verdicts</h3>"
            + page.html_table(
                headers,
                [[r.get(h) for h in headers] for r in slo_rows],
                row_classes=[
                    "regressed" if r.get("verdict") == "breach" else ""
                    for r in slo_rows
                ],
            )
        )
    else:
        parts.append(
            "<p class='meta'>no SLO verdicts discovered (stamped by "
            "loadtests and sweep summaries)</p>"
        )
    return "\n".join(parts), summary


def _sweep_summaries(events: Frame) -> List[Dict[str, object]]:
    """Every ``sweep.summary`` event's fields, oldest first."""
    out = []
    for row in events.where(category="sweep.summary"):
        fields = {
            k: v
            for k, v in row.items()
            if k not in ("run_dir", "seq", "category", "severity")
        }
        fields["run_dir"] = row.get("run_dir")
        out.append(fields)
    return out


# -- section renderers -------------------------------------------------------


def _manifest_section(manifests: Sequence[Dict[str, object]]) -> str:
    rows = [
        [
            m.get("kind"),
            _manifest_workload(m),
            m.get("prefetcher"),
            m.get("trace_length"),
            m.get("warmup"),
            ",".join(str(s) for s in (m.get("seeds") or [])),
            m.get("wall_time_s"),
            (m.get("extra") or {}).get("engine"),
        ]
        for m in manifests
    ]
    return page.html_table(
        ["kind", "workloads", "prefetcher", "trace len", "warmup",
         "seeds", "wall s", "engine"],
        rows,
    )


def _fingerprint_section(manifests: Sequence[Dict[str, object]]) -> Tuple[str, List[Dict[str, object]]]:
    fingerprints: List[Dict[str, object]] = []
    for manifest in manifests:
        host = manifest.get("host")
        if isinstance(host, dict) and host and host not in fingerprints:
            fingerprints.append(host)
    if not fingerprints:
        return "<p class='meta'>no host fingerprints recorded</p>", []
    chunks = [page.kv_table(fp) for fp in fingerprints]
    if len(fingerprints) > 1:
        chunks.insert(
            0,
            f'<p class="problem">{len(fingerprints)} distinct machine '
            "fingerprints across runs; timings are not directly comparable</p>",
        )
    return "\n".join(chunks), fingerprints


def _config_section(manifests: Sequence[Dict[str, object]]) -> str:
    configs: List[Dict[str, object]] = []
    for manifest in manifests:
        config = manifest.get("config")
        if isinstance(config, dict) and config and config not in configs:
            configs.append(config)
    if not configs:
        return "<p class='meta'>no resolved configs recorded</p>"
    note = (
        f'<p class="meta">{len(configs)} distinct machine config(s) '
        "across runs; showing each once</p>"
        if len(configs) > 1
        else ""
    )
    return note + "\n".join(page.kv_table(c) for c in configs)


def _kpi_section(manifests: Sequence[Dict[str, object]]) -> Tuple[str, Dict[str, Dict[str, float]]]:
    kpis_by_run: Dict[str, Dict[str, float]] = {}
    names: Dict[str, None] = {}
    for index, manifest in enumerate(manifests):
        kpis = _manifest_kpis(manifest)
        if not kpis:
            continue
        key = f"{index:03d}:{_manifest_workload(manifest)}:{manifest.get('prefetcher')}"
        kpis_by_run[key] = kpis
        for name in kpis:
            names.setdefault(name, None)
    if not kpis_by_run:
        return (
            "<p class='meta'>no KPI stamps in these manifests (produced by an "
            "older writer); figures fall back to epoch data</p>",
            {},
        )
    headers = ["run"] + list(names)
    rows = [
        [key] + [kpis.get(name) for name in names]
        for key, kpis in kpis_by_run.items()
    ]
    return page.html_table(headers, rows), kpis_by_run


def _epoch_section(epochs: Frame) -> str:
    if not epochs:
        return "<p class='meta'>no epoch samples discovered</p>"
    columns = [c for c in epochs.columns() if c != "run_dir"]
    shown = epochs.rows[:MAX_EPOCH_ROWS]
    note = (
        f'<p class="meta">showing {len(shown)} of {len(epochs)} epoch rows; '
        "the full series is in each run directory's epochs.jsonl</p>"
        if len(epochs) > len(shown)
        else ""
    )
    return note + page.html_table(
        columns, [[row.get(c) for c in columns] for row in shown]
    )


def _resilience_section(
    events: Frame, summaries: Sequence[Dict[str, object]]
) -> str:
    chunks = []
    resilience_events = events.where(
        lambda r: str(r.get("category", "")).startswith("resilience.")
    )
    counts: Dict[str, int] = {}
    for row in resilience_events:
        key = f"{row.get('category')}/{row.get('severity')}"
        counts[key] = counts.get(key, 0) + 1
    if counts:
        chunks.append(
            page.html_table(
                ["event", "count"], sorted(counts.items())
            )
        )
    else:
        chunks.append(
            "<p class='meta'>no resilience events: no retries, timeouts "
            "or pool respawns were needed</p>"
        )
    if summaries:
        headers = ["run_dir", "status", "cells_total", "executed", "resumed",
                   "retries", "timeouts", "failed", "cache_hits",
                   "cache_misses", "wall_s"]
        chunks.append("<h3>Sweep summaries</h3>" + page.html_table(
            headers, [[s.get(h) for h in headers] for s in summaries]
        ))
    return "\n".join(chunks)


def _cache_section(summaries: Sequence[Dict[str, object]]) -> str:
    if not summaries:
        return (
            "<p class='meta'>no cache accounting available (no sweep.summary "
            "events in this tree; re-run with an active obs session)</p>"
        )
    hits = sum(int(s.get("cache_hits") or 0) for s in summaries)
    misses = sum(int(s.get("cache_misses") or 0) for s in summaries)
    total = hits + misses
    rows = [
        ["result-cache hits", hits],
        ["result-cache misses", misses],
        ["hit rate", (hits / total) if total else None],
    ]
    return page.html_table(["economics", "value"], rows)


def _metrics_section(tree: ArtifactTree) -> str:
    chunks = []
    for run in tree.runs:
        if not run.metrics:
            continue
        flat_rows = [
            [name, json.dumps(value) if isinstance(value, dict) else value]
            for name, value in sorted(run.metrics.items())
        ]
        chunks.append(
            f"<details><summary>{escape(run.name)}: {len(flat_rows)} "
            "metric(s)</summary>"
            + page.html_table(["metric", "value"], flat_rows)
            + "</details>"
        )
    return "\n".join(chunks) or "<p class='meta'>no metric dumps discovered</p>"


def _events_section(tree: ArtifactTree) -> str:
    """Events read per run, with ``repro report``'s ring-drop line."""
    from repro.obs.report import events_dropped_note  # report imports this package

    rows = [
        [run.name, len(run.events),
         events_dropped_note(len(run.events), run.event_counts) or "all kept"]
        for run in tree.runs
    ]
    return page.html_table(["run", "events read", "ring"], rows)


# -- the front door ----------------------------------------------------------


def build_report(tree: ArtifactTree, title: Optional[str] = None) -> Tuple[str, Dict[str, object]]:
    """Render one discovered tree: ``(html, report_manifest_dict)``.

    Raises :class:`ReportError` when the tree holds no run manifests --
    there is no provenance to report on (``repro dashboard`` covers
    trajectory-only roots).
    """
    manifests = tree.manifests
    if not manifests:
        raise ReportError(
            f"no discoverable run manifests under {tree.root}: expected at "
            "least one run directory with a manifests.jsonl (written by "
            "'python -m repro run <exp> --obs' or an ObsSession.flush); "
            "for BENCH_*.json trajectories use 'python -m repro dashboard'"
        )
    title = title or f"Sweep report: {tree.root}"
    epochs = epochs_frame(tree)
    events = events_frame(tree)
    summaries = _sweep_summaries(events)

    figure_map: Dict[str, str] = {}
    for kpi, figure_title, ylabel in (
        ("ipc", "IPC by workload and prefetcher", "IPC"),
        ("coverage", "Prefetch coverage by workload and prefetcher", "coverage"),
        ("accuracy", "Prefetch accuracy by workload and prefetcher", "accuracy"),
    ):
        svg = _kpi_bar_figure(manifests, kpi, figure_title, ylabel)
        if svg is not None:
            figure_map[f"kpi_{kpi}"] = svg
    for column in EPOCH_FIGURE_COLUMNS:
        svg = _epoch_line_figure(epochs, column)
        if svg is not None:
            figure_map[f"epoch_{column}"] = svg
    energy_rows = _energy_rows(manifests)
    if energy_rows:
        labels = [f"{r['workload']}/{r['prefetcher']}" for r in energy_rows]
        figure_map["energy"] = figures.bar_chart(
            "Metadata-access energy (Figure 13 model)",
            labels,
            {"nominal": [r["energy_nominal"] for r in energy_rows]},
            ylabel="energy units",
        )

    fingerprint_html, fingerprints = _fingerprint_section(manifests)
    kpi_html, kpis_by_run = _kpi_section(manifests)
    slo_rows = _slo_rows(manifests, summaries)
    traces_html, trace_summary = _traces_section(tree, slo_rows)

    body_chunks = [
        f'<p class="meta">root: <code>{escape(str(tree.root))}</code> &middot; '
        f"{len(tree.runs)} run dir(s), {len(manifests)} manifest(s), "
        f"{len(epochs)} epoch row(s), {len(events)} event(s), "
        f"{len(tree.trajectories)} bench trajectory(ies)</p>",
        page.section("Run manifests", _manifest_section(manifests)),
        page.section("Machine fingerprint", fingerprint_html),
        page.section("Resolved config", _config_section(manifests)),
        page.section("KPIs", kpi_html),
        page.section(
            "Figures",
            *(page.figure_html(svg) for svg in figure_map.values()),
        ),
        page.section(
            "Energy (Figure 13 model)",
            page.html_table(
                ["workload", "prefetcher", "metadata LLC accesses",
                 "metadata DRAM accesses",
                 f"energy (nominal, {DRAM_ACCESS_ENERGY_NOMINAL:.0f}u/DRAM)",
                 f"low ({DRAM_ACCESS_ENERGY_LOW:.0f}u)",
                 f"high ({DRAM_ACCESS_ENERGY_HIGH:.0f}u)"],
                [
                    [r["workload"], r["prefetcher"], r["metadata_llc_accesses"],
                     r["metadata_dram_accesses"], r["energy_nominal"],
                     r["energy_low"], r["energy_high"]]
                    for r in energy_rows
                ],
            )
            if energy_rows
            else "<p class='meta'>no metadata-access KPI stamps; energy "
            "section unavailable for these runs</p>",
        ),
        page.section("Epoch time-series", _epoch_section(epochs)),
        page.section("Traces & SLO", traces_html),
        page.section(
            "Resilience", _resilience_section(events, summaries)
        ),
        page.section("Cache economics", _cache_section(summaries)),
        page.section("Trace events", _events_section(tree)),
        page.section("Metrics", _metrics_section(tree)),
    ]
    if tree.trajectories:
        dash = dashboard_data(tree.trajectories)
        rows = [
            [e["experiment"], e["records"],
             "ok" if e["ok"] else "REGRESSED",
             ", ".join(e["regressed_kpis"]) or "-"]
            for e in dash["experiments"]
        ]
        body_chunks.append(
            page.section(
                "Benchmark trajectories",
                page.html_table(
                    ["experiment", "records", "status", "regressed KPIs"],
                    rows,
                    row_classes=["" if e["ok"] else "regressed" for e in dash["experiments"]],
                ),
                '<p class="meta">render the full dashboard with '
                "<code>python -m repro dashboard</code></p>",
            )
        )
    problems = tree.all_problems()
    if problems:
        body_chunks.append(page.section("Problems", page.problems_html(problems)))

    html = page.html_page(title, "\n".join(body_chunks))
    report_manifest = {
        "schema": SCHEMA_VERSION,
        "title": title,
        "root": str(tree.root),
        "generated_unix": time.time(),
        "runs": [
            {
                "path": str(run.path),
                "manifests": len(run.manifests),
                "epochs": len(run.epochs),
                "events": len(run.events),
                "spans": len(run.spans),
                "missing": run.missing(),
                "problems": list(run.problems),
            }
            for run in tree.runs
        ],
        "traces": trace_summary,
        "slo": slo_rows,
        "figures": sorted(figure_map),
        "kpis": kpis_by_run,
        "fingerprints": fingerprints,
        "energy": energy_rows,
        "sweep_summaries": summaries,
        "trajectories": [
            {"path": str(t.path), "experiment": t.experiment,
             "records": len(t.records)}
            for t in tree.trajectories
        ],
        "problems": problems,
    }
    return html, report_manifest


def generate_report(
    root,
    out_dir=None,
    title: Optional[str] = None,
) -> Dict[str, Path]:
    """Discover ``root``, build the report, write HTML + manifest.

    Returns ``{"html": ..., "manifest": ...}`` paths.  ``out_dir``
    defaults to ``<root>/report``.  Raises :class:`FileNotFoundError`
    for a missing root and :class:`ReportError` for a root with no
    discoverable run manifests.
    """
    root = Path(root)
    tree = discover(root)
    html, report_manifest = build_report(tree, title=title)
    out_dir = Path(out_dir) if out_dir is not None else root / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    html_path = out_dir / "report.html"
    html_path.write_text(html)
    manifest_path = out_dir / "report-manifest.json"
    report_manifest["html"] = str(html_path)
    manifest_path.write_text(
        json.dumps(report_manifest, indent=1, sort_keys=True) + "\n"
    )
    return {"html": html_path, "manifest": manifest_path}
