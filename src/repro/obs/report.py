"""Render a flushed observability directory back into readable tables.

``python -m repro report <dir>`` points here.  A run directory is what
:meth:`repro.obs.ObsSession.flush` wrote: ``manifests.jsonl``,
``epochs.jsonl`` (+ ``.csv``), ``events.jsonl`` with its
``event_counts.json``, ``metrics.json`` and optionally ``spans.jsonl``.  A bare ``*.jsonl`` file is also accepted
and treated as an epoch time-series.  Both are read by the same
tolerant reader as the HTML report (:mod:`repro.obs.reporting.discover`):
torn or garbled lines are skipped and listed under "Problems".

The epoch table is the diagnosis tool for diverging figures: it shows,
per run and per epoch, the per-core metadata way split, store hit rate,
DRAM utilization and coverage -- the internal trajectory behind the
end-of-run aggregate (see ``docs/observability.md``).

:func:`phases_table` sums the ``phase.*`` spans of a profiled run; both
``repro report`` (from ``spans.jsonl``) and ``repro profile`` (from the
live tracer) print it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.reporting.discover import RunDir, load_run_dir, read_jsonl_tolerant

#: Epoch columns promoted to the front of the table when present.
_LEAD_COLUMNS = ("run", "epoch")
#: Epoch columns rendered by default (suffix match on flattened names).
_DEFAULT_SUFFIXES = (
    "meta_ways",
    "llc_data_ways",
    "meta_capacity_bytes",
    "meta_hit_rate",
    "dram_utilization",
    "coverage",
)


def load(path) -> RunDir:
    """The run directory, or bare epochs file, at ``path``."""
    path = Path(path)
    if path.is_file():
        epochs, problems = read_jsonl_tolerant(path)
        return RunDir(path=path, epochs=epochs, problems=problems)
    if not path.is_dir():
        raise FileNotFoundError(f"no such run directory: {path}")
    return load_run_dir(path)


def _format_table(headers: Sequence[str], rows: List[List[object]], title: str) -> str:
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        if cell is None:
            return "-"
        return str(cell)

    table = [list(headers)] + [[fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = [f"== {title} =="]
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def _epoch_columns(rows: List[Dict[str, object]], columns: Optional[Sequence[str]]) -> List[str]:
    seen: Dict[str, None] = {}
    for row in rows:
        for key in row:
            seen.setdefault(key, None)
    if columns:
        picked = [c for c in seen if c in columns]
    else:
        picked = [
            c for c in seen
            if c not in _LEAD_COLUMNS and c.endswith(tuple(_DEFAULT_SUFFIXES))
        ]
        if not picked:  # fall back to everything this sampler recorded
            picked = [c for c in seen if c not in _LEAD_COLUMNS]
    lead = [c for c in _LEAD_COLUMNS if c in seen]
    return lead + picked


def epochs_table(
    rows: List[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "Epoch time-series",
) -> str:
    """The epoch rows as one table (way-split columns by default)."""
    if not rows:
        return f"== {title} ==\n(no epoch samples)"
    headers = _epoch_columns(rows, columns)
    body = [[row.get(h) for h in headers] for row in rows]
    return _format_table(headers, body, title)


def manifests_table(manifests: List[Dict[str, object]]) -> str:
    headers = ["kind", "workloads", "prefetcher", "trace_len", "warmup", "seeds", "wall_s"]
    rows = [
        [
            m.get("kind"),
            ",".join(m.get("workloads", [])),
            m.get("prefetcher"),
            m.get("trace_length"),
            m.get("warmup"),
            ",".join(str(s) for s in m.get("seeds", [])),
            m.get("wall_time_s"),
        ]
        for m in manifests
    ]
    return _format_table(headers, rows, "Run manifests")


def events_table(
    events: List[Dict[str, object]],
    tail: int = 8,
    tally: Optional[Dict[str, object]] = None,
) -> str:
    """Event counts per category/severity and the newest ``tail`` events.

    ``tally`` is the stream's flush-time :meth:`TraceEventStream.tally`;
    when fewer events were read than emitted, the table says how many
    fell out of the ring and how many written lines were unreadable.
    """
    counts: Dict[str, int] = {}
    for event in events:
        key = f"{event.get('category')}/{event.get('severity')}"
        counts[key] = counts.get(key, 0) + 1
    rows = [[k, v] for k, v in sorted(counts.items())]
    out = _format_table(["category/severity", "count"], rows, "Trace events")
    emitted = (tally or {}).get("emitted")
    if isinstance(emitted, int) and emitted != len(events):
        out += f"\nkept {len(events)} of {emitted} emitted events"
        written = tally.get("kept")
        if isinstance(written, int):
            if written < emitted:
                out += (
                    f"; the {emitted - written} oldest fell out of the "
                    f"{tally.get('capacity')}-event ring "
                    "(raise REPRO_OBS_EVENTS=<capacity>)"
                )
            if len(events) < written:
                out += f"; {written - len(events)} written events could not be read"
    if events and tail > 0:
        out += "\nlast events:"
        for event in events[-tail:]:
            out += "\n  " + json.dumps(event, sort_keys=True)
    return out


def _span_seconds(span: Dict[str, object]) -> Optional[float]:
    start, end = span.get("start"), span.get("end")
    if isinstance(start, (int, float)) and isinstance(end, (int, float)):
        return float(end) - float(start)
    return None


def phases_table(spans: List[Dict[str, object]], evicted: int = 0) -> str:
    """Wall time per ``phase.*`` span name, most expensive first.

    Each row sums that phase's spans: total seconds, share of the
    top-level phase time, span count, and mean/min/max seconds per
    span.  A phase nested under another phase (``metadata_store``
    under ``l2_prefetcher``) is a slice of its parent, so it gets a
    share but does not add to the total.  Ties sort alphabetically.
    ``evicted`` is how many older span records the tracer's ring
    dropped; the sums then undercount, and the table says so.
    """
    title = "Wall-time by phase"
    phase_ids = {
        s.get("span_id") for s in spans
        if str(s.get("name", "")).startswith("phase.")
    }
    durations: Dict[str, List[float]] = {}
    total = 0.0
    for span in spans:
        name = str(span.get("name", ""))
        seconds = _span_seconds(span)
        if not name.startswith("phase.") or seconds is None:
            continue
        durations.setdefault(name[len("phase."):], []).append(seconds)
        if span.get("parent_id") not in phase_ids:
            total += seconds
    if not durations:
        table = f"== {title} ==\n(no phase spans)"
    else:
        phases = sorted(
            ((name, sum(d), d) for name, d in durations.items()),
            key=lambda row: (-row[1], row[0]),
        )
        rows = [
            [
                name,
                f"{secs:.3f}",
                f"{secs / total if total else 0.0:.1%}",
                len(d),
                f"{secs / len(d):.6f}",
                f"{min(d):.6f}",
                f"{max(d):.6f}",
            ]
            for name, secs, d in phases
        ]
        headers = ["phase", "seconds", "share", "spans", "mean", "min", "max"]
        table = _format_table(headers, rows, title) + f"\ntotal: {total:.3f}s"
    if evicted:
        table += (
            f"\n{evicted} older span records were evicted from the ring;"
            " the sums above undercount (raise REPRO_TRACE=<capacity>)"
        )
    return table


def render_report(
    path,
    columns: Optional[Sequence[str]] = None,
    events_tail: int = 8,
) -> str:
    """The full textual report for one run directory (or epochs file).

    ``events_tail`` is how many of the newest trace events are echoed
    verbatim below the per-category counts (``--events-tail`` on the
    ``report`` CLI).
    """
    run = load(path)
    sections = []
    if run.manifests:
        sections.append(manifests_table(run.manifests))
    sections.append(epochs_table(run.epochs, columns=columns))
    if run.events or run.event_counts.get("emitted"):
        sections.append(
            events_table(run.events, tail=events_tail, tally=run.event_counts)
        )
    if run.metrics:
        rows = [[name, value] for name, value in sorted(run.metrics.items())
                if not isinstance(value, dict)]
        hist_rows = [[name, json.dumps(value)] for name, value in sorted(run.metrics.items())
                     if isinstance(value, dict)]
        sections.append(_format_table(["metric", "value"], rows + hist_rows, "Metrics"))
    if any(str(s.get("name", "")).startswith("phase.") for s in run.spans):
        sections.append(phases_table(run.spans))
    if run.problems:
        sections.append("== Problems ==\n" + "\n".join(run.problems))
    return "\n\n".join(sections)
