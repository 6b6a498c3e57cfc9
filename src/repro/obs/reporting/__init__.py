"""Reporting: render the observability stack's artifacts for humans.

Every layer of the reproduction emits structured artifacts -- run
manifests, epoch JSONL time-series, ring-buffered trace events,
``BENCH_<exp>.json`` trajectories -- and this
package is their read side:

* :mod:`repro.obs.reporting.discover` -- recursive artifact discovery
  under a results/cache root, tolerant of partial or corrupt trees;
* :mod:`repro.obs.reporting.frames` -- a dependency-free columnar frame
  over the discovered rows (``to_pandas()`` when pandas is installed);
* :mod:`repro.obs.reporting.figures` -- inline-SVG bar/line charts, no
  matplotlib and no network fetches;
* :mod:`repro.obs.reporting.html` -- a self-contained static HTML
  report per sweep (manifest, machine fingerprint, resolved config,
  KPIs, figures, epoch time-series, resilience events, cache economics,
  the Figure-13 energy model) plus a machine-readable
  ``report-manifest.json``;
* :mod:`repro.obs.reporting.dashboard` -- the cross-run KPI/perf
  dashboard over ``BENCH_*.json`` trajectories with regression
  highlighting against the ``repro compare`` tolerances.

CLI: ``python -m repro report html <root> [--out DIR] [--open]`` and
``python -m repro dashboard``.  ``sweep(report=True)`` (or
``REPRO_REPORT=1``) drops a report at sweep end.  See
``docs/reporting.md``.
"""

from __future__ import annotations

from repro.obs.reporting.dashboard import dashboard_data, generate_dashboard
from repro.obs.reporting.discover import (
    ArtifactTree,
    RunDir,
    TrajectoryFile,
    discover,
    read_jsonl_tolerant,
)
from repro.obs.reporting.frames import Frame
from repro.obs.reporting.html import ReportError, generate_report

__all__ = [
    "ArtifactTree",
    "Frame",
    "ReportError",
    "RunDir",
    "TrajectoryFile",
    "dashboard_data",
    "discover",
    "generate_dashboard",
    "generate_report",
    "read_jsonl_tolerant",
]
