"""Observability for every simulation: metrics, time-series, traces.

The ``repro.obs`` subsystem gives each simulation run the internal
visibility the paper's own evaluation relies on (the epoch-by-epoch way
split of Figure 15/19, metadata store dynamics, DRAM utilization) without
taxing the default path:

* :mod:`repro.obs.registry` -- hierarchical metrics (counters, gauges,
  log2-bucketed histograms) addressed by dotted name
  (``triage.meta_store.evictions``, ``dram.queue_penalty_cycles``);
* :mod:`repro.obs.sampler` -- an epoch time-series sampler whose rows
  export to JSONL/CSV;
* :mod:`repro.obs.events` -- a ring-buffered structured trace-event
  stream (partition re-decisions, Hawkeye training flips, metadata
  evictions) with severity/category filtering;
* :mod:`repro.obs.tracing` -- causal spans (trace/span/parent ids,
  derived deterministically from seeded tokens) with JSONL export, the
  per-request / per-cell waterfall source and the one record of phase
  wall time (``phase.*`` spans: trace gen, L2 stream, prefetchers,
  metadata store);
* :mod:`repro.obs.slo` -- declarative service-level objectives with
  multi-window burn-rate verdicts;
* :mod:`repro.obs.exposition` -- Prometheus text exposition of the
  registry (``repro metrics``, ``PrefetchService.metrics()``);
* :mod:`repro.obs.manifest` -- run manifests (config, workload, seed,
  trace length, wall time, package version, metric dump) attached to
  every :class:`~repro.sim.stats.SimulationResult`;
* :mod:`repro.obs.report` -- renders a flushed run directory back into
  human-readable tables (``python -m repro report <dir>``), including
  the phase wall-time table that ``python -m repro profile`` prints;
* :mod:`repro.obs.bench` -- timed, KPI-stamped benchmark records in
  append-only ``BENCH_<experiment>.json`` trajectories with regression
  comparison (``python -m repro bench <exp>`` / ``repro compare``).

Observability is **off by default**: the simulators only instrument when
an :class:`ObsSession` is active (passed explicitly or enabled globally
via :func:`enable`), and component hooks are single ``is None`` checks,
so the disabled path adds no keys to hot-path dicts and no measurable
wall time.  Per-access phase timing costs more still, so it needs its
own opt-in, ``ObsSession(profile=True)``.

Usage::

    from repro import obs

    session = obs.enable(out_dir="results/obs/demo")
    simulate(trace, "triage_dynamic")       # instruments automatically
    session.flush()                         # epochs.jsonl, events.jsonl, ...
    obs.disable()
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.events import TraceEventStream
from repro.obs.manifest import RunManifest
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import EpochSampler
from repro.obs.tracing import Tracer

__all__ = [
    "ObsSession",
    "RunObserver",
    "enable",
    "disable",
    "get_session",
]


class RunObserver:
    """Per-run handle handed to a simulation engine by the session.

    Components that emit trace events receive this object as their
    ``events`` hook (it exposes ``emit``); the engine calls
    :meth:`sample_epoch` once per timing epoch and :meth:`finish` with
    the run's manifest.
    """

    def __init__(self, session: "ObsSession", run_id: str):
        self.session = session
        self.run_id = run_id
        self.epoch = 0
        self._started = time.perf_counter()

    # -- trace events (duck-typed sink for component hooks) --------------

    def emit(self, category: str, severity: str = "info", **fields) -> None:
        """Forward one structured event into the session's stream."""
        self.session.events.emit(category, severity, run=self.run_id, **fields)

    # -- epoch time-series ------------------------------------------------

    def sample_epoch(self, **values) -> Dict[str, object]:
        """Record one epoch snapshot row tagged with this run's id."""
        row = self.session.sampler.sample(
            run=self.run_id, epoch=self.epoch, **values
        )
        self.epoch += 1
        return row

    # -- lifecycle ---------------------------------------------------------

    @property
    def wall_time_s(self) -> float:
        return time.perf_counter() - self._started

    def finish(self, manifest: RunManifest, metrics: Optional[Dict] = None) -> None:
        """Attach the metric dump to ``manifest`` and file it."""
        if metrics:
            for name, value in metrics.items():
                manifest.metrics[name] = value
        manifest.metrics.update(self.session.registry.as_dict())
        self.session.manifests.append(manifest)


class ObsSession:
    """One observability scope: registry + sampler + events + tracer.

    A session typically spans one experiment invocation (many simulate
    calls); :meth:`flush` writes everything it accumulated to disk.

    ``profile=True`` makes the engines time their hot loop per access
    and file the seconds as ``phase.*`` spans under each ``sim.run``; it
    turns tracing on, since spans are where phase time is recorded.
    """

    def __init__(
        self,
        out_dir: Optional[object] = None,
        event_capacity: Optional[int] = None,
        min_severity: str = "debug",
        categories: Optional[Sequence[str]] = None,
        profile: bool = False,
        trace: Optional[bool] = None,
        trace_capacity: Optional[int] = None,
    ):
        self.registry = MetricsRegistry()
        self.sampler = EpochSampler()
        self.events = TraceEventStream(
            capacity=event_capacity,
            min_severity=min_severity,
            categories=categories,
        )
        self.profile = bool(profile)
        # ``trace=None`` defers to REPRO_TRACE (enabled by default):
        # tracing costs nothing until a component actually opens a trace.
        self.tracer = Tracer(
            capacity=trace_capacity, enabled=True if profile else trace
        )
        self.manifests: List[RunManifest] = []
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._next_run = 0

    # -- run lifecycle -----------------------------------------------------

    def begin_run(self, workload: str, prefetcher: str) -> RunObserver:
        """Open a new observed run; the id encodes order + identity."""
        run_id = f"{self._next_run:03d}:{workload}:{prefetcher}"
        self._next_run += 1
        return RunObserver(self, run_id)

    # -- export ------------------------------------------------------------

    def flush(self, out_dir: Optional[object] = None) -> Dict[str, Path]:
        """Write everything collected so far; returns the paths written."""
        target = Path(out_dir) if out_dir is not None else self.out_dir
        if target is None:
            raise ValueError("no output directory: pass out_dir or set it on the session")
        target.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {}
        paths["epochs"] = self.sampler.to_jsonl(target / "epochs.jsonl")
        self.sampler.to_csv(target / "epochs.csv")
        paths["events"] = self.events.write_jsonl(target / "events.jsonl")
        event_counts = target / "event_counts.json"
        event_counts.write_text(json.dumps(self.events.tally()) + "\n")
        paths["event_counts"] = event_counts
        manifest_path = target / "manifests.jsonl"
        with manifest_path.open("w") as fh:
            for manifest in self.manifests:
                fh.write(manifest.to_json() + "\n")
        paths["manifests"] = manifest_path
        metrics_path = target / "metrics.json"
        metrics_path.write_text(self.registry.to_json() + "\n")
        paths["metrics"] = metrics_path
        if len(self.tracer):
            paths["spans"] = self.tracer.write_jsonl(target / "spans.jsonl")
        return paths


#: The process-wide session, used by simulators when no explicit session
#: is passed.  ``None`` means observability is disabled (the default).
_SESSION: Optional[ObsSession] = None


def enable(**kwargs) -> ObsSession:
    """Install (and return) a global session; see :class:`ObsSession`."""
    global _SESSION
    _SESSION = ObsSession(**kwargs)
    return _SESSION


def disable() -> None:
    """Tear down the global session (observability back to zero-cost)."""
    global _SESSION
    _SESSION = None


def get_session() -> Optional[ObsSession]:
    """The active global session, or ``None`` when disabled."""
    return _SESSION


@contextmanager
def session(**kwargs):
    """Context-managed :func:`enable`/:func:`disable` pair."""
    sess = enable(**kwargs)
    try:
        yield sess
    finally:
        disable()
