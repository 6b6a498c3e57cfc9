"""Benchmark trajectory: KPI extraction, timed runs, cross-run compare.

The paper's claims are quantitative (Figure 5/6 coverage and speedup,
Figure 11 off-chip traffic, Figure 19 way allocation), and the ROADMAP's
north star is speed -- so every revision of this repo needs a
machine-readable record of *what the figures produce* and *how fast they
run*.  This module is that record:

* **KPI extraction** -- each experiment module may define
  ``kpis(table) -> dict`` (fig05/fig06/fig11/fig19 do); everything else
  falls back to :func:`table_kpis`, the numeric cells of the table's
  aggregate row.  :func:`simulation_kpis` extracts the same headline
  metrics straight from a :class:`~repro.sim.stats.SimulationResult`.
* **Timed runs** -- :func:`bench_experiment` runs one experiment with
  warmup + N timed repeats (process memos cleared between repeats, so
  each repeat does full work), recording wall times, simulated-access
  throughput, peak RSS, result-cache hit/miss deltas, the
  simulator's deterministic work counts and host time by layer, all
  stamped with the machine fingerprint
  (:func:`repro.obs.manifest.machine_fingerprint`).
* **Trajectory** -- :func:`append_record` appends one schema-versioned
  record to ``BENCH_<experiment>.json`` at the repo root (append-only:
  existing records are never rewritten), giving every later PR a
  baseline to diff against.
* **Compare** -- :func:`compare_records` gates two records' KPIs and
  work counts at one relative tolerance, :data:`REL_TOL`;
  ``python -m repro compare`` exits non-zero on any move past it, which
  is the CI trajectory gate.

See ``docs/benchmarking.md`` for the schema and compare semantics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.layers import summary
from repro.obs.manifest import machine_fingerprint

#: Trajectory record format version, bumped on breaking schema changes.
SCHEMA_VERSION = 1

#: Relative slack for every gated KPI and work count.  The simulator is
#: deterministic, so this is only the goldens' cross-platform libm slack
#: (records written under one CPython are checked under another).
REL_TOL = 1e-9

#: Registry counters (kept by the engines' ``_register_run_metrics``)
#: whose deltas over the final timed repeat form a record's ``work``.
WORK_COUNTERS = (
    "sim.accesses",
    "sim.dram_accesses",
    "sim.prefetches_issued",
    "sim.prefetches_useful",
    "triage.meta_store.lookups",
    "triage.meta_store.hits",
    "triage.meta_store.inserts",
    "triage.meta_store.evictions",
    "triage.partition.decisions",
    "triage.partition.changes",
)

#: Required record fields and the types a valid record carries.
_RECORD_FIELDS: Dict[str, tuple] = {
    "schema": (int,),
    "experiment": (str,),
    "quick": (bool,),
    "repeats": (int,),
    "warmup": (int,),
    "created_unix": (int, float),
    "kpis": (dict,),
    "wall_times_s": (list,),
    "wall_time_mean_s": (int, float),
    "wall_time_min_s": (int, float),
    "accesses_total": (int,),
    "throughput_accesses_per_s": (int, float),
    "peak_rss_kb": (int,),
    "cache": (dict,),
    "fingerprint": (dict,),
}


class BenchSchemaError(ValueError):
    """A trajectory record is malformed or two records are incomparable."""


# -- KPI extraction ----------------------------------------------------------


def _sanitize(header: str) -> str:
    out = "".join(c if c.isalnum() else "_" for c in str(header).lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_") or "col"


def table_kpis(table) -> Dict[str, float]:
    """Generic fallback: numeric cells of the table's last (aggregate) row.

    Most figure tables end in a ``geomean``/``average``/``mean`` row;
    for those that don't, the last data row is still a stable, if less
    meaningful, signature of the figure's output.
    """
    if not getattr(table, "rows", None):
        return {}
    last = table.rows[-1]
    out: Dict[str, float] = {}
    for header, cell in zip(table.headers, last):
        if isinstance(cell, bool) or not isinstance(cell, (int, float)):
            continue
        out[_sanitize(header)] = float(cell)
    return out


def simulation_kpis(result) -> Dict[str, float]:
    """Headline KPIs straight from one :class:`SimulationResult`."""
    return {
        "ipc": float(result.ipc),
        "coverage": float(result.coverage),
        "accuracy": float(result.accuracy),
        "traffic_bytes": float(result.total_traffic_bytes),
        "metadata_llc_accesses": float(result.metadata_llc_accesses),
        "metadata_dram_accesses": float(result.metadata_dram_accesses),
    }


def kpis_for(name: str, module, table) -> Dict[str, float]:
    """The experiment's own ``kpis(table)`` when defined, else the fallback."""
    extractor = getattr(module, "kpis", None)
    if extractor is not None:
        return {k: float(v) for k, v in extractor(table).items()}
    return table_kpis(table)


# -- timed runs --------------------------------------------------------------


def _peak_rss_kb() -> int:
    """Peak resident set size over this process and its workers, in KB."""
    try:
        import resource
    except ImportError:  # non-POSIX: report 0 rather than failing the bench
        return 0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, kids))


def _cache_counts() -> Tuple[bool, int, int]:
    from repro import cache

    store = cache.get_cache()
    if store is None:
        return False, 0, 0
    return True, store.hits, store.misses


def _work_counts(registry) -> Dict[str, int]:
    """Current value of every :data:`WORK_COUNTERS` entry (0 if unset)."""
    counts = {}
    for name in WORK_COUNTERS:
        metric = registry.get(name)
        counts[name] = int(metric.value) if metric is not None else 0
    return counts


def bench_experiment(
    name: str,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
) -> Dict[str, object]:
    """Run one experiment timed, returning a schema-valid trajectory record.

    ``warmup`` untimed runs come first (imports, disk-cache population,
    allocator steady state), then ``repeats`` timed runs; the process
    memo caches are cleared before every run so each timed repeat does
    the experiment's full work.  A configured disk cache
    (``REPRO_CACHE_DIR``) still serves -- the record's cache hit/miss
    delta says how much, so a warm-cache bench is distinguishable from a
    cold one.  KPIs are extracted from the final repeat's table, and the
    ``work`` counts are the :data:`WORK_COUNTERS` deltas over that
    repeat.  A cache-served cell skips the simulator, so ``work`` is
    written only when the timed repeats had no disk-cache hits.
    ``layers`` is :func:`repro.obs.layers.summary` of the timed repeats.
    """
    from repro import obs
    from repro.experiments import common
    from repro.experiments.registry import EXPERIMENTS

    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; choose from: {known}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    module = EXPERIMENTS[name]

    session = obs.get_session()
    ephemeral = session is None
    if ephemeral:
        session = obs.enable()
    sampler = session.layers
    started = False
    try:
        for _ in range(max(0, warmup)):
            common.clear_caches()
            module.run(quick=quick)

        enabled, hits0, misses0 = _cache_counts()
        first = _work_counts(session.registry)
        started = sampler.start()
        counts0 = dict(sampler.counts)

        wall_times: List[float] = []
        table = None
        for _ in range(repeats):
            common.clear_caches()
            before = _work_counts(session.registry)
            start = time.perf_counter()
            table = module.run(quick=quick)
            wall_times.append(time.perf_counter() - start)

        _, hits1, misses1 = _cache_counts()
        last = _work_counts(session.registry)
    finally:
        if started:
            sampler.stop()
        if ephemeral:
            obs.disable()

    timed_total = sum(wall_times)
    accesses_total = last["sim.accesses"] - first["sim.accesses"]
    record: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "experiment": name,
        "quick": bool(quick),
        "repeats": int(repeats),
        "warmup": int(max(0, warmup)),
        "created_unix": time.time(),
        "kpis": kpis_for(name, module, table),
        "wall_times_s": [round(t, 6) for t in wall_times],
        "wall_time_mean_s": round(timed_total / len(wall_times), 6),
        "wall_time_min_s": round(min(wall_times), 6),
        "accesses_total": accesses_total,
        "throughput_accesses_per_s": round(
            accesses_total / timed_total if timed_total > 0 else 0.0, 3
        ),
        "peak_rss_kb": _peak_rss_kb(),
        "cache": {
            "enabled": enabled,
            "hits": hits1 - hits0,
            "misses": misses1 - misses0,
        },
        "fingerprint": machine_fingerprint(),
        "layers": summary(
            {k: n - counts0.get(k, 0) for k, n in sampler.counts.items()
             if n > counts0.get(k, 0)},
            timed_total / len(wall_times),
            sampler.note,
        ),
    }
    if hits1 == hits0:
        record["work"] = {name: last[name] - before[name] for name in last}
    validate_record(record)
    return record


def tracing_overhead_pct(
    name: str, quick: bool = False, repeats: int = 2
) -> float:
    """Measured wall-time overhead of span recording, in percent.

    Times the experiment under a full observability session with tracing
    **off**, then again with tracing **on** (min wall over ``repeats``
    each, after one untimed warmup), so the delta isolates the span
    layer from the cost of observability as a whole.  Negative values
    (noise on a machine where tracing is cheaper than the jitter) are
    reported as measured; the CLI gate only cares about the upper bound.

    The ambient global session, if any, is restored on exit.
    """
    from repro import obs
    from repro.experiments import common
    from repro.experiments.registry import EXPERIMENTS

    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; choose from: {known}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    module = EXPERIMENTS[name]
    previous = obs.get_session()

    def timed(trace_enabled: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            obs.enable(trace=trace_enabled)
            try:
                common.clear_caches()
                start = time.perf_counter()
                module.run(quick=quick)
                best = min(best, time.perf_counter() - start)
            finally:
                obs.disable()
        return best

    try:
        obs.enable(trace=False)
        try:
            common.clear_caches()
            module.run(quick=quick)  # warmup: imports, trace generation
        finally:
            obs.disable()
        off = timed(False)
        on = timed(True)
    finally:
        obs._SESSION = previous
    if off <= 0:
        return 0.0
    return round(100.0 * (on - off) / off, 3)


# -- trajectory files --------------------------------------------------------


def default_trajectory_path(name: str, root: Optional[object] = None) -> Path:
    """``BENCH_<experiment>.json`` under ``root`` (default: the CWD)."""
    base = Path(root) if root is not None else Path.cwd()
    return base / f"BENCH_{name}.json"


def validate_record(record: Dict[str, object]) -> None:
    """Raise :class:`BenchSchemaError` unless ``record`` is schema-valid."""
    if not isinstance(record, dict):
        raise BenchSchemaError(f"record is {type(record).__name__}, not an object")
    for key, types in _RECORD_FIELDS.items():
        if key not in record:
            raise BenchSchemaError(f"record is missing required field {key!r}")
        if not isinstance(record[key], types):
            raise BenchSchemaError(
                f"field {key!r} is {type(record[key]).__name__}, want "
                + "/".join(t.__name__ for t in types)
            )
    if record["schema"] != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"record schema v{record['schema']} != supported v{SCHEMA_VERSION}"
        )
    for kpi, value in record["kpis"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BenchSchemaError(f"KPI {kpi!r} is not numeric: {value!r}")
    # ``work`` is optional: records written before it existed, and
    # records whose timed repeats hit the disk cache, carry none.
    work = record.get("work", {})
    if not isinstance(work, dict):
        raise BenchSchemaError(f"field 'work' is {type(work).__name__}, want dict")
    for counter, value in work.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise BenchSchemaError(f"work count {counter!r} is not an int: {value!r}")
    layers = record.get("layers", {})  # optional: older records have none
    if not isinstance(layers, dict):
        raise BenchSchemaError(f"field 'layers' is {type(layers).__name__}, want dict")


def load_trajectory(path) -> List[Dict[str, object]]:
    """Every record in one ``BENCH_*.json`` file (oldest first)."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        text = path.read_text(encoding="utf-8").strip()
    except UnicodeDecodeError as exc:
        raise BenchSchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    if not text:
        return []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise BenchSchemaError(f"{path}: trajectory must be a JSON array")
    return data


def append_record(path, record: Dict[str, object]) -> Path:
    """Append one record to a trajectory file (created when missing).

    Existing records ride along untouched -- the trajectory is
    append-only, so committed history is never rewritten by a new bench.
    """
    validate_record(record)
    path = Path(path)
    records = load_trajectory(path)
    records.append(record)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return path


# -- cross-run comparison ----------------------------------------------------


@dataclass
class Comparison:
    """Outcome of diffing two trajectory records."""

    experiment: str
    rows: List[List[object]] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "ok": self.ok,
            "rows": [
                dict(zip(("metric", "baseline", "candidate", "delta_pct", "status"), r))
                for r in self.rows
            ],
            "regressions": list(self.regressions),
            "notes": list(self.notes),
        }


def _rel_delta(base: float, cand: float) -> float:
    if base == 0:
        return 0.0 if cand == 0 else float("inf")
    return (cand - base) / abs(base)


def _gate(
    comparison: Comparison,
    what: str,
    prefix: str,
    base_values: Dict[str, float],
    cand_values: Dict[str, float],
) -> None:
    """Append one row per name; flag any move past :data:`REL_TOL`."""
    for name in sorted(set(base_values) | set(cand_values)):
        metric = prefix + name
        if name not in cand_values:
            comparison.rows.append([metric, base_values[name], None, None, "REMOVED"])
            comparison.regressions.append(
                f"{what} {name!r} disappeared from the candidate (schema drift)"
            )
            continue
        if name not in base_values:
            comparison.rows.append([metric, None, cand_values[name], None, "new"])
            comparison.notes.append(f"{what} {name!r} is new in the candidate")
            continue
        base, cand = base_values[name], cand_values[name]
        delta = _rel_delta(float(base), float(cand))
        status = "ok"
        if abs(delta) > REL_TOL:
            status = "REGRESSED"
            comparison.regressions.append(
                f"{what} {name!r} moved {delta:+.3g} relative "
                f"(tolerance {REL_TOL:g}): {base!r} -> {cand!r}"
            )
        comparison.rows.append([metric, base, cand, 100.0 * delta, status])


def compare_records(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> Comparison:
    """Gate two records' KPIs and work counts at :data:`REL_TOL`.

    Every KPI and every ``work`` count regresses when it moved by more
    than :data:`REL_TOL` of the baseline value in either direction (an
    unexplained improvement is as much a fidelity question as a loss).
    A name present in the baseline but missing from the candidate is
    schema drift and counts as a regression; a new name is noted but
    passes.  When either record lacks ``work`` the counts are skipped
    with a note.  Records of different experiments or quick modes can
    never match, so they raise :class:`BenchSchemaError`.
    """
    validate_record(baseline)
    validate_record(candidate)
    for key in ("experiment", "quick"):
        if baseline[key] != candidate[key]:
            raise BenchSchemaError(
                f"cannot compare {key} {baseline[key]!r} with {candidate[key]!r}"
            )
    comparison = Comparison(experiment=str(baseline["experiment"]))
    _gate(comparison, "KPI", "", baseline["kpis"], candidate["kpis"])
    if "work" in baseline and "work" in candidate:
        _gate(comparison, "work count", "work.", baseline["work"], candidate["work"])
    else:
        comparison.notes.append(
            "work counts not compared: "
            + ("the baseline" if "work" not in baseline else "the candidate")
            + " record has none"
        )
    return comparison


def render_comparison(comparison: Comparison) -> str:
    """The comparison as an aligned text table plus notes/regressions."""
    def fmt(cell: object) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    headers = ["metric", "baseline", "candidate", "delta%", "status"]
    body = [[fmt(c) for c in row] for row in comparison.rows]
    table = [headers] + body
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = [f"== Bench compare: {comparison.experiment} =="]
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for note in comparison.notes:
        lines.append(f"note: {note}")
    for regression in comparison.regressions:
        lines.append(f"REGRESSION: {regression}")
    lines.append("verdict: " + ("ok" if comparison.ok else "REGRESSED"))
    return "\n".join(lines)
