"""Parallel sweep execution over a process pool, with the disk cache.

The unit of work is a *cell*: one ``(workload, prefetcher-config)``
simulation, described by a picklable dict.  :func:`run_cells` executes a
list of cells either in-process (``n_jobs=1``) or fanned out over a
``ProcessPoolExecutor``, returning results **in input order** either
way.  Both paths run the *same* per-cell code
(:func:`simulate_sweep_cell` / ``experiments.common.run_single``), so a
parallel sweep is bit-identical to a serial one -- the determinism tests
in ``tests/test_parallel_determinism.py`` pin this down.

Resilience: execution is driven by :mod:`repro.resilience` -- per-cell
retries with backoff, optional per-cell wall-clock timeouts,
``BrokenProcessPool`` recovery by pool respawn (re-running only
unfinished cells, degrading to serial after repeated pool deaths) and
graceful SIGINT/SIGTERM shutdown.  Knobs: ``retries``/``cell_timeout``
arguments, ``REPRO_RETRIES``/``REPRO_CELL_TIMEOUT`` ambiently.
Every recovery emits a ``resilience.*`` trace event; the seeded chaos
harness in :mod:`repro.faults` (``REPRO_FAULTS``) exercises each path
deterministically.  See ``docs/resilience.md``.

Caching: the result cache is the sweep's only checkpoint.  Before
dispatch, :func:`run_cells` serves every cell whose result is already on
disk, so re-running an interrupted or finished grid dispatches only the
missing cells and a warm-cache sweep makes zero ``simulate()`` calls.
Dispatched cells still consult the process cache
(:func:`repro.cache.get_cache`) for their traces, which have a disk
tier too.  Workers receive the parent's cache root explicitly in their
payload (no reliance on fork-time inheritance).
The in-process trace memo is a small LRU (:data:`_TRACE_MEMO`), so long
multi-benchmark sessions do not grow memory without bound.

Observability: when the parent has an active
:class:`~repro.obs.ObsSession`, each worker runs its cell under a fresh
local session and ships back a typed metrics dump, its trace events,
epoch rows, spans and manifests; the parent folds them in **in
cell-submission order**, so merged counters/events are deterministic
regardless of worker scheduling.  When tracing is on, every cell runs
under a root ``sweep.cell`` span whose ids derive from the cell's
identity token (propagated over the wire), so the merged trace tree of
a parallel sweep is bit-identical to a serial one's.  Run manifests of parallel results are also appended
to the always-on :data:`repro.obs.manifest.RUN_LOG` (worker-side logs
die with the worker), keeping bench provenance files complete.
"""

from __future__ import annotations

import os
import sys
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from repro import cache, config, faults, resilience
from repro.core.triage import TriageConfig
from repro.obs import get_session
from repro.obs.manifest import RUN_LOG, RunManifest, log_cached_manifest
from repro.sim.single_core import simulate
from repro.sim.stats import MultiCoreResult, SimulationResult
from repro.workloads import spec as spec_workloads

Cell = Dict[str, object]

#: Payload bookkeeping keys that are not part of a cell's identity.
_TRANSPORT_KEYS = frozenset(
    {
        "cache_dir",
        "obs",
        "faults",
        "faults_seed",
        "fault_token",
        "fault_attempt",
        "trace",
    }
)


def _jobs_env() -> Optional[int]:
    """``REPRO_JOBS`` as a positive int, or ``None`` (unset or invalid).

    Invalid, zero or negative values warn once (stderr plus a
    ``config.invalid_env`` obs event) and are ignored, rather than being
    silently clamped to 1 as they once were.
    """
    value = config.positive_env("REPRO_JOBS", int, minimum=1)
    return int(value) if value is not None else None


def default_jobs() -> int:
    """Worker count when none is given: ``REPRO_JOBS``, else cores - 1."""
    env = _jobs_env()
    if env is not None:
        return env
    return max(1, (os.cpu_count() or 2) - 1)


def jobs_from_env(default: int = 1) -> int:
    """``REPRO_JOBS`` if set (and valid), else ``default``.

    Implicit call sites (figure harnesses, ``sweep()`` without
    ``n_jobs``) use this so they stay serial unless the user opted in
    via ``--jobs`` / the environment; explicit :func:`run_cells` callers
    get the cores-based :func:`default_jobs` instead.
    """
    env = _jobs_env()
    return env if env is not None else default


# -- cells -------------------------------------------------------------------


def sweep_cell(
    bench: str,
    spec,
    config_name: str,
    n_accesses: int,
    seed: int,
    scale: int,
    machine,
    warmup: int,
    degree: int = 1,
) -> Cell:
    """Describe one sweep cell (everything a worker needs, picklable)."""
    return {
        "task": "sweep",
        "bench": bench,
        "spec": spec,
        "config_name": config_name,
        "n_accesses": n_accesses,
        "seed": seed,
        "scale": scale,
        "machine": machine,
        "warmup": warmup,
        "degree": degree,
    }


def run_single_cell(**kwargs) -> Cell:
    """A cell that executes ``experiments.common.run_single(**kwargs)``."""
    return {"task": "run_single", "kwargs": kwargs}


def _parallel_safe(cell: Cell) -> bool:
    """Whether a cell can cross a process boundary.

    Sweep cells carrying an already-built prefetcher instance (shared
    mutable state) or a factory callable stay in-process: shipping a
    copy to a worker would silently change the documented
    state-carrying semantics, and callables generally don't pickle.
    """
    if cell["task"] != "sweep":
        return True
    return cell["spec"] is None or isinstance(cell["spec"], (str, TriageConfig))


def cell_identity(cell: Cell) -> Optional[str]:
    """A stable content hash naming this cell, or ``None``.

    It seeds the cell's fault-injection token and its ``sweep.cell``
    trace context, so both are the same in every invocation and on
    either side of a process boundary.  Cells carrying prefetcher
    instances or factory callables have no stable identity (mutable
    state / object identity) and fall back to their grid position.
    """
    try:
        payload = {
            key: value
            for key, value in cell.items()
            if key not in _TRANSPORT_KEYS
        }
        return cache.stable_hash({"cell": payload})
    except cache.UncacheableSpec:
        return None


def _sweep_result_key(cell: Cell) -> Optional[str]:
    """The disk-cache key a sweep cell's result lands under, or ``None``."""
    try:
        fingerprint = cache.spec_fingerprint(cell["spec"])
    except cache.UncacheableSpec:
        return None
    return cache.run_key(
        namespace="sweep",
        workload={
            "suite": "spec",
            "bench": cell["bench"],
            "n_accesses": cell["n_accesses"],
            "seed": cell["seed"],
            "scale": cell["scale"],
        },
        prefetcher=fingerprint,
        machine=cell["machine"],
        degree=cell["degree"],
        warmup=cell["warmup"],
    )


def cell_result_key(cell: Cell) -> Optional[str]:
    """Where this cell's result is (or will be) cached, or ``None``."""
    if cell["task"] == "sweep":
        return _sweep_result_key(cell)
    if cell["task"] == "run_single":
        from repro.experiments import common  # lazy: common imports us

        try:
            return common.run_single_cache_key(**cell["kwargs"])
        except cache.UncacheableSpec:
            return None
    return None


# -- per-cell execution (shared by the serial and parallel paths) ------------


class _LruMemo(OrderedDict):
    """A small LRU dict: :meth:`store` evicts the least-recent entries."""

    def __init__(self, maxsize: int = 8):
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key):
        if key in self:
            self.move_to_end(key)
            return self[key]
        return None

    def store(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)


#: Process-local trace memo so a sweep generates each workload once per
#: process even with the disk cache off (cells of one benchmark share
#: their trace, as the pre-parallel serial loop did).  Bounded (LRU over
#: (bench, n, seed, scale)) so long multi-benchmark sessions don't grow
#: without limit; evicted traces are regenerated or re-read from the
#: disk tier on the next touch.  Cleared by :func:`clear_trace_memo` /
#: ``experiments.common.clear_caches``.
_TRACE_MEMO = _LruMemo(maxsize=8)


def clear_trace_memo() -> None:
    _TRACE_MEMO.clear()


def _sweep_trace(cell: Cell, store):
    """The cell's workload trace: process memo, disk tier, else generate."""
    memo_key = (cell["bench"], cell["n_accesses"], cell["seed"], cell["scale"])
    memoed = _TRACE_MEMO.lookup(memo_key)
    if memoed is not None:
        return memoed
    key = None
    if store is not None:
        key = cache.trace_key(
            "spec", cell["bench"], cell["n_accesses"], cell["seed"], cell["scale"]
        )
        cached = store.get_trace(key)
        if cached is not None:
            _TRACE_MEMO.store(memo_key, cached)
            return cached
    trace = spec_workloads.make_trace(
        cell["bench"],
        n_accesses=cell["n_accesses"],
        seed=cell["seed"],
        scale=cell["scale"],
    )
    if key is not None:
        store.put_trace(key, trace)
    _TRACE_MEMO.store(memo_key, trace)
    return trace


def simulate_sweep_cell(cell: Cell) -> SimulationResult:
    """Run one sweep cell: disk-cache lookup, else simulate (and store)."""
    store = cache.get_cache()
    key = None
    if store is not None:
        key = _sweep_result_key(cell)
        if key is not None:
            hit = store.get_result(key)
            if hit is not None:
                log_cached_manifest(hit)
                return hit
    trace = _sweep_trace(cell, store)
    result = simulate(
        trace,
        cell["spec"],
        machine=cell["machine"],
        warmup_accesses=cell["warmup"],
        degree=cell["degree"],
    )
    if key is not None:
        store.put_result(key, result)
    return result


def _run_task(cell: Cell):
    """Execute one cell in the current process."""
    task = cell["task"]
    if task == "sweep":
        return simulate_sweep_cell(cell)
    if task == "run_single":
        from repro.experiments import common  # lazy: common imports us

        return common.run_single(**cell["kwargs"])
    raise ValueError(f"unknown cell task {task!r}")


# -- worker side -------------------------------------------------------------


def _fire_cell_faults(payload: Cell) -> None:
    """Consult the armed fault plan at the per-cell sites."""
    token = str(payload.get("fault_token") or "")
    attempt = int(payload.get("fault_attempt") or 0)
    faults.fire("worker_crash", token, attempt)
    faults.fire("cell_timeout", token, attempt)


def _cell_span(session, payload: Cell):
    """Open the cell's root ``sweep.cell`` span from its wire context.

    The submitting :func:`run_cells` derives the context purely from the
    cell's identity token, so the span reconstructed here -- in a worker
    or in-process -- carries the *same* trace/span ids either way; that
    is what makes a parallel sweep's trace tree bit-identical to the
    serial one.  Returns ``NULL_SPAN`` when no context was attached.
    """
    from repro.obs.tracing import NULL_SPAN

    wire = payload.get("trace")
    if session is None or not wire or not session.tracer.enabled:
        return NULL_SPAN
    return session.tracer.begin_from_wire(
        wire,
        "sweep.cell",
        task=str(payload.get("task")),
        bench=str(payload.get("bench") or ""),
        config=str(payload.get("config_name") or ""),
    )


def _execute(payload: Cell) -> Dict[str, object]:
    """Worker entry point: configure cache/obs/faults locally, run, dump.

    The output dict carries ``seconds`` -- the cell's own wall time
    inside the worker, excluding queueing and transport -- which
    :func:`run_cells` republishes as a ``parallel.cell_done`` trace
    event (the benchmark harness's per-cell latency source).
    """
    import time

    from repro import obs as obs_mod

    if payload.get("faults"):
        faults.configure(payload["faults"], seed=int(payload.get("faults_seed") or 0))
    faults.mark_worker()
    _fire_cell_faults(payload)
    if payload.get("cache_dir"):
        cache.configure(payload["cache_dir"])
    if not payload.get("obs"):
        # A forked worker inherits a copy of the parent's session; writes
        # to it would be silently lost, so make the state explicit.
        obs_mod.disable()
        start = time.perf_counter()
        result = _run_task(payload)
        return {
            "result": result,
            "obs": None,
            "local": False,
            "seconds": time.perf_counter() - start,
        }
    store = cache.get_cache()
    lookups = (store.hits, store.misses) if store is not None else (0, 0)
    session = obs_mod.enable()
    try:
        start = time.perf_counter()
        with _cell_span(session, payload):
            result = _run_task(payload)
        seconds = time.perf_counter() - start
        dump = {
            # This cell's disk-cache hits/misses, which the parent's
            # store counts as its own (a worker's store is a copy).
            "cache": [store.hits - lookups[0], store.misses - lookups[1]]
            if store is not None
            else [0, 0],
            "metrics": session.registry.dump_typed(),
            "events": [e.to_dict() for e in session.events.events()],
            "epochs": list(session.sampler.rows),
            "manifests": [m.to_dict() for m in session.manifests],
            "spans": session.tracer.records(),
        }
    finally:
        obs_mod.disable()
    return {"result": result, "obs": dump, "local": False, "seconds": seconds}


def _run_local(payload: Cell, attempt: int = 0) -> Dict[str, object]:
    """In-process twin of :func:`_execute` (serial and degraded modes).

    Runs under the parent's own cache/obs state, so no dump/merge is
    needed; ``local: True`` tells :func:`run_cells` that manifests and
    metrics were already recorded in-process.  The ``worker_crash``
    fault site raises here instead of killing the process.
    """
    import time

    payload = dict(payload, fault_attempt=attempt)
    _fire_cell_faults(payload)
    start = time.perf_counter()
    with _cell_span(get_session(), payload):
        result = _run_task(payload)
    return {
        "result": result,
        "obs": None,
        "local": True,
        "seconds": time.perf_counter() - start,
    }


def _merge_obs(session, dump: Dict[str, object]) -> None:
    """Fold one worker's observability dump into the parent session."""
    store = cache.get_cache()
    if store is not None:
        hits, misses = dump["cache"]
        store.hits += hits
        store.misses += misses
    session.registry.merge_typed(dump["metrics"])
    for event in dump["events"]:
        fields = dict(event)
        fields.pop("seq", None)
        category = fields.pop("category")
        severity = fields.pop("severity")
        session.events.emit(category, severity, **fields)
    for row in dump["epochs"]:
        session.sampler.sample(**row)
    for manifest in dump["manifests"]:
        session.manifests.append(RunManifest.from_dict(manifest))
    spans = dump.get("spans")
    if spans:
        session.tracer.merge(spans)


def _log_manifests(result) -> None:
    """Replicate a parallel result's manifest into this process's log."""
    manifest = getattr(result, "manifest", None)
    if manifest is not None:
        RUN_LOG.append(manifest)


# -- the front door ----------------------------------------------------------


def run_cells(
    cells: Sequence[Cell],
    n_jobs: Optional[int] = None,
    cache_dir=None,
    retries: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> List[object]:
    """Execute ``cells``, resiliently, returning results in input order.

    ``n_jobs=None`` uses :func:`default_jobs` (``REPRO_JOBS``, else
    cores - 1); ``n_jobs=1`` runs serially in-process, which is also the
    fallback when any cell cannot cross a process boundary (warned
    loudly -- see below).  ``cache_dir`` configures the process-wide
    disk cache for this and all subsequent lookups (workers receive it
    explicitly).

    ``retries`` / ``cell_timeout`` override the ambient
    ``REPRO_RETRIES`` / ``REPRO_CELL_TIMEOUT`` retry policy
    (:class:`repro.resilience.RetryPolicy`).  When a disk cache is
    configured, cells whose results it already holds are served from it
    before dispatch (``sweep.summary`` counts them as ``resumed``), so
    re-running an interrupted grid runs only its missing cells.
    SIGINT/SIGTERM interrupt gracefully: finished cells stay cached, the
    active obs session is flushed (when it has an output directory), and
    :class:`repro.resilience.SweepInterrupted` -- a
    ``KeyboardInterrupt`` -- propagates.
    """
    if cache_dir is not None:
        cache.configure(cache_dir)
    n_jobs = default_jobs() if n_jobs is None else max(1, int(n_jobs))
    policy = resilience.RetryPolicy.from_env(
        retries=retries, cell_timeout=cell_timeout
    )
    session = get_session()
    emit = session.events.emit if session is not None else None
    wall_start = time.perf_counter()
    tallies = {"retries": 0, "timeouts": 0}
    if emit is not None:
        # Count retry/timeout events on the way through so the closing
        # sweep.summary can report them even if the bounded event ring
        # has since evicted the individual records.
        inner_emit = emit

        def emit(category: str, severity: str = "info", **fields) -> None:
            if category == "resilience.retry":
                tallies["retries"] += 1
            elif category == "resilience.cell_timeout":
                tallies["timeouts"] += 1
            inner_emit(category, severity, **fields)

    if n_jobs > 1 and not all(_parallel_safe(cell) for cell in cells):
        unsafe = sum(1 for cell in cells if not _parallel_safe(cell))
        print(
            f"warning: {unsafe} of {len(cells)} sweep cell(s) carry prefetcher "
            "instances or factory callables that cannot cross a process "
            "boundary; running the whole grid serially in-process "
            "(pass names or TriageConfigs to parallelise)",
            file=sys.stderr,
        )
        if emit is not None:
            emit(
                "resilience.serial_fallback",
                "warn",
                reason="unpicklable_spec",
                unsafe_cells=unsafe,
                total_cells=len(cells),
            )
        n_jobs = 1

    store = cache.get_cache()
    cache_hits_before = store.hits if store is not None else 0
    cache_misses_before = store.misses if store is not None else 0
    n = len(cells)
    results: List[object] = [None] * n
    prefilled = [False] * n
    for i, cell in enumerate(cells if store is not None else ()):
        key = cell_result_key(cell)
        # Probe before reading, so a cold grid counts no lookups here.
        if key is None or not store.result_path(key).exists():
            continue
        hit = store.get_result(key)
        if hit is None:
            continue  # corrupt entry: the cell re-runs and rewrites it
        results[i] = hit
        prefilled[i] = True
        log_cached_manifest(hit)

    completed = [0]

    def emit_summary(status: str, failed: int = 0) -> None:
        """One closing ``sweep.summary`` event: the grid's economics."""
        if emit is None:
            return
        from repro.obs import slo as slo_mod

        emit(
            "sweep.summary",
            "info",
            status=status,
            cells_total=n,
            executed=completed[0],
            resumed=sum(prefilled),
            retries=tallies["retries"],
            timeouts=tallies["timeouts"],
            failed=failed,
            slo=slo_mod.evaluate_counts(
                slo_mod.sweep_cell_objective(), total=n, bad=failed
            ),
            cache_hits=(store.hits - cache_hits_before) if store is not None else 0,
            cache_misses=(
                store.misses - cache_misses_before if store is not None else 0
            ),
            wall_s=time.perf_counter() - wall_start,
        )

    todo = [i for i in range(n) if not prefilled[i]]
    if not todo:
        emit_summary("ok")
        return results

    plan = faults.get_plan()
    tokens = [cell_identity(cells[i]) or f"cell:{i}" for i in todo]
    tracing = session is not None and session.tracer.enabled
    if tracing:
        from repro.obs.tracing import Tracer

        # Per-cell wire contexts, derived purely from the cell identity
        # token: the executing side (worker or in-process) reconstructs
        # the same root span ids, so serial == parallel trace trees.
        wires = [Tracer.to_wire(token, "sweep.cell") for token in tokens]
    payloads = [
        dict(
            cells[i],
            cache_dir=str(store.root) if store is not None else None,
            obs=session is not None,
            faults=plan.to_spec() if plan is not None else None,
            faults_seed=plan.seed if plan is not None else 0,
            trace=wires[position] if tracing else None,
        )
        for position, i in enumerate(todo)
    ]

    def on_complete(position: int, output: object) -> None:
        completed[0] += 1

    try:
        outputs = resilience.run_resilient(
            payloads,
            _execute,
            _run_local,
            n_jobs=min(n_jobs, len(todo)) if n_jobs > 1 else 1,
            policy=policy,
            emit=emit,
            on_complete=on_complete,
            fault_tokens=tokens,
        )
    except resilience.SweepInterrupted:
        # Finished cells are already cached; flush the obs session so
        # partial metrics/events/manifests survive the exit.
        emit_summary("interrupted")
        if session is not None and session.out_dir is not None:
            try:
                session.flush()
            except Exception:
                pass
        raise
    except resilience.CellFailed:
        emit_summary("failed", failed=1)
        raise

    for position, index in enumerate(todo):
        output = outputs[position]
        result = output["result"]
        results[index] = result
        if output.get("local"):
            continue  # in-process runs already recorded obs + manifests
        _log_manifests(result)
        if session is not None and output["obs"] is not None:
            _merge_obs(session, output["obs"])
    if emit is not None:
        # Per-cell latencies (worker wall time, excluding queueing and
        # transport), emitted *after* the worker-event merges above so a
        # large grid's merged event flood cannot evict them from the
        # ring before a reader (bench/suite.py's worker utilization)
        # collects them.
        for position, index in enumerate(todo):
            seconds = outputs[position].get("seconds")
            if seconds is None:
                continue
            emit(
                "parallel.cell_done",
                "debug",
                cell=index,
                task=str(cells[index].get("task")),
                seconds=seconds,
            )
    emit_summary("ok")
    return results
