"""Resilient sweep execution: every recovery path, chaos-tested.

The contract of :mod:`repro.resilience` + :mod:`repro.sim.parallel` is
that faults change *wall-clock time only, never results*:

* with injected worker crashes and cache corruption (the CI chaos
  rates), a sweep completes bit-identical to a fault-free serial run
  and the obs session shows the retry/respawn events;
* per-cell timeouts abandon stuck cells and re-run them;
* ``BrokenProcessPool`` respawns re-run only unfinished cells and
  degrade to serial after repeated deaths;
* SIGTERM mid-grid keeps finished cells in the result cache, and a
  plain rerun serves them without dispatch (no ``simulate()`` call for
  a cached cell, identical tables);
* the trace memo is a bounded LRU whose evictions never change results;
* invalid ``REPRO_JOBS``-style env values and unpicklable-spec serial
  fallbacks warn loudly instead of silently degrading.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import cache, config, faults, obs, resilience
from repro.core.triage import TriageConfig
from repro.experiments import common
from repro.sim import parallel
from repro.sim.sweep import sweep

KB = 1024
N_ACCESSES = 3_000

TRIAGE = TriageConfig(
    metadata_capacity=(1024 * KB) // 4,
    capacities=(0, (512 * KB) // 4, (1024 * KB) // 4),
)
GRID = {"bo": "bo", "triage": TRIAGE}
BENCHES = ["mcf", "omnetpp"]


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in (
        "REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_FAULTS", "REPRO_FAULTS_SEED",
        "REPRO_RETRIES", "REPRO_CELL_TIMEOUT", "REPRO_FAULT_SLEEP",
    ):
        monkeypatch.delenv(var, raising=False)
    faults.reset()
    cache.configure(None)
    common.clear_caches()
    obs.disable()
    yield
    faults.reset()
    cache.configure(None)
    common.clear_caches()
    obs.disable()


def _records_equal(a, b) -> None:
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.workload == right.workload
        assert left.config == right.config
        assert left.result == right.result, (left.workload, left.config)
        assert left.baseline == right.baseline, left.workload


def _clean_serial():
    records = sweep(BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=1)
    common.clear_caches()
    cache.configure(None)
    return records


# -- engine unit tests (toy workers, no simulation) --------------------------


def _toy_worker(payload):
    value = payload["value"]
    if payload.get("crash_until", -1) > payload.get("fault_attempt", 0):
        os._exit(1)
    if payload.get("raise_until", -1) > payload.get("fault_attempt", 0):
        raise RuntimeError(f"boom {value}")
    return value * 2


def _toy_local(payload, attempt):
    return payload["value"] * 2


class TestEngine:
    def test_input_order_regardless_of_completion_order(self):
        payloads = [{"value": v} for v in range(8)]
        out = resilience.run_resilient(
            payloads, _toy_worker, _toy_local, n_jobs=4
        )
        assert out == [v * 2 for v in range(8)]

    def test_worker_exception_retries_then_succeeds(self):
        events = []
        payloads = [{"value": 1}, {"value": 2, "raise_until": 2}, {"value": 3}]
        out = resilience.run_resilient(
            payloads, _toy_worker, _toy_local, n_jobs=2,
            policy=resilience.RetryPolicy(retries=3, backoff_base_s=0.0),
            emit=lambda c, s="info", **f: events.append((c, f)),
        )
        assert out == [2, 4, 6]
        retries = [f for c, f in events if c == "resilience.retry"]
        assert len(retries) == 2 and all(r["cell"] == 1 for r in retries)

    def test_retry_budget_exhaustion_raises_cell_failed(self):
        payloads = [{"value": 1}, {"value": 2, "raise_until": 99}]
        with pytest.raises(resilience.CellFailed) as err:
            resilience.run_resilient(
                payloads, _toy_worker, _toy_local, n_jobs=2,
                policy=resilience.RetryPolicy(retries=1, backoff_base_s=0.0),
            )
        assert err.value.index == 1

    def test_broken_pool_respawns_and_recovers(self):
        events = []
        payloads = [{"value": v} for v in range(5)]
        payloads[3]["crash_until"] = 1  # hard-exits its worker once
        out = resilience.run_resilient(
            payloads, _toy_worker, _toy_local, n_jobs=2,
            policy=resilience.RetryPolicy(retries=2, backoff_base_s=0.0),
            emit=lambda c, s="info", **f: events.append(c),
        )
        assert out == [v * 2 for v in range(5)]
        assert "resilience.pool_respawn" in events

    def test_repeated_pool_deaths_degrade_to_serial(self, capsys):
        events = []
        payloads = [{"value": v} for v in range(4)]
        payloads[0]["crash_until"] = 99  # kills every pool it ever meets
        out = resilience.run_resilient(
            payloads, _toy_worker, _toy_local, n_jobs=2,
            policy=resilience.RetryPolicy(
                retries=2, backoff_base_s=0.0, max_pool_failures=2
            ),
            emit=lambda c, s="info", **f: events.append(c),
        )
        assert out == [v * 2 for v in range(4)]  # _toy_local finished them
        assert "resilience.serial_fallback" in events
        assert "pool died" in capsys.readouterr().err

    def test_discarded_pools_leave_no_live_workers(self):
        """Abandoning a broken pool must kill its surviving workers.

        A worker that hard-exits mid-task can die holding the shared
        call-queue lock, wedging its siblings forever; lingering zombies
        then hang interpreter exit on the executor's atexit join.  After
        the engine returns, no pool children may remain alive."""
        import multiprocessing

        payloads = [{"value": v} for v in range(6)]
        payloads[1]["crash_until"] = 99  # breaks pools until serial fallback
        out = resilience.run_resilient(
            payloads, _toy_worker, _toy_local, n_jobs=3,
            policy=resilience.RetryPolicy(
                retries=2, backoff_base_s=0.0, max_pool_failures=2
            ),
        )
        assert out == [v * 2 for v in range(6)]
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_backoff_schedule(self):
        policy = resilience.RetryPolicy(retries=5, backoff_base_s=0.1, backoff_max_s=0.3)
        assert [policy.backoff_s(k) for k in range(5)] == [0.0, 0.1, 0.2, 0.3, 0.3]
        assert resilience.RetryPolicy(backoff_base_s=0.0).backoff_s(3) == 0.0

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        policy = resilience.RetryPolicy.from_env()
        assert policy.retries == 7
        assert policy.cell_timeout_s == 2.5
        assert resilience.RetryPolicy.from_env(retries=1, cell_timeout=9.0) == (
            resilience.RetryPolicy(retries=1, cell_timeout_s=9.0)
        )


# -- chaos: the acceptance-criteria sweep ------------------------------------


class TestChaos:
    def test_crashes_and_corruption_leave_results_bit_identical(self, tmp_path):
        """Worker crashes at 20% + cache corruption at 10% change nothing."""
        clean = _clean_serial()

        faults.configure("worker_crash:0.2,cache_corrupt:0.1", seed=7)
        session = obs.enable(out_dir=tmp_path / "obs")
        chaotic = sweep(
            BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=4,
            cache_dir=tmp_path / "cache", retries=4,
        )
        _records_equal(clean, chaotic)

        categories = Counter(e.category for e in session.events.events())
        recoveries = (
            categories["resilience.retry"]
            + categories["resilience.pool_respawn"]
            + categories["resilience.serial_fallback"]
        )
        assert recoveries >= 1, categories

        # The rendered obs report surfaces the recovery events.
        from repro.obs.report import render_report

        session.flush()
        report = render_report(tmp_path / "obs")
        assert "resilience." in report

    def test_chaotic_warm_rerun_still_identical(self, tmp_path):
        """Corrupted cache entries read as misses, recompute, stay right."""
        clean = _clean_serial()
        faults.configure("cache_corrupt:0.3,trace_io:0.2", seed=3)
        first = sweep(
            BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=1,
            cache_dir=tmp_path,
        )
        common.clear_caches()
        second = sweep(
            BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=1,
            cache_dir=tmp_path,
        )
        _records_equal(clean, first)
        _records_equal(clean, second)

    def test_injected_trace_io_errors_read_as_misses(self, tmp_path):
        reference = sweep(["mcf"], {"sms": "sms"}, n_accesses=N_ACCESSES,
                          n_jobs=1)
        common.clear_caches()
        cache.configure(None)
        # Prime the trace tier only (different prefetcher, same trace),
        # then make every trace read fail: the runner must fall through
        # to regeneration, never crash, and results must not change.
        sweep(["mcf"], {"bo": "bo"}, n_accesses=N_ACCESSES, n_jobs=1,
              cache_dir=tmp_path)
        common.clear_caches()
        faults.configure("trace_io:1.0:99", seed=1)
        records = sweep(["mcf"], {"sms": "sms"}, n_accesses=N_ACCESSES,
                        n_jobs=1, cache_dir=tmp_path)
        _records_equal(reference, records)
        assert cache.get_cache().errors >= 1

    def test_cell_timeout_abandons_and_retries(self, tmp_path, monkeypatch):
        """A stuck cell is abandoned at its deadline and re-run."""
        clean = _clean_serial()
        monkeypatch.setenv("REPRO_FAULT_SLEEP", "2.5")
        faults.configure("cell_timeout:1.0:1", seed=1)  # first attempts stall
        session = obs.enable()
        records = sweep(
            BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=4,
            retries=3, cell_timeout=1.2,
        )
        _records_equal(clean, records)
        timeouts = session.events.events("resilience.cell_timeout")
        assert len(timeouts) == len(BENCHES) * (len(GRID) + 1)

    def test_pickle_faults_retry_on_the_parent_side(self):
        clean = _clean_serial()
        faults.configure("pickle:1.0:1", seed=1)
        session = obs.enable()
        records = sweep(
            BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=4, retries=2
        )
        _records_equal(clean, records)
        submits = [
            e for e in session.events.events("resilience.retry")
            if e.fields.get("kind") == "submit"
        ]
        assert len(submits) == len(BENCHES) * (len(GRID) + 1)

    def test_exhausted_retries_surface_cell_failed(self):
        faults.configure("worker_crash:1.0:99", seed=1)
        cells = [
            parallel.sweep_cell(
                "mcf", "bo", "bo", N_ACCESSES, 1, 4,
                common.MachineConfig.scaled(4), 1000,
            )
        ]
        with pytest.raises(resilience.CellFailed) as err:
            parallel.run_cells(cells, n_jobs=1, retries=1)
        assert isinstance(err.value.cause, faults.InjectedFault)


# -- kill + resume -----------------------------------------------------------

_CHILD_SCRIPT = """
import sys
from repro.core.triage import TriageConfig
from repro.sim.sweep import sweep

KB = 1024
TRIAGE = TriageConfig(
    metadata_capacity=(1024 * KB) // 4,
    capacities=(0, (512 * KB) // 4, (1024 * KB) // 4),
)
try:
    sweep(
        ["mcf", "omnetpp"],
        {"bo": "bo", "triage": TRIAGE},
        n_accesses=3000,
        n_jobs=2,
        cache_dir=sys.argv[1],
    )
except KeyboardInterrupt:
    sys.exit(130)
sys.exit(0)
"""


class TestKillAndResume:
    def test_sigterm_then_resume_skips_journaled_cells(self, tmp_path, monkeypatch):
        """SIGTERM, then a plain rerun serves the finished cells from the
        cache without dispatching them."""
        clean = _clean_serial()
        cache_dir = tmp_path / "cache"

        # Slow every cell down (fault-injected stall) so the grid is
        # reliably mid-flight when the signal lands.
        env = dict(
            os.environ,
            PYTHONPATH="src",
            REPRO_FAULTS="cell_timeout:1.0:99",
            REPRO_FAULT_SLEEP="0.4",
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(cache_dir)],
            env=env, cwd=str(Path(__file__).resolve().parent.parent),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

        def cached_results():
            return len(list(cache_dir.glob("v*/results/**/*.json")))

        deadline = time.monotonic() + 60
        while cached_results() < 2 and time.monotonic() < deadline:
            if child.poll() is not None:
                break
            time.sleep(0.05)
        cached_at_kill = cached_results()
        assert cached_at_kill >= 2, "grid finished/stalled before the kill"
        child.send_signal(signal.SIGTERM)
        _out, err = child.communicate(timeout=60)
        assert child.returncode == 130, err.decode()

        # Rerun: cached cells are served before dispatch, and no cached
        # cell is ever simulated again.
        calls = []
        real = parallel.simulate

        def counting_simulate(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "simulate", counting_simulate)
        session = obs.enable()
        rerun = sweep(
            BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=1, cache_dir=cache_dir,
        )
        _records_equal(clean, rerun)
        (summary,) = [e.fields for e in session.events.events("sweep.summary")]
        assert summary["resumed"] >= cached_at_kill
        total_cells = len(BENCHES) * (len(GRID) + 1)
        assert len(calls) <= total_cells - summary["resumed"]

    def test_warm_rerun_never_dispatches(self, tmp_path, monkeypatch):
        clean = _clean_serial()
        sweep(BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=2,
              cache_dir=tmp_path)
        common.clear_caches()

        def no_dispatch(*args, **kwargs):
            raise AssertionError("a warm rerun dispatched cells")

        monkeypatch.setattr(resilience, "run_resilient", no_dispatch)
        session = obs.enable()
        warm = sweep(BENCHES, GRID, n_accesses=N_ACCESSES, n_jobs=2,
                     cache_dir=tmp_path)
        (summary,) = [e.fields for e in session.events.events("sweep.summary")]
        total_cells = len(BENCHES) * (len(GRID) + 1)
        assert summary["executed"] == 0
        assert summary["resumed"] == summary["cells_total"] == total_cells
        _records_equal(clean, warm)


# -- satellites: warnings, LRU memo -----------------------------------------


class TestLoudDegradation:
    def test_unpicklable_specs_warn_and_emit_event(self, capsys):
        from repro.prefetchers.best_offset import BestOffsetPrefetcher

        session = obs.enable()
        grid = {"bo_factory": lambda: BestOffsetPrefetcher()}
        sweep(["mcf"], grid, n_accesses=N_ACCESSES, n_jobs=4)
        err = capsys.readouterr().err
        assert "cannot cross a process boundary" in err
        fallbacks = session.events.events("resilience.serial_fallback")
        assert len(fallbacks) == 1
        assert fallbacks[0].fields["reason"] == "unpicklable_spec"

    @pytest.mark.parametrize("bad", ["0", "-3", "banana"])
    def test_invalid_repro_jobs_warns_and_falls_back(
        self, bad, capsys, monkeypatch
    ):
        monkeypatch.setattr(config, "_WARNED", set())
        monkeypatch.setenv("REPRO_JOBS", bad)
        assert parallel.jobs_from_env(default=3) == 3
        assert parallel.default_jobs() >= 1
        err = capsys.readouterr().err
        assert err.count("ignoring invalid REPRO_JOBS") == 1  # warn once

    def test_invalid_env_emits_obs_event(self, monkeypatch):
        monkeypatch.setattr(config, "_WARNED", set())
        monkeypatch.setenv("REPRO_RETRIES", "never")
        session = obs.enable()
        assert resilience.RetryPolicy.from_env().retries == (
            resilience.DEFAULT_RETRIES
        )
        events = session.events.events("config.invalid_env")
        assert len(events) == 1
        assert events[0].fields["variable"] == "REPRO_RETRIES"

    def test_valid_repro_jobs_still_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert parallel.jobs_from_env(default=1) == 5
        assert parallel.default_jobs() == 5


class TestTraceMemoLru:
    def test_lru_evicts_least_recent(self):
        memo = parallel._LruMemo(maxsize=2)
        memo.store("a", 1)
        memo.store("b", 2)
        assert memo.lookup("a") == 1  # refreshes a
        memo.store("c", 3)  # evicts b, the least recent
        assert set(memo) == {"a", "c"}
        assert memo.lookup("b") is None

    def test_eviction_keeps_sweep_results_correct(self, monkeypatch):
        benches = ["mcf", "omnetpp", "libquantum"]
        reference = sweep(benches, {"bo": "bo"}, n_accesses=N_ACCESSES, n_jobs=1)
        common.clear_caches()
        monkeypatch.setattr(parallel, "_TRACE_MEMO", parallel._LruMemo(maxsize=1))
        squeezed = sweep(benches, {"bo": "bo"}, n_accesses=N_ACCESSES, n_jobs=1)
        _records_equal(reference, squeezed)
        assert len(parallel._TRACE_MEMO) <= 1

    def test_memo_is_bounded_across_benchmarks(self):
        parallel._TRACE_MEMO.clear()
        benches = ["mcf", "omnetpp", "libquantum", "soplex_k"]
        bound = parallel._TRACE_MEMO.maxsize
        sweep(benches, {"bo": "bo"}, n_accesses=N_ACCESSES, n_jobs=1)
        assert len(parallel._TRACE_MEMO) <= bound
