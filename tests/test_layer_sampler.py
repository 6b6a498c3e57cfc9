"""Tests for the host-time layer sampler (repro.obs.layers)."""

import signal
import threading
import time
import types

import pytest

from repro import obs
from repro.obs.layers import LAYERS, LayerSampler, layer_of, summary
from repro.obs.manifest import drain_run_log
from repro.obs.report import layers_table


@pytest.fixture(autouse=True)
def _no_global_session():
    obs.disable()
    yield
    obs.disable()


def _module_function(module_name, source, name):
    """``name`` from ``source`` compiled as if it lived in ``module_name``."""
    module = types.ModuleType(module_name)
    exec(compile(source, f"<{module_name}>", "exec"), module.__dict__)
    return getattr(module, name)


BUSY = '''
import time

def spin(seconds):
    end = time.process_time() + seconds
    n = 0
    while time.process_time() < end:
        n += 1
    return n
'''


def test_cpu_bound_function_in_a_known_module_gets_the_samples():
    spin = _module_function("repro.replacement._spin", BUSY, "spin")
    sampler = LayerSampler()
    assert sampler.start()
    try:
        spin(0.3)
    finally:
        sampler.stop()
    total = sum(sampler.counts.values())
    assert total >= 30  # one sample per 5 ms of CPU time
    assert sampler.counts.get("replacement", 0) >= 0.9 * total
    block = sampler.to_dict()
    assert block["samples"] == total
    assert list(block["layers"])[0] == "replacement"


def test_previous_handler_and_timer_are_restored():
    def handler(signum, frame):
        pass

    original = signal.signal(signal.SIGPROF, handler)
    # A long, one-shot previous timer that cannot fire during the test.
    signal.setitimer(signal.ITIMER_PROF, 100.0, 0.0)
    try:
        sampler = LayerSampler()
        assert sampler.start()
        assert signal.getsignal(signal.SIGPROF) == sampler._sample
        assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(0.005)
        assert not sampler.start()  # already running: no second install
        sampler.stop()
        assert signal.getsignal(signal.SIGPROF) is handler
        delay, interval = signal.getitimer(signal.ITIMER_PROF)
        assert 90.0 < delay <= 100.1 and interval == 0.0  # kernel ticks
        sampler.stop()  # idempotent
        assert signal.getsignal(signal.SIGPROF) is handler
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, original)


def test_off_the_main_thread_it_records_nothing_and_says_so():
    sampler = LayerSampler()
    handler = signal.getsignal(signal.SIGPROF)
    started = []
    worker = threading.Thread(target=lambda: started.append(sampler.start()))
    worker.start()
    worker.join()
    assert started == [False]
    assert not sampler.running and sampler.counts == {}
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    block = sampler.to_dict()
    assert block["samples"] == 0
    assert "main thread" in block["note"]
    table = layers_table(block)
    assert "(no samples)" in table and "main thread" in table


def test_layer_of_follows_the_ordered_prefix_table():
    assert layer_of("repro.core.triage") == "core.triage"
    assert layer_of("repro.core.metadata_store") == "core.metadata_store"
    assert layer_of("repro.sim.timing") == "sim.timing"
    assert layer_of("repro.sim.parallel") == "sim.parallel"
    assert layer_of("repro.sim.front_end") == "sim.driver"
    assert layer_of("repro.sim.queued.engine") == "sim.driver"
    assert layer_of("repro.memory.hierarchy") == "memory"
    assert layer_of("repro.obs.registry") == "obs"
    assert layer_of("repro.analysis.reuse") == "other"
    assert layer_of("repro.core.triage_extra") == "other"  # whole names only
    assert layer_of("reproduce") is None
    assert layer_of("numpy") is None and layer_of(None) is None
    # Every layer the benchmark names has a row in the table.
    named = {layer for _, layer in LAYERS}
    assert {
        "workloads", "memory", "prefetchers", "core.triage",
        "core.metadata_store", "core.training_unit", "core.partition",
        "replacement", "sim.driver", "sim.timing", "experiments", "cache",
        "sim.parallel", "obs",
    } == named


def test_summary_orders_by_samples_and_scales_seconds():
    block = summary({"memory": 30, "workloads": 10, "cache": 10}, 2.0)
    assert list(block["layers"]) == ["memory", "cache", "workloads"]
    assert block["layers"]["memory"] == {
        "samples": 30, "share": 0.6, "seconds": 1.2,
    }
    assert block["samples"] == 50 and "note" not in block


def test_an_out_dir_session_samples_until_disabled(tmp_path):
    spin = _module_function("repro.workloads._spin", BUSY, "spin")
    handler = signal.getsignal(signal.SIGPROF)
    session = obs.enable(out_dir=tmp_path)
    assert session.layers.running
    spin(0.1)
    obs.disable()
    assert not session.layers.running
    assert signal.getsignal(signal.SIGPROF) is handler
    assert session.layers.counts.get("workloads", 0) > 0
    # A session without an out_dir does not sample.
    assert not obs.enable().layers.running


def test_sweep_workers_send_their_samples_home(monkeypatch):
    from repro.sim import parallel
    from repro.sim.sweep import sweep

    merged = []
    merge = parallel._merge_obs

    def recording_merge(session, dump):
        merged.append(sum(dump["layers"].values()))
        merge(session, dump)

    monkeypatch.setattr(parallel, "_merge_obs", recording_merge)
    session = obs.enable()
    session.layers.start()
    try:
        sweep(["mcf", "omnetpp"], {"stride": "stride"}, n_accesses=20_000,
              n_jobs=2)
    finally:
        obs.disable()
    # Both cells ran in workers, which sampled their own CPU time: fork
    # does not carry the parent's interval timer over.
    assert len(merged) == 4 and all(n > 0 for n in merged)  # + baselines
    assert sum(session.layers.counts.values()) >= sum(merged)
    drain_run_log()


def test_worker_dump_carries_counts_and_restores_the_handler(monkeypatch):
    from repro import faults
    from repro.sim import parallel

    monkeypatch.setattr(faults, "_IN_WORKER", False)  # _execute marks it
    handler = signal.getsignal(signal.SIGPROF)
    payload = dict(
        parallel.run_single_cell(bench="mcf", prefetcher="stride", n=20_000),
        obs=True, layers=True,
    )
    start = time.process_time()
    output = parallel._execute(payload)
    cpu = time.process_time() - start
    assert signal.getsignal(signal.SIGPROF) is handler
    counts = output["obs"]["layers"]
    assert sum(counts.values()) >= int(cpu / 0.005) // 2
    drain_run_log()


def test_the_table_orders_rows_by_samples_whatever_the_key_order():
    import json

    block = summary({"memory": 3, "cache": 9, "workloads": 5}, 1.0)
    resorted = json.loads(json.dumps(block, sort_keys=True))
    assert list(resorted["layers"]) == ["cache", "memory", "workloads"]
    table = layers_table(resorted)
    assert table == layers_table(block)
    assert [line.split()[0] for line in table.splitlines()[3:6]] == [
        "cache", "workloads", "memory",
    ]
