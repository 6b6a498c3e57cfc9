"""The persistent result/trace cache: keys, round trips, corruption, CLI.

Covers the contracts :mod:`repro.cache` promises:

* key stability -- the same configuration always hashes to the same
  key, and perturbing *any* field of it produces a different key;
* round-trip fidelity -- a cached result/trace compares equal to the
  one that was stored (the warm-cache path must be bit-identical);
* corruption safety -- truncated or garbage entries read as misses
  (recompute), never exceptions;
* the ``python -m repro cache stats|clear`` CLI paths.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import cache
from repro.cache.keys import KEY_SCHEMA_VERSION
from repro.core.triage import TriageConfig
from repro.experiments.common import run_single_cache_key
from repro.prefetchers.best_offset import BestOffsetPrefetcher
from repro.sim.config import MachineConfig
from repro.sim.single_core import simulate
from repro.sim.stats import MultiCoreResult
from repro.workloads import spec

KB = 1024


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """Keep each test's cache explicit regardless of the environment."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache.configure(None)
    yield
    cache.configure(None)


def _machine() -> MachineConfig:
    return MachineConfig.scaled(4)


def _base_key(**overrides) -> str:
    params = dict(
        namespace="sweep",
        workload={
            "suite": "spec",
            "bench": "mcf",
            "n_accesses": 4000,
            "seed": 1,
            "scale": 4,
        },
        prefetcher=cache.spec_fingerprint("bo"),
        machine=_machine(),
        degree=1,
        warmup=1333,
        charge_metadata_to_llc=True,
    )
    params.update(overrides)
    return cache.run_key(**params)


def _small_result(prefetcher="bo", seed=1):
    trace = spec.make_trace("mcf", n_accesses=3000, seed=seed, scale=4)
    return simulate(trace, prefetcher, machine=_machine(), warmup_accesses=1000)


class TestKeys:
    def test_same_config_same_key(self):
        assert _base_key() == _base_key()

    def test_every_field_perturbation_changes_the_key(self):
        base = _base_key()
        perturbed = [
            _base_key(namespace="experiments.run_single"),
            _base_key(
                workload={
                    "suite": "spec",
                    "bench": "omnetpp",
                    "n_accesses": 4000,
                    "seed": 1,
                    "scale": 4,
                }
            ),
            _base_key(
                workload={
                    "suite": "spec",
                    "bench": "mcf",
                    "n_accesses": 4001,
                    "seed": 1,
                    "scale": 4,
                }
            ),
            _base_key(
                workload={
                    "suite": "spec",
                    "bench": "mcf",
                    "n_accesses": 4000,
                    "seed": 2,
                    "scale": 4,
                }
            ),
            _base_key(prefetcher=cache.spec_fingerprint("sms")),
            _base_key(machine=MachineConfig.scaled(8)),
            _base_key(machine=dataclasses.replace(_machine(), llc_ways=8)),
            _base_key(degree=2),
            _base_key(warmup=0),
            _base_key(charge_metadata_to_llc=False),
        ]
        assert len(set(perturbed) | {base}) == len(perturbed) + 1

    def test_triage_config_fingerprint_is_field_sensitive(self):
        a = TriageConfig(metadata_capacity=256 * KB)
        b = TriageConfig(metadata_capacity=128 * KB)
        assert cache.spec_fingerprint(a) == cache.spec_fingerprint(
            TriageConfig(metadata_capacity=256 * KB)
        )
        assert cache.spec_fingerprint(a) != cache.spec_fingerprint(b)

    def test_uncacheable_specs_raise(self):
        with pytest.raises(cache.UncacheableSpec):
            cache.spec_fingerprint(BestOffsetPrefetcher())
        with pytest.raises(cache.UncacheableSpec):
            cache.spec_fingerprint(lambda: None)

    def test_unknown_prefetcher_name_fails_loudly(self):
        """A typo'd name must raise, not silently hash into its own
        never-hitting cache namespace."""
        for bogus in ("traige_1mb", "triangle", "bo+nope", "bo "):
            if bogus == "bo ":
                # Whitespace normalizes to a registered name: allowed.
                assert cache.spec_fingerprint(bogus)["name"] == "bo"
                continue
            with pytest.raises(cache.UncacheableSpec):
                cache.spec_fingerprint(bogus)

    def test_registered_names_from_both_registries_fingerprint(self):
        # Names that once lived in only one of two registries (the
        # factory's "stride", the experiments' "triage_noconf" and sweep
        # pattern) or in both ("triangel", hybrids) all come from the one
        # table now, and each must still fingerprint as itself.
        for name in (
            "stride",
            "triage_noconf",
            "triage@65536:lru:10",
            "triangel",
            "triangel_nosample",
            "bo+triangel_dynamic",
        ):
            assert cache.spec_fingerprint(name) == {
                "kind": "name",
                "name": name,
            }

    def test_triangel_config_fingerprint_distinct_from_triage(self):
        """Same field values, different class: canonicalize folds the
        dataclass name in, so the keys can never collide."""
        from repro.prefetchers.triangel import TriangelConfig

        triage = TriageConfig(metadata_capacity=256 * KB)
        triangel = TriangelConfig(
            metadata_capacity=256 * KB,
            sampling=False,
            lookahead=1,
            replacement="hawkeye",
        )
        a = cache.spec_fingerprint(triage)
        b = cache.spec_fingerprint(triangel)
        assert a != b
        assert a["config"]["__dataclass__"] == "TriageConfig"
        assert b["config"]["__dataclass__"] == "TriangelConfig"
        assert cache.spec_fingerprint(triangel) == cache.spec_fingerprint(
            TriangelConfig(
                metadata_capacity=256 * KB,
                sampling=False,
                lookahead=1,
                replacement="hawkeye",
            )
        )

    def test_trace_key_stability(self):
        same = cache.trace_key("spec", "mcf", 4000, 1, 4)
        assert same == cache.trace_key("spec", "mcf", 4000, 1, 4)
        assert same != cache.trace_key("spec", "mcf", 4000, 2, 4)
        assert same != cache.trace_key("cloudsuite", "mcf", 4000, 1, 4)

    @pytest.mark.parametrize("args, digest", [
        (("mcf", "triage_1mb", 4000, 1),
         "3c76250b9e50243fd6e4748fd3644eecb9b3d5ab46eb3b3fd330c386e330a521"),
        (("libquantum", "bo", 4000, 2),
         "dafb20ac8d7bb350f8f4d0e24581d7ab07ce4727cef67efb07fc0e4c19edd85a"),
    ])
    def test_run_single_key_is_pinned(self, args, digest):
        # Pinned across commits: a digest change orphans every warm cache
        # entry, so it must come with a KEY_SCHEMA_VERSION bump.
        bench, prefetcher, n, seed = args
        assert run_single_cache_key(bench, prefetcher, n=n, seed=seed) == digest


class TestRoundTrip:
    def test_single_core_result_round_trips_exactly(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        result = _small_result()
        key = _base_key()
        store.put_result(key, result)
        loaded = store.get_result(key)
        assert loaded == result  # dataclass equality: counters, traffic, stats
        assert loaded.counters == result.counters
        assert loaded.traffic == result.traffic
        # Manifest provenance is stamped on the entry and survives.
        assert loaded.manifest is not None
        assert loaded.manifest.to_dict() == result.manifest.to_dict()

    def test_multi_core_result_round_trips(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        cores = [_small_result(seed=1), _small_result(seed=2)]
        result = MultiCoreResult(
            workloads=["mcf", "mcf"],
            prefetcher="bo",
            per_core=cores,
            traffic={"demand": 123, "prefetch": 45},
        )
        store.put_result("k" * 64, result)
        loaded = store.get_result("k" * 64)
        assert isinstance(loaded, MultiCoreResult)
        assert loaded == result

    def test_trace_round_trips(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        trace = spec.make_trace("mcf", n_accesses=2000, seed=3, scale=4)
        key = cache.trace_key("spec", "mcf", 2000, 3, 4)
        store.put_trace(key, trace)
        loaded = store.get_trace(key)
        assert loaded.pcs == trace.pcs
        assert loaded.addrs == trace.addrs
        assert loaded.writes == trace.writes
        assert loaded.mlp == trace.mlp
        assert loaded.instr_per_access == trace.instr_per_access


class TestCorruption:
    def test_missing_entry_is_a_miss(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        assert store.get_result("0" * 64) is None
        assert store.misses == 1 and store.errors == 0

    def test_garbage_result_entry_is_a_miss_not_a_crash(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        key = _base_key()
        store.put_result(key, _small_result())
        store.result_path(key).write_text("{not json at all")
        assert store.get_result(key) is None
        assert store.errors == 1

    def test_truncated_result_entry_is_a_miss(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        key = _base_key()
        path = store.put_result(key, _small_result())
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.get_result(key) is None

    def test_key_mismatch_inside_entry_is_a_miss(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        key = _base_key()
        path = store.put_result(key, _small_result())
        envelope = json.loads(path.read_text())
        envelope["key"] = "f" * 64
        path.write_text(json.dumps(envelope))
        assert store.get_result(key) is None

    def test_truncated_trace_is_a_miss(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        trace = spec.make_trace("mcf", n_accesses=1000, seed=1, scale=4)
        key = cache.trace_key("spec", "mcf", 1000, 1, 4)
        path = store.put_trace(key, trace)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get_trace(key) is None
        assert store.errors == 1

    def test_recompute_overwrites_corrupt_entry(self, tmp_path):
        store = cache.ResultCache(tmp_path)
        key = _base_key()
        store.put_result(key, _small_result())
        store.result_path(key).write_text("garbage")
        assert store.get_result(key) is None
        fresh = _small_result()
        store.put_result(key, fresh)
        assert store.get_result(key) == fresh


class TestConfiguration:
    def test_environment_variable_enables_the_cache(self, tmp_path, monkeypatch):
        assert cache.get_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = cache.get_cache()
        assert store is not None and store.root == tmp_path
        # Same root -> same instance (counters persist across lookups).
        assert cache.get_cache() is store

    def test_configure_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        explicit = cache.configure(tmp_path / "explicit")
        assert cache.get_cache() is explicit

    def test_schema_version_dir_isolation(self, tmp_path):
        """Entries of another schema version are never addressed."""
        store = cache.ResultCache(tmp_path)
        stale = tmp_path / f"v{KEY_SCHEMA_VERSION + 1}" / "results" / "ab"
        stale.mkdir(parents=True)
        (stale / ("ab" * 32 + ".json")).write_text("{}")
        assert store.get_result("ab" * 32) is None
        assert store.stats()["stale_versions"] == [f"v{KEY_SCHEMA_VERSION + 1}"]
        assert store.clear() >= 1
        assert store.stats()["stale_versions"] == []


class TestCli:
    def test_cache_stats_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main

        store = cache.ResultCache(tmp_path)
        store.put_result(_base_key(), _small_result())

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "1 entries" in out

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out

    def test_cache_stats_on_missing_dir_is_ok(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_run_accepts_jobs_and_cache_dir_flags(self, tmp_path, monkeypatch):
        """--jobs/--cache-dir are parsed and exported for the harnesses."""
        import repro.__main__ as cli

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(
            cli, "_run_experiments", lambda selected, quick: None
        )
        assert (
            cli.main(
                [
                    "run",
                    "fig05",
                    "--quick",
                    "--jobs",
                    "2",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        import os

        assert os.environ["REPRO_JOBS"] == "2"
        assert cache.get_cache() is not None
        assert cache.get_cache().root == tmp_path


# --------------------------------------------------------------------------
# Concurrency: the atomic-rename write path must make simultaneous writers
# and racing readers safe without any locking.
# --------------------------------------------------------------------------

#: Child-process writer: computes the (deterministic) small result itself,
#: waits for a start gun so competing writers overlap, then hammers
#: ``put_result`` on one shared key.
_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from pathlib import Path

    from repro import cache
    from repro.sim.config import MachineConfig
    from repro.sim.single_core import simulate
    from repro.workloads import spec

    root, key, iters = sys.argv[1], sys.argv[2], int(sys.argv[3])
    store = cache.ResultCache(root)
    trace = spec.make_trace("mcf", n_accesses=1000, seed=1, scale=4)
    result = simulate(
        trace, "bo", machine=MachineConfig.scaled(4), warmup_accesses=333
    )
    gun = Path(root) / "go"
    deadline = time.monotonic() + 30.0
    while not gun.exists():
        if time.monotonic() > deadline:
            sys.exit(3)
        time.sleep(0.005)
    for _ in range(iters):
        store.put_result(key, result)
    """
)


def _tiny_result():
    """Same configuration as :data:`_WRITER_SCRIPT` builds in the child."""
    trace = spec.make_trace("mcf", n_accesses=1000, seed=1, scale=4)
    return simulate(trace, "bo", machine=_machine(), warmup_accesses=333)


def _spawn_writer(root, key, iters):
    src = Path(cache.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_CACHE_DIR"):
        env.pop(var, None)
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, str(root), key, str(iters)],
        env=env,
    )


class TestConcurrency:
    def test_two_processes_putting_same_key_both_succeed(self, tmp_path):
        """Concurrent writers of one key never corrupt the entry."""
        key = _base_key()
        writers = [_spawn_writer(tmp_path, key, 100) for _ in range(2)]
        (tmp_path / "go").touch()  # start gun: maximize write overlap
        for proc in writers:
            assert proc.wait(timeout=120) == 0
        store = cache.ResultCache(tmp_path)
        assert store.get_result(key) == _tiny_result()
        assert store.errors == 0

    def test_reader_racing_writer_sees_hit_or_miss_never_exception(
        self, tmp_path
    ):
        """``os.replace`` publication means readers never observe a torn
        entry: every ``get_result`` during a write storm is either a miss
        (recompute) or a full, bit-identical hit."""
        key = _base_key()
        expected = _tiny_result()
        store = cache.ResultCache(tmp_path)
        writer = _spawn_writer(tmp_path, key, 200)
        (tmp_path / "go").touch()
        hits = 0
        try:
            while writer.poll() is None:
                loaded = store.get_result(key)  # must not raise
                if loaded is not None:
                    assert loaded == expected
                    hits += 1
        finally:
            assert writer.wait(timeout=120) == 0
        assert store.get_result(key) == expected
        assert hits >= 1
        assert store.errors == 0
