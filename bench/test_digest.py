import json

import digest
from repro.memory.hierarchy import CoreCounters
from repro.obs.manifest import RunManifest
from repro.sim.stats import MultiCoreResult, SimulationResult


def _result(cycles=1000.5, traffic=None, manifest_wall=1.0, dram=7):
    return SimulationResult(
        workload="mcf",
        prefetcher="triage",
        instructions=3000,
        cycles=cycles,
        counters=CoreCounters(accesses=10, dram_accesses=dram),
        traffic=traffic if traffic is not None else {"demand": 64, "prefetch": 128},
        partition_history=[1024, 512],
        manifest=RunManifest(
            kind="single", workloads=["mcf"], prefetcher="triage", config={},
            wall_time_s=manifest_wall,
        ),
    )


def test_floats_keep_their_full_repr():
    text = json.dumps(digest.canonical(_result(cycles=0.1 + 0.2)))
    assert "0.30000000000000004" in text
    assert digest.digest(_result(cycles=0.1 + 0.2)) != digest.digest(_result(cycles=0.3))


def test_key_order_does_not_matter():
    forward = _result(traffic={"demand": 64, "prefetch": 128})
    backward = _result(traffic={"prefetch": 128, "demand": 64})
    assert digest.digest(forward) == digest.digest(backward)


def test_manifest_is_excluded_and_every_other_field_counts():
    assert digest.digest(_result(manifest_wall=1.0)) == digest.digest(_result(manifest_wall=9.0))
    assert digest.digest(_result(dram=7)) != digest.digest(_result(dram=8))
    assert "manifest" not in digest.canonical(_result())


def test_multicore_digest_excludes_per_core_manifests():
    def mix(wall, dram=7):
        return MultiCoreResult(
            workloads=["mcf", "mcf"], prefetcher="triage",
            per_core=[_result(manifest_wall=wall, dram=dram), _result(manifest_wall=wall)],
            traffic={"demand": 128}, manifest=_result(manifest_wall=wall).manifest,
        )

    assert digest.digest(mix(1.0)) == digest.digest(mix(2.0))
    assert digest.digest(mix(1.0)) != digest.digest(mix(1.0, dram=9))


def test_pin_merges_into_the_pinned_set(tmp_path):
    path = tmp_path / "expected.json"
    digest.pin({"b|none|1|1": "bb"}, path)
    digest.pin({"a|none|1|1": "aa"}, path)
    assert digest.load_expected(path) == {"a|none|1|1": "aa", "b|none|1|1": "bb"}
