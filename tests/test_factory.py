"""Tests for the prefetcher factory."""

import pytest

from repro.cache import UncacheableSpec, spec_fingerprint
from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.experiments import common
from repro.prefetchers import (
    BasePrefetcher,
    BestOffsetPrefetcher,
    HybridPrefetcher,
    MisbPrefetcher,
    SmsPrefetcher,
)
from repro.prefetchers.triangel import TriangelConfig, TriangelPrefetcher
from repro.sim.factory import TABLE, build, is_registered, label, make_prefetcher


def test_none_specs():
    assert make_prefetcher(None) is None
    assert make_prefetcher("none") is None
    assert make_prefetcher("") is None


def test_simple_names():
    assert isinstance(make_prefetcher("bo"), BestOffsetPrefetcher)
    assert isinstance(make_prefetcher("sms"), SmsPrefetcher)
    assert isinstance(make_prefetcher("misb"), MisbPrefetcher)


def test_degree_propagates():
    pf = make_prefetcher("bo", degree=4)
    assert pf.degree == 4


def test_triage_variants():
    pf = make_prefetcher("triage_512kb")
    assert isinstance(pf, TriagePrefetcher)
    assert pf.metadata_capacity_bytes == 512 * 1024
    dyn = make_prefetcher("triage_dynamic")
    assert dyn.controller is not None
    # The experiments' controller wiring, at the paper's full size.
    assert dyn.config.epoch_accesses == common.EPOCH_ACCESSES
    assert dyn.config.capacities == common.capacities_for_scale(1)
    lru = make_prefetcher("triage_lru")
    assert lru.config.replacement == "lru"
    ideal = make_prefetcher("triage_ideal")
    assert ideal.store.unbounded


def test_triangel_variants():
    pf = make_prefetcher("triangel")
    assert isinstance(pf, TriangelPrefetcher)
    assert pf.config.replacement == "reuse"
    assert make_prefetcher("triangel_512kb").metadata_capacity_bytes == 512 * 1024
    assert make_prefetcher("triangel_dynamic").controller is not None
    degen = make_prefetcher("triangel_nosample")
    assert degen.config.sampling is False
    assert degen.config.lookahead == 1
    assert degen.config.replacement == "hawkeye"


def test_triangel_config_builds_triangel_not_triage():
    """Subclass dispatch: a TriangelConfig must never silently build the
    parent TriagePrefetcher (isinstance order in the factory)."""
    pf = make_prefetcher(TriangelConfig(metadata_capacity=4096))
    assert type(pf) is TriangelPrefetcher
    assert type(make_prefetcher(TriageConfig(metadata_capacity=4096))) is (
        TriagePrefetcher
    )


#: Spellings beyond the table rows, and which of them must be rejected.
EXTRA_NAMES = [
    "", "bo ", "BO", "bo+none", "bo+triangel_dynamic", "triage@8192:lru:8",
    "+", "none+none", "triage@4096:bogus", "triage@x", "triage@4096:lru:0",
    "teleporting_prefetcher", "bo+teleporting_prefetcher", 42,
]
UNREGISTERED = {
    "+", "none+none", "triage@4096:bogus", "triage@x", "triage@4096:lru:0",
    "teleporting_prefetcher", "bo+teleporting_prefetcher", 42,
}


def _builds(name, scale) -> bool:
    try:
        build(name, 1, scale)
    except ValueError:
        return False
    return True


def test_is_registered():
    """One answer per name: registration, building at every scale the
    simulator uses, and cache fingerprinting all agree."""
    for name in list(TABLE) + EXTRA_NAMES:
        registered = is_registered(name)
        assert registered == (name not in UNREGISTERED), name
        for scale in (1, common.SCALE, common.MULTI_SCALE):
            assert _builds(name, scale) == registered, (name, scale)
        if registered:
            spec_fingerprint(name)
        else:
            with pytest.raises(UncacheableSpec):
                spec_fingerprint(name)


def test_labels():
    legends = {
        "none": "NoL2PF",
        "bo": "BO",
        "sms": "SMS",
        "stms": "STMS",
        "domino": "Domino",
        "isb": "Ideal-PC-Temporal",
        "misb": "MISB_48KB",
        "triage_512kb": "Triage_512KB",
        "triage_1mb": "Triage_1MB",
        "triage_dynamic": "Triage_Dynamic",
        "triage_utility": "Triage_Utility",
        "triage_lru": "Triage_LRU",
        "triage_ideal": "Triage_Unbounded",
        "triangel": "Triangel",
        "triangel_512kb": "Triangel_512KB",
        "triangel_dynamic": "Triangel_Dynamic",
        "triangel_nosample": "Triangel_NoSample",
        "triangel_nonuniform": "Triangel_NonUniform",
        "bo+triage_dynamic": "BO+Triage-Dyn",
        "bo+triage_1mb": "BO+Triage-Static",
        "bo+sms": "BO+SMS",
    }
    assert {name: label(name) for name in legends} == legends


def test_hybrid_parsing():
    pf = make_prefetcher("bo+triage")
    assert isinstance(pf, HybridPrefetcher)
    assert pf.name == "bo+triage"
    assert len(pf.components) == 2


def test_instance_passthrough():
    instance = BestOffsetPrefetcher()
    assert make_prefetcher(instance) is instance


def test_triage_config_passthrough():
    pf = make_prefetcher(TriageConfig(metadata_capacity=4096))
    assert isinstance(pf, TriagePrefetcher)


def test_callable_factory():
    pf = make_prefetcher(lambda: BestOffsetPrefetcher())
    assert isinstance(pf, BestOffsetPrefetcher)
    assert make_prefetcher(lambda: None) is None


def test_callable_returning_junk_rejected():
    with pytest.raises(TypeError):
        make_prefetcher(lambda: 42)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_prefetcher("teleporting_prefetcher")


def test_non_string_spec_rejected():
    with pytest.raises(TypeError):
        make_prefetcher(3.14)
