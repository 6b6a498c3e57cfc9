import sys
import types

import pytest

import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrappers():
    clock = FakeClock()
    prof = layers.LayerProfiler(clock)

    def inner():
        clock.now += 2

    inner = prof.wrap("inner_layer", "inner", inner)

    def outer():
        clock.now += 1
        inner()
        inner()
        clock.now += 3

    outer = prof.wrap("outer_layer", "outer", outer)
    outer()
    assert prof.self_s == {"outer_layer": 4, "inner_layer": 4}
    assert prof.calls == {"outer": 1, "inner": 2}
    assert prof._nested == []


def test_self_time_of_recursive_wrapper_counts_each_frame_once():
    clock = FakeClock()
    prof = layers.LayerProfiler(clock)

    def countdown(k):
        clock.now += 1
        return 0 if k == 0 else countdown(k - 1)

    countdown = prof.wrap("layer", "countdown", countdown)
    countdown(3)
    assert prof.self_s == {"layer": 4}
    assert prof.calls == {"countdown": 4}


def test_wrapper_that_raises_still_balances_the_stack():
    clock = FakeClock()
    prof = layers.LayerProfiler(clock)

    def boom():
        clock.now += 5
        raise RuntimeError("boom")

    boom = prof.wrap("b", "boom", boom, probe=lambda args, result: 1)
    outer = prof.wrap("a", "outer", lambda: boom())
    with pytest.raises(RuntimeError):
        outer()
    assert prof.self_s == {"a": 0, "b": 5}
    assert prof.probes == {}
    assert prof._nested == []


def test_probe_counts_return_values():
    prof = layers.LayerProfiler()
    lookup = prof.wrap("store", "lookup", lambda key: key or None, probe=layers._not_none)
    for key in (0, 1, 2, 0):
        lookup(key)
    assert prof.calls["lookup"] == 4
    assert prof.probes["lookup"] == 2


def _bindings():
    """Every object a target names, keyed by where it is bound."""
    found = {}
    for target in layers.TARGETS:
        module = sys.modules[target.module]
        if "." in target.qualname:
            cls_name, attr = target.qualname.split(".")
            cls = getattr(module, cls_name)
            found[(cls, attr)] = cls.__dict__[attr]
            continue
        original = getattr(module, target.qualname)
        for owner in layers._repro_modules():
            for name, value in vars(owner).items():
                if value is original:
                    found[(owner, name)] = value
    return found


def test_uninstall_restores_every_original_by_identity(monkeypatch):
    import repro.experiments.common  # noqa: F401  (imports every target module)
    import repro.sim.parallel  # noqa: F401

    before = _bindings()
    done = layers.install(layers.LayerProfiler())
    # Bound by name in more than one module: every binding is wrapped.
    assert repro.experiments.common.simulate is not before[(repro.experiments.common, "simulate")]
    assert repro.sim.parallel.simulate is repro.experiments.common.simulate
    # A module imported while wrappers are live gets the original back too.
    late = types.ModuleType("repro._late_import")
    late.run_single = repro.experiments.common.run_single
    monkeypatch.setitem(sys.modules, late.__name__, late)
    layers.uninstall(done)
    for (owner, name), value in before.items():
        assert vars(owner)[name] is value, (owner, name)
    assert late.run_single is before[(repro.experiments.common, "run_single")]


def test_layer_metrics_cover_every_layer():
    metrics = layers.layer_metrics({"self_s": {}, "calls": {}, "probes": {}})
    for name in layers.TIME_METRIC.values():
        assert metrics[name] == 0.0
    assert metrics["core.metadata_store.lookup_hit_rate"] == 0.0
