"""Per-layer self time and call counts, measured from outside the program.

:func:`install` replaces public functions and methods of ``repro``
modules with timing wrappers; :func:`uninstall` puts every original
object back, so untraced repeats run the program's own code.  Each
wrapper adds its call to a :class:`LayerProfiler`, which keeps a stack of
the time nested wrappers took: a layer's self time is the wrapper's
duration minus that nested time.

Wrappers see calls only.  Code fused into one function (the closures of
``repro.sim.batched``) is charged to whichever wrapper encloses it, and
calls made in forked worker processes are lost with the worker.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


def _not_none(args, result) -> int:
    return result is not None


def _redundant(args, result) -> int:
    return result == "redundant"


def _length(args, result) -> int:
    return len(result)


def _first_arg_length(args, result) -> int:
    return len(args[0])


class Target(NamedTuple):
    """One wrapped entry point.

    ``probe(args, result)`` returns a count added under the target's
    label, e.g. 1 for a metadata lookup that hit.
    """

    layer: str
    module: str
    qualname: str
    probe: Optional[Callable] = None


#: Layers in report order, each with the entry points charged to it.
TARGETS: Tuple[Target, ...] = (
    Target("workloads", "repro.workloads.spec", "make_trace"),
    Target("workloads", "repro.workloads.mixes", "make_mix"),
    Target("memory", "repro.memory.hierarchy", "CacheHierarchy.access"),
    Target("memory", "repro.memory.hierarchy", "CacheHierarchy.prefetch", _redundant),
    Target("prefetchers", "repro.prefetchers.stride", "StridePrefetcher.observe", _length),
    Target("prefetchers", "repro.prefetchers.best_offset", "BestOffsetPrefetcher.observe", _length),
    Target("prefetchers", "repro.prefetchers.sms", "SmsPrefetcher.observe", _length),
    Target("prefetchers", "repro.prefetchers.triangel", "TriangelPrefetcher.observe", _length),
    Target("core.triage", "repro.core.triage", "TriagePrefetcher.observe"),
    Target("core.triage", "repro.core.triage", "TriagePrefetcher.feedback"),
    Target("core.metadata_store", "repro.core.metadata_store", "MetadataStore.lookup", _not_none),
    Target("core.metadata_store", "repro.core.metadata_store", "MetadataStore.update"),
    Target("core.metadata_store", "repro.core.metadata_store", "MetadataStore.observe_access"),
    Target("core.metadata_store", "repro.core.metadata_store", "MetadataStore.record_prefetch_outcome"),
    Target("core.metadata_store", "repro.core.metadata_store", "MetadataStore.resize"),
    Target("core.training_unit", "repro.core.training_unit", "TrainingUnit.observe"),
    Target("core.partition", "repro.core.partition", "PartitionController.note_access", _not_none),
    Target("replacement", "repro.replacement.optgen", "OptGen.access"),
    Target("replacement", "repro.replacement.hawkeye", "HawkeyePolicy.observe"),
    Target("sim.driver", "repro.sim.single_core", "simulate"),
    Target("sim.driver", "repro.sim.multi_core", "simulate_multicore"),
    Target("sim.timing", "repro.sim.timing", "resolve_epoch"),
    Target("experiments", "repro.experiments.common", "run_single"),
    Target("experiments", "repro.experiments.common", "run_mix"),
    Target("experiments", "repro.experiments.common", "warm_grid"),
    Target("cache", "repro.cache.store", "ResultCache.get_result", _not_none),
    Target("cache", "repro.cache.store", "ResultCache.put_result"),
    Target("cache", "repro.cache.store", "ResultCache.get_trace", _not_none),
    Target("cache", "repro.cache.store", "ResultCache.put_trace"),
    Target("sim.parallel", "repro.sim.parallel", "run_cells", _first_arg_length),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class LayerProfiler:
    """Self seconds per layer, calls and probe counts per target label."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.probes: Counter = Counter()
        #: One slot per active wrapper: seconds its nested wrappers took.
        self._nested: List[float] = []

    def wrap(self, layer: str, label: str, fn: Callable, probe=None) -> Callable:
        clock = self.clock
        nested = self._nested
        self_s = self.self_s
        calls = self.calls
        probes = self.probes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
                calls[label] += 1
            if probe is not None:
                probes[label] += probe(args, result)
            return result

        return wrapper

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "probes": dict(self.probes),
        }


def delta(after: Dict[str, Dict], before: Dict[str, Dict]) -> Dict[str, Dict]:
    """``after - before`` per section, keeping non-zero entries only."""
    out = {}
    for section, values in after.items():
        prior = before.get(section, {})
        out[section] = {
            key: value - prior.get(key, 0)
            for key, value in values.items()
            if value != prior.get(key, 0)
        }
    return out


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Installation:
    """The patches one :func:`install` made, undone by :func:`uninstall`."""

    def __init__(self):
        #: (class, attribute, original) for methods.
        self.methods: List[Tuple[type, str, object]] = []
        #: id(wrapper) -> (wrapper, original), for module-level functions.
        self.functions: Dict[int, Tuple[object, object]] = {}


def install(profiler: LayerProfiler, targets=TARGETS) -> Installation:
    """Wrap every target; functions are patched in every ``repro``
    module that imported them by name, so callers that use
    ``from module import name`` are traced too."""
    done = Installation()
    for target in targets:
        module = importlib.import_module(target.module)
        label = target.qualname
        if "." in target.qualname:
            cls_name, attr = target.qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, profiler.wrap(target.layer, label, original, target.probe))
            done.methods.append((cls, attr, original))
            continue
        original = getattr(module, target.qualname)
        wrapper = profiler.wrap(target.layer, label, original, target.probe)
        done.functions[id(wrapper)] = (wrapper, original)
        for owner in _repro_modules():
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, wrapper)
    return done


def uninstall(done: Installation) -> None:
    """Restore every original object :func:`install` replaced.

    Modules are rescanned, so a module first imported while the wrappers
    were live (and so holding a wrapper) gets the original back too.
    """
    for cls, attr, original in reversed(done.methods):
        setattr(cls, attr, original)
    for owner in _repro_modules():
        for name, value in list(vars(owner).items()):
            pair = done.functions.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(owner, name, pair[1])
    done.methods.clear()
    done.functions.clear()


#: The seconds metric each layer reports.  ``run_cells`` hands its cells
#: to worker processes the wrappers cannot see, so its self time is its
#: wall time.
TIME_METRIC: Dict[str, str] = {
    layer: "sim.parallel.wall_s" if layer == "sim.parallel" else f"{layer}.self_s"
    for layer in LAYERS
}

_OBSERVES = tuple(t.qualname for t in TARGETS if t.layer == "prefetchers")
_STORE = tuple(t.qualname for t in TARGETS if t.layer == "core.metadata_store")
_GETS = ("ResultCache.get_result", "ResultCache.get_trace")
_PUTS = ("ResultCache.put_result", "ResultCache.put_trace")


def layer_metrics(totals: Dict[str, Dict]) -> Dict[str, float]:
    """Per-layer seconds and counts from summed span sections."""
    self_s, calls, probes = totals["self_s"], totals["calls"], totals["probes"]

    def n(*labels):
        return sum(calls.get(label, 0) for label in labels)

    def hits(*labels):
        return sum(probes.get(label, 0) for label in labels)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {TIME_METRIC[layer]: self_s.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "workloads.calls": n("make_trace", "make_mix"),
        "memory.access_calls": n("CacheHierarchy.access"),
        "memory.prefetch_calls": n("CacheHierarchy.prefetch"),
        "memory.prefetch_redundant_frac": ratio(
            hits("CacheHierarchy.prefetch"), n("CacheHierarchy.prefetch")
        ),
        "prefetchers.observe_calls": n(*_OBSERVES),
        "prefetchers.candidates_per_observe": ratio(hits(*_OBSERVES), n(*_OBSERVES)),
        "core.triage.observe_calls": n("TriagePrefetcher.observe"),
        "core.metadata_store.calls": n(*_STORE),
        "core.metadata_store.lookup_hit_rate": ratio(
            hits("MetadataStore.lookup"), n("MetadataStore.lookup")
        ),
        "core.training_unit.calls": n("TrainingUnit.observe"),
        "core.partition.calls": n("PartitionController.note_access"),
        "core.partition.decisions": hits("PartitionController.note_access"),
        "replacement.optgen_calls": n("OptGen.access"),
        "replacement.hawkeye_calls": n("HawkeyePolicy.observe"),
        "sim.runs": n("simulate", "simulate_multicore"),
        "sim.timing.epochs": n("resolve_epoch"),
        "cache.gets": n(*_GETS),
        "cache.puts": n(*_PUTS),
        "cache.hit_rate": ratio(hits(*_GETS), n(*_GETS)),
        "sim.parallel.cells": hits("run_cells"),
    })
    return out
