"""Reproduction of "Temporal Prefetching Without the Off-Chip Metadata".

This package reimplements the Triage temporal prefetcher (Wu et al.,
MICRO-52, 2019) together with every substrate its evaluation depends on:

* a trace-driven three-level cache hierarchy with a bandwidth-aware DRAM
  model (:mod:`repro.memory`),
* cache replacement policies including Hawkeye/OPTgen
  (:mod:`repro.replacement`),
* the baseline prefetchers the paper compares against -- stride, Best
  Offset, SMS, STMS, Domino, ISB and MISB
  (:mod:`repro.prefetchers`),
* the Triage prefetcher itself (:mod:`repro.core`),
* synthetic SPEC2006-like and CloudSuite-like workload generators
  (:mod:`repro.workloads`),
* single-/multi-core simulators plus the timing, stats and energy models
  (:mod:`repro.sim`), and
* one experiment harness per figure of the paper
  (:mod:`repro.experiments`).

Quickstart::

    from repro import simulate
    from repro.workloads import spec

    trace = spec.make_trace("mcf", n_accesses=100_000, seed=1)
    baseline = simulate(trace, prefetcher=None)
    triage = simulate(trace, prefetcher="triage")
    print(triage.speedup_over(baseline))
"""

from repro.core.triage import TriageConfig, TriagePrefetcher
from repro.sim.config import MachineConfig
from repro.sim.single_core import SimulationResult, simulate
from repro.sim.multi_core import MultiCoreResult, simulate_multicore

__all__ = [
    "MachineConfig",
    "MultiCoreResult",
    "SimulationResult",
    "TriageConfig",
    "TriagePrefetcher",
    "simulate",
    "simulate_multicore",
]

__version__ = "1.0.0"
