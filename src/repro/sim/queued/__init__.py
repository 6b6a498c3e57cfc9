"""Queued (event-driven) timing engine.

The analytic model in :mod:`repro.sim.timing` converts miss counts into
cycles with closed-form formulas.  This package provides the alternative
the paper's multi-core evaluation used (ChampSim-style): demand misses
are bounded by the out-of-order window, prefetches by a bounded queue,
both go to a banked DRAM with a shared data bus, and a prefetch only
helps if it *arrives before* its demand -- late prefetches are modeled,
not assumed away.

Use it through :func:`repro.sim.queued.engine.simulate_queued`, which
returns the same :class:`~repro.sim.stats.SimulationResult` as the
analytic engine so results are directly comparable (see
``experiments/ext_engine_validation.py``).
"""

from repro.sim.queued.dram_sched import BankedDram
from repro.sim.queued.engine import simulate_queued

__all__ = ["BankedDram", "simulate_queued"]
