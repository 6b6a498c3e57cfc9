"""Multi-programmed SPEC mixes (paper Section 4.1).

The paper simulates 80 mixes per core count, each core running a
benchmark "chosen uniformly randomly from all memory-bound benchmarks";
30 of the 80 are irregular-only mixes.  :func:`make_mix` reproduces that
sampling, seeded, and hands each core a disjoint address arena so two
copies of the same benchmark never share data.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.workloads.base import Trace
from repro.workloads.spec import IRREGULAR_SPEC, MEMORY_BOUND, make_trace


def mix_names(
    n_cores: int, seed: int, irregular_only: bool = False
) -> List[str]:
    """The benchmark names for one mix (deterministic in ``seed``)."""
    pool = IRREGULAR_SPEC if irregular_only else MEMORY_BOUND
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(n_cores)]


def mix_cores(
    n_cores: int,
    seed: int,
    irregular_only: bool = False,
    names: Optional[List[str]] = None,
) -> List[Tuple[str, int, int]]:
    """Each core's ``(benchmark, trace seed, arena)`` for one mix.

    Each core gets its own arena (offset by the core index) so identical
    benchmarks on different cores touch disjoint memory, as separate
    processes would.
    """
    if names is None:
        names = mix_names(n_cores, seed, irregular_only)
    if len(names) != n_cores:
        raise ValueError("names must have one benchmark per core")
    return [
        (name, seed * 97 + core, 1000 + core * 40 + (seed % 7))
        for core, name in enumerate(names)
    ]


def make_mix(
    n_cores: int,
    seed: int,
    n_accesses_per_core: int = 60_000,
    irregular_only: bool = False,
    names: Optional[List[str]] = None,
    scale: float = 1.0,
) -> List[Trace]:
    """Build one multi-programmed mix: one trace per core.

    The cores' benchmarks, seeds and arenas come from :func:`mix_cores`.
    ``scale`` shrinks working sets to match a scaled machine (see
    :data:`repro.workloads.spec.SCALE_DEFAULT`).
    """
    return [
        make_trace(
            name, n_accesses=n_accesses_per_core, seed=trace_seed, arena=arena,
            scale=scale,
        )
        for name, trace_seed, arena in mix_cores(n_cores, seed, irregular_only, names)
    ]
