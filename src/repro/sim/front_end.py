"""The L1-filtered front end every engine replays.

The L1D and the Table 1 stride prefetcher sit above the L2 access
stream the evaluated prefetchers train on, and see only the demand
trace: nothing below the L1D fills, invalidates or reads its lines, and
the stride prefetcher trains on every demand access whatever it hits.
So their per-access results are the same under every configuration a
trace runs under.  :func:`front_end` computes them once per trace (and
L1 geometry, stride degree and stream length) and memoizes them with
the trace; the engines replay them and hand only the L1D misses to
:class:`~repro.memory.hierarchy.CacheHierarchy`.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.memory.hierarchy import L1D
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.config import MachineConfig
from repro.workloads.base import Trace


def make_l1_prefetcher(config: MachineConfig) -> Optional[StridePrefetcher]:
    """The baseline L1D prefetcher from Table 1 (None when disabled)."""
    if config.l1_prefetcher == "none":
        return None
    if config.l1_prefetcher == "stride":
        return StridePrefetcher(degree=config.l1_prefetcher_degree)
    raise ValueError(f"unknown l1 prefetcher {config.l1_prefetcher!r}")


class FrontEnd(NamedTuple):
    """One trace's L1D and stride-prefetch results, one entry per access."""

    #: :class:`~repro.memory.hierarchy.L1D` outcome codes.
    l1: List[int]
    #: Per access, the offsets from the accessed line of the lines the
    #: stride prefetcher asks for (``()`` for none, and always without
    #: an L1 prefetcher), as :meth:`StridePrefetcher.offsets` gave them.
    l1pf: List[Tuple[int, ...]]


def wrapped(records: Sequence, length: int):
    """``records`` repeated from the start until ``length`` items."""
    if length <= len(records):
        return records
    return islice(cycle(records), length)


def front_end(
    trace: Trace, config: MachineConfig, length: Optional[int] = None
) -> FrontEnd:
    """``trace``'s :class:`FrontEnd` on ``config``'s L1D, memoized.

    ``length`` is the number of accesses the engine steps; a core that
    runs past the end of its trace restarts it with the L1D and the
    stride table warm, as the engines do.
    """
    if length is None:
        length = len(trace)
    key = (
        "front_end", config.l1_size, config.l1_ways,
        config.l1_prefetcher, config.l1_prefetcher_degree, length,
    )
    return trace.memo(key, lambda: _build(trace, config, length))


def _build(trace: Trace, config: MachineConfig, length: int) -> FrontEnd:
    lines = [addr >> 6 for addr in wrapped(trace.addrs, length)]
    l1 = L1D(config.l1_size, config.l1_ways).run(
        lines, wrapped(trace.writes, length)
    )
    stride = make_l1_prefetcher(config)
    if stride is None:
        return FrontEnd(l1, [()] * length)
    offsets = stride.offsets
    return FrontEnd(
        l1, [offsets(pc, line) for pc, line in zip(wrapped(trace.pcs, length), lines)]
    )
