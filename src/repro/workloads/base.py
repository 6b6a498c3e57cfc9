"""Trace container and helpers shared by every workload generator.

A :class:`Trace` is the unit of simulation: a finite stream of
``(pc, byte_address, is_write)`` records plus the workload-level hints the
analytic timing model needs (memory-level parallelism and instructions
per memory access).  Generators produce traces deterministically from a
seed, so every experiment in this repository is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, List, Tuple, TypeVar

T = TypeVar("T")

#: Synthetic PCs are spaced like real instruction addresses.
PC_BASE = 0x400000
PC_STRIDE = 0x10

#: Heap addresses start here; generators carve disjoint arenas out of it.
HEAP_BASE = 0x10000000


@dataclass
class Trace:
    """A finite memory-access trace with timing hints.

    ``mlp`` is the average number of overlapping long-latency misses the
    (out-of-order) core can sustain for this workload: near 1 for
    pointer-chasing code whose next address depends on the previous load,
    higher for array codes.  ``instr_per_access`` converts the access
    count into an instruction count for IPC/speedup reporting.
    """

    name: str
    pcs: List[int]
    addrs: List[int]
    writes: List[bool]
    category: str = "irregular"  # 'irregular' | 'regular' | 'server'
    mlp: float = 1.5
    instr_per_access: float = 3.0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (len(self.pcs) == len(self.addrs) == len(self.writes)):
            raise ValueError("pcs, addrs and writes must have equal length")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1")
        #: :meth:`memo` entries.  Not a field, so it stays out of ``==``,
        #: ``repr`` and the trace files (:mod:`repro.workloads.traceio`).
        self._memo: Dict[Hashable, Tuple[int, object]] = {}

    def memo(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` while the records stay
        the same.

        Each entry is stamped with a hash of the records and rebuilt
        when they change, so a trace edited after a run never serves
        the earlier run's value.
        """
        stamp = hash((tuple(self.pcs), tuple(self.addrs), tuple(self.writes)))
        entry = self._memo.get(key)
        if entry is None or entry[0] != stamp:
            entry = self._memo[key] = (stamp, build())
        return entry[1]

    def __len__(self) -> int:
        return len(self.addrs)

    def __iter__(self) -> Iterator[Tuple[int, int, bool]]:
        return zip(self.pcs, self.addrs, self.writes)

    def records(self) -> Iterator[Tuple[int, int, bool]]:
        """Iterate ``(pc, addr, is_write)`` records."""
        return iter(self)

    @property
    def instructions(self) -> float:
        """Estimated instruction count represented by this trace."""
        return len(self) * self.instr_per_access

    def head(self, n: int) -> "Trace":
        """A copy truncated to the first ``n`` accesses."""
        return Trace(
            name=self.name,
            pcs=self.pcs[:n],
            addrs=self.addrs[:n],
            writes=self.writes[:n],
            category=self.category,
            mlp=self.mlp,
            instr_per_access=self.instr_per_access,
            metadata=dict(self.metadata),
        )


def pc_of(index: int) -> int:
    """The synthetic PC for load-site ``index``."""
    return PC_BASE + index * PC_STRIDE


def interleave(traces: List[Trace], name: str = "interleaved") -> Trace:
    """Round-robin merge of several traces into one (single-core phases).

    The result inherits the length-weighted average of the timing hints
    and the most common category.
    """
    if not traces:
        raise ValueError("need at least one trace")
    pcs: List[int] = []
    addrs: List[int] = []
    writes: List[bool] = []
    iters = [iter(t) for t in traces]
    live = list(range(len(traces)))
    while live:
        still_live = []
        for i in live:
            try:
                pc, addr, w = next(iters[i])
            except StopIteration:
                continue
            pcs.append(pc)
            addrs.append(addr)
            writes.append(w)
            still_live.append(i)
        live = still_live
    total = sum(len(t) for t in traces)
    mlp = sum(t.mlp * len(t) for t in traces) / total
    ipa = sum(t.instr_per_access * len(t) for t in traces) / total
    weight: Dict[str, int] = {}
    for t in traces:
        weight[t.category] = weight.get(t.category, 0) + len(t)
    category = max(weight, key=lambda c: weight[c])
    return Trace(
        name=name,
        pcs=pcs,
        addrs=addrs,
        writes=writes,
        category=category,
        mlp=mlp,
        instr_per_access=ipa,
    )
