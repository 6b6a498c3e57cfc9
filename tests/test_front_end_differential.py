"""The L1-filtered front end against the hierarchy that walked the L1D.

The engines replay each trace's L1D outcomes and stride-prefetch offsets
(:func:`repro.sim.front_end.front_end`) and hand only the L1D misses to a
:class:`CacheHierarchy` that starts at the L2.  The oracle here is the
engine before that change: a hierarchy that probed and filled its own
per-core L1Ds on every access, with the stride prefetcher observing each
access as it ran.  Both are copied below as they were.  Random small
traces with writes and repeated lines run through both on tiny caches,
on one and two cores, with the stride prefetcher off, at degree 1 and
at degree 2; every access must leave equal outcomes, counters, traffic
and L2/LLC contents.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, OrderedDict
from heapq import heappop
from typing import List, Optional, Union

from hypothesis import given, settings, strategies as st

from repro.memory.address import LINE_SIZE
from repro.memory.cache import DIRTY, PF_L1, PF_L2, PF_MASK, WAY_SHIFT, Cache, LruCache
from repro.memory.dram import TrafficCounter
from repro.memory.hierarchy import L1D_HIT, CacheHierarchy, CoreCounters
from repro.prefetchers.base import BasePrefetcher, PrefetchCandidate
from repro.sim.config import MachineConfig
from repro.sim.front_end import front_end, wrapped
from repro.sim.single_core import simulate
from repro.workloads.base import Trace

# -- the oracle: the hierarchy and stride prefetcher before the front end --


class OracleHierarchy:
    """``CacheHierarchy`` as it was with its own L1Ds; ``_fill_l1`` also
    tallies where each dirty L1D victim was written back."""

    def __init__(self, n_cores, l1_size, l1_ways, l2_size, l2_ways,
                 llc_size_per_core, llc_ways, llc_policy="lru"):
        self.l1s = [LruCache(f"L1D{c}", l1_size, l1_ways) for c in range(n_cores)]
        self.l2s = [LruCache(f"L2_{c}", l2_size, l2_ways) for c in range(n_cores)]
        llc_size = llc_size_per_core * n_cores
        self.llc: Union[LruCache, Cache] = (
            LruCache("LLC", llc_size, llc_ways)
            if llc_policy == "lru"
            else Cache("LLC", llc_size, llc_ways, policy=llc_policy)
        )
        self.traffic = TrafficCounter()
        self._bytes = self.traffic.bytes_by_category
        self.counters = [CoreCounters() for _ in range(n_cores)]
        self.l1_writebacks: Counter = Counter()

    def access(self, core, pc, addr, is_write=False):
        line = addr >> 6
        counters = self.counters[core]
        counters.accesses += 1
        l1 = self.l1s[core]
        lines = l1.sets[line & l1.set_mask]
        state = lines.pop(line, None)
        if state is not None:
            lines[line] = state | DIRTY if is_write else state
            counters.l1_hits += 1
            return ("l1", None)
        l2 = self.l2s[core]
        lines = l2.sets[line & l2.set_mask]
        state = lines.pop(line, None)
        if state is not None:
            if is_write:
                state |= DIRTY
            kind = None
            if state & PF_MASK:
                if state & PF_L2:
                    kind = "l2"
                    counters.l2_prefetch_hits += 1
                else:
                    kind = "l1"
                    counters.l1pf_useful += 1
                state &= ~PF_MASK
            lines[line] = state
            counters.l2_hits += 1
            self._fill_l1(core, line, DIRTY if is_write else 0)
            return "l2", kind
        if self.llc.access(line, pc).hit:
            counters.llc_hits += 1
            outcome = ("llc", None)
        else:
            counters.dram_accesses += 1
            self._bytes["demand"] += LINE_SIZE
            victim = self.llc.fill(line, pc)
            if victim is not None and victim[1]:
                self._bytes["writeback"] += LINE_SIZE
            outcome = ("dram", None)
        dirty = DIRTY if is_write else 0
        self._fill_l2(core, line, dirty)
        self._fill_l1(core, line, dirty)
        return outcome

    def prefetch(self, core, line, pc=0, kind="l2"):
        counters = self.counters[core]
        l2 = self.l2s[core]
        l2_prefetch = kind == "l2"
        if line in l2.sets[line & l2.set_mask]:
            if l2_prefetch:
                counters.prefetches_redundant += 1
            else:
                counters.l1pf_redundant += 1
            return "redundant"
        if l2_prefetch:
            counters.prefetches_issued += 1
        else:
            counters.l1pf_issued += 1
        if self.llc.contains(line):
            if l2_prefetch:
                counters.prefetch_fills_from_llc += 1
            self._fill_l2(core, line, PF_L2 if l2_prefetch else PF_L1)
            return "llc"
        if l2_prefetch:
            counters.prefetch_fills_from_dram += 1
        else:
            counters.l1pf_fills_from_dram += 1
        self._bytes["prefetch"] += LINE_SIZE
        victim = self.llc.fill(line, pc)
        if victim is not None and victim[1]:
            self._bytes["writeback"] += LINE_SIZE
        self._fill_l2(core, line, PF_L2 if l2_prefetch else PF_L1)
        return "dram"

    def resize_llc_data_ways(self, data_ways):
        for _line, dirty in self.llc.set_active_ways(data_ways):
            if dirty:
                self._bytes["writeback"] += LINE_SIZE

    def _fill_l1(self, core, line, dirty):
        l1 = self.l1s[core]
        set_idx = line & l1.set_mask
        lines = l1.sets[set_idx]
        free = l1.free_ways[set_idx]
        if free:
            lines[line] = heappop(free) << WAY_SHIFT | dirty
            return
        victim = next(iter(lines))
        state = lines.pop(victim)
        lines[line] = state >> WAY_SHIFT << WAY_SHIFT | dirty
        if state & DIRTY:
            l2 = self.l2s[core]
            l2_lines = l2.sets[victim & l2.set_mask]
            l2_state = l2_lines.get(victim)
            if l2_state is not None:
                l2_lines[victim] = l2_state | DIRTY
                self.l1_writebacks["l2"] += 1
            elif not self.llc.mark_dirty(victim):
                self._bytes["writeback"] += LINE_SIZE
                self.l1_writebacks["dram"] += 1
            else:
                self.l1_writebacks["llc"] += 1

    def _fill_l2(self, core, line, state_bits):
        l2 = self.l2s[core]
        set_idx = line & l2.set_mask
        lines = l2.sets[set_idx]
        free = l2.free_ways[set_idx]
        if free:
            lines[line] = heappop(free) << WAY_SHIFT | state_bits
            return
        victim = next(iter(lines))
        state = lines.pop(victim)
        lines[line] = state >> WAY_SHIFT << WAY_SHIFT | state_bits
        if state & DIRTY and not self.llc.mark_dirty(victim):
            self._bytes["writeback"] += LINE_SIZE


@dataclasses.dataclass(slots=True)
class _StrideEntry:
    last_line: int
    stride: int = 0
    confidence: int = 0


class OracleStride(BasePrefetcher):
    """``StridePrefetcher`` as it was."""

    name = "stride"
    CONFIDENCE_MAX = 3
    CONFIDENCE_THRESHOLD = 2

    def __init__(self, degree: int = 1, table_size: int = 256):
        super().__init__(degree)
        self.table_size = table_size
        self._table: "OrderedDict[int, _StrideEntry]" = OrderedDict()

    def observe(self, pc, line, prefetch_hit=False) -> List[PrefetchCandidate]:
        entry = self._table.get(pc)
        if entry is None:
            self._insert(pc, _StrideEntry(last_line=line))
            return []
        self._table.move_to_end(pc)
        stride = line - entry.last_line
        if stride == 0:
            return []
        if stride == entry.stride:
            if entry.confidence < self.CONFIDENCE_MAX:
                entry.confidence += 1
        else:
            entry.confidence -= 1
            if entry.confidence <= 0:
                entry.stride = stride
                entry.confidence = 1
        entry.last_line = line
        step = entry.stride
        if entry.confidence < self.CONFIDENCE_THRESHOLD or step == 0:
            return []
        return [
            PrefetchCandidate(target, None, self)
            for i in range(1, self.degree + 1)
            if (target := line + step * i) > 0
        ]

    def _insert(self, pc, entry):
        if len(self._table) >= self.table_size:
            self._table.popitem(last=False)
        self._table[pc] = entry


# -- driving both sides ----------------------------------------------------


#: Offset of the stand-in L2 prefetcher's one prefetch per training event.
L2PF_OFFSET = 3


def llc_state(llc):
    if isinstance(llc, LruCache):
        return [list(s.items()) for s in llc.sets], [sorted(f) for f in llc.free_ways]
    return (
        [dict(index) for index in llc._index],
        [[None if e is None else (e.line, e.dirty, e.prefetched) for e in ways]
         for ways in llc._ways],
    )


def assert_same_state(oracle: OracleHierarchy, new: CacheHierarchy, where: str):
    for core, (want, got) in enumerate(zip(oracle.counters, new.counters)):
        assert dataclasses.asdict(got) == dataclasses.asdict(want), f"{where} c{core}"
    assert new.traffic.snapshot() == oracle.traffic.snapshot(), where
    for want, got in zip(oracle.l2s, new.l2s):
        assert [list(s.items()) for s in got.sets] == [
            list(s.items()) for s in want.sets
        ], f"{where} L2"
        assert [sorted(f) for f in got.free_ways] == [
            sorted(f) for f in want.free_ways
        ], f"{where} L2 free ways"
    assert llc_state(new.llc) == llc_state(oracle.llc), f"{where} LLC"


def run_both(traces, machine: MachineConfig, steps: int, resize=None):
    """Step both sides through ``traces`` (one per core), checking after
    every access; returns the oracle (for its write-back tally)."""
    n_cores = len(traces)
    geometry = dict(
        n_cores=n_cores, l2_size=machine.l2_size, l2_ways=machine.l2_ways,
        llc_size_per_core=machine.llc_size_per_core, llc_ways=machine.llc_ways,
        llc_policy=machine.llc_policy,
    )
    oracle = OracleHierarchy(l1_size=machine.l1_size, l1_ways=machine.l1_ways, **geometry)
    new = CacheHierarchy(**geometry)
    strides: List[Optional[OracleStride]] = [
        OracleStride(machine.l1_prefetcher_degree)
        if machine.l1_prefetcher == "stride" else None
        for _ in traces
    ]
    fronts = [front_end(trace, machine, steps) for trace in traces]
    records = [
        list(zip(wrapped(t.pcs, steps), wrapped(t.addrs, steps), wrapped(t.writes, steps)))
        for t in traces
    ]
    for step in range(steps):
        if resize is not None and step == resize[0]:
            oracle.resize_llc_data_ways(resize[1])
            new.resize_llc_data_ways(resize[1])
        for core in range(n_cores):
            pc, addr, is_write = records[core][step]
            line = addr >> 6
            want = oracle.access(core, pc, addr, is_write)
            code = fronts[core].l1[step]
            if code == L1D_HIT:
                got = new.l1_hit(core)
            else:
                got = new.access(core, pc, line, is_write, code)
            where = f"step {step} core {core}"
            assert got == want, where
            if strides[core] is not None:
                targets = [c.line for c in strides[core].observe(pc, line)]
                offsets = fronts[core].l1pf[step]
                assert [line + o for o in offsets] == targets, where
                for target in targets:
                    assert new.prefetch(core, target, pc, "l1") == oracle.prefetch(
                        core, target, pc, kind="l1"
                    ), where
            else:
                assert fronts[core].l1pf[step] == ()
            if want[1] is not None or want[0] in ("llc", "dram"):
                target = line + L2PF_OFFSET
                assert new.prefetch(core, target, pc) == oracle.prefetch(
                    core, target, pc
                ), where
            assert_same_state(oracle, new, where)
    return oracle


def tiny_machine(n_cores, l1pf, degree, l2_sets, llc_sets, llc_ways, policy):
    return MachineConfig(
        n_cores=n_cores,
        l1_size=2 * 2 * LINE_SIZE, l1_ways=2,
        l2_size=l2_sets * 2 * LINE_SIZE, l2_ways=2,
        llc_size_per_core=llc_sets * llc_ways * LINE_SIZE, llc_ways=llc_ways,
        llc_policy=policy,
        l1_prefetcher=l1pf, l1_prefetcher_degree=degree,
    )


def build_trace(name, runs) -> Trace:
    """Runs are ``(pc, start, stride, length, writes)``: ``length``
    accesses from one pc, ``stride`` lines apart from line ``start``
    (clamped at 0), every other one a write when ``writes`` is set.  So
    traces mix strides the stride prefetcher learns, repeated lines and
    writes."""
    pcs, addrs, writes = [], [], []
    for pc, start, stride, length, write in runs:
        for k in range(length):
            line = max(0, start + stride * k)
            pcs.append(0x400 + 16 * pc)
            addrs.append(line * LINE_SIZE + 8 * pc)
            writes.append(write and k % 2 == 0)
    return Trace(name, pcs, addrs, writes)


runs = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 40),
        st.integers(-2, 3),
        st.integers(1, 8),
        st.booleans(),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    per_core=st.lists(runs, min_size=1, max_size=2),
    l1pf=st.sampled_from([("none", 1), ("stride", 1), ("stride", 2)]),
    l2_sets=st.sampled_from([1, 2, 4]),
    llc_sets=st.sampled_from([1, 2, 4]),
    llc_ways=st.sampled_from([2, 4]),
    policy=st.sampled_from(["lru", "srrip"]),
    wrap=st.integers(0, 60),
    resize=st.one_of(st.none(), st.tuples(st.integers(0, 80), st.integers(0, 2))),
)
def test_front_end_matches_the_l1_walking_hierarchy(
    per_core, l1pf, l2_sets, llc_sets, llc_ways, policy, wrap, resize
):
    traces = [build_trace(f"t{core}", r) for core, r in enumerate(per_core)]
    machine = tiny_machine(len(traces), *l1pf, l2_sets, llc_sets, llc_ways, policy)
    steps = min(len(t) for t in traces) + wrap
    run_both(traces, machine, steps, resize)


def test_dirty_l1_victims_reach_every_level():
    """A fixed write-heavy example lands dirty L1D victims in the L2, the
    LLC and DRAM, so the differential test covers all three."""
    runs = [(i % 3, (7 * i) % 41, i % 4 - 1, 1 + i % 6, i % 2 == 0) for i in range(120)]
    traces = [build_trace("w0", runs), build_trace("w1", runs[::-1])]
    machine = tiny_machine(2, "stride", 2, 1, 2, 2, "lru")
    oracle = run_both(traces, machine, 500)
    assert all(oracle.l1_writebacks[level] > 0 for level in ("l2", "llc", "dram")), (
        oracle.l1_writebacks
    )


# -- the memo ------------------------------------------------------------


def _fingerprint(result):
    return (result.cycles, dataclasses.asdict(result.counters), dict(result.traffic))


def _copy(trace: Trace) -> Trace:
    return Trace(
        trace.name, list(trace.pcs), list(trace.addrs), list(trace.writes),
        trace.category, trace.mlp, trace.instr_per_access, dict(trace.metadata),
    )


def test_memo_serves_each_geometry_and_follows_trace_changes():
    runs = [(i % 3, (5 * i) % 37, i % 5 - 2, 1 + i % 9, i % 4 == 0) for i in range(600)]
    trace = build_trace("memo", runs)
    small = MachineConfig.scaled(64)
    large = dataclasses.replace(small, l1_size=4 * small.l1_size, l1_prefetcher_degree=2)
    for machine in (small, large, small, large):
        assert _fingerprint(simulate(trace, "bo", machine=machine)) == _fingerprint(
            simulate(_copy(trace), "bo", machine=machine)
        )
    assert trace == _copy(trace)  # the memo stays out of ==
    assert "_memo" not in repr(trace)
    # Edit the trace in place: the next run must see the new records.
    trace.writes[:] = [not w for w in trace.writes]
    trace.addrs[100] += 64 * 1000
    for machine in (small, large):
        assert _fingerprint(simulate(trace, "bo", machine=machine)) == _fingerprint(
            simulate(_copy(trace), "bo", machine=machine)
        )
