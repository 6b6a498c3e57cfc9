"""Unit tests for the workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import Trace, interleave, pc_of
from repro.workloads.irregular import (
    _link_sequential,
    chain_trace,
    graph_walk_trace,
    shuffled_reuse_trace,
)
from repro.workloads.regular import (
    scan_footprint_trace,
    stream_trace,
    strided_trace,
)


def test_trace_validates_lengths():
    with pytest.raises(ValueError):
        Trace("t", [1], [1, 2], [False, False])


def test_trace_validates_mlp():
    with pytest.raises(ValueError):
        Trace("t", [1], [64], [False], mlp=0.5)


def test_trace_iteration_and_head():
    trace = Trace("t", [1, 2], [64, 128], [False, True])
    assert list(trace) == [(1, 64, False), (2, 128, True)]
    head = trace.head(1)
    assert len(head) == 1
    assert head.name == "t"


def test_trace_instruction_estimate():
    trace = Trace("t", [1], [64], [False], instr_per_access=4.0)
    assert trace.instructions == 4.0


def test_interleave_round_robin():
    a = Trace("a", [1, 1], [0, 64], [False, False])
    b = Trace("b", [2], [128], [False])
    merged = interleave([a, b], name="m")
    assert [x[1] for x in merged] == [0, 128, 64]
    assert len(merged) == 3


def test_interleave_requires_traces():
    with pytest.raises(ValueError):
        interleave([])


def test_chain_trace_deterministic():
    t1 = chain_trace("c", 5000, seed=3, hot_lines=1000, cold_lines=2000)
    t2 = chain_trace("c", 5000, seed=3, hot_lines=1000, cold_lines=2000)
    assert t1.addrs == t2.addrs
    assert t1.pcs == t2.pcs


def test_chain_trace_seed_changes_trace():
    t1 = chain_trace("c", 5000, seed=3, hot_lines=1000, cold_lines=2000)
    t2 = chain_trace("c", 5000, seed=4, hot_lines=1000, cold_lines=2000)
    assert t1.addrs != t2.addrs


def test_chain_trace_respects_length_and_alignment():
    trace = chain_trace("c", 3000, seed=1, hot_lines=500, cold_lines=500)
    assert len(trace) == 3000
    assert all(a % 64 == 0 for a in trace.addrs[:100])


def test_chain_trace_pc_streams_are_chain_walks():
    """Within one PC, consecutive accesses mostly follow fixed chain
    order: the same pair (a, b) recurs across traversals."""
    # pcs=24 gives every hot chain its own PC, so concurrent traversals
    # never interleave within one PC stream.
    trace = chain_trace(
        "c", 20_000, seed=1, hot_lines=2_000, cold_lines=0, cold_chains=0,
        hot_fraction=1.0, noise=0.0, write_frac=0.0, concurrency=2, pcs=24,
    )
    pairs = {}
    last_by_pc = {}
    for pc, addr, _ in trace:
        prev = last_by_pc.get(pc)
        if prev is not None:
            pairs.setdefault(prev, []).append(addr)
        last_by_pc[pc] = addr
    # For triggers seen several times, the successor is stable.
    stable = 0
    repeated = 0
    for successors in pairs.values():
        if len(successors) >= 3:
            repeated += 1
            if len(set(successors)) == 1:
                stable += 1
    assert repeated > 50
    assert stable / repeated > 0.8


def test_graph_trace_hits_node_set():
    trace = graph_walk_trace("g", 5000, seed=2, n_nodes=512)
    assert len(trace) == 5000
    assert len(set(trace.addrs)) <= 512


def test_shuffled_reuse_covers_working_set():
    trace = shuffled_reuse_trace("s", 6000, seed=2, n_lines=2000)
    assert len(set(trace.addrs)) == 2000


def test_stream_trace_is_sequential_per_pc():
    trace = stream_trace("st", 4000, seed=1, n_streams=2)
    per_pc = {}
    for pc, addr, _ in trace:
        per_pc.setdefault(pc, []).append(addr >> 6)
    for lines in per_pc.values():
        deltas = {b - a for a, b in zip(lines, lines[1:])}
        assert deltas == {1}


def test_strided_trace_constant_stride_per_pc():
    trace = strided_trace("sd", 4000, seed=1, strides=(3, 5))
    per_pc = {}
    for pc, addr, _ in trace:
        per_pc.setdefault(pc, []).append(addr >> 6)
    observed = sorted(
        {(b - a) for lines in per_pc.values() for a, b in zip(lines, lines[1:])}
    )
    assert observed == [3, 5]


def test_scan_trace_never_revisits_regions():
    trace = scan_footprint_trace("sc", 5000, seed=1)
    lines = [a >> 6 for a in trace.addrs]
    assert len(set(lines)) == len(lines)  # compulsory misses only


def test_pc_of_is_instruction_like():
    assert pc_of(0) != pc_of(1)
    assert pc_of(1) - pc_of(0) == 0x10


@pytest.mark.parametrize("n", [1, 997, 6_001])
def test_write_draws_match_one_draw_per_access(n):
    """The stream, strided and shuffled generators draw every write flag
    in one array call; the flags equal one scalar draw per access in
    trace order (after each pass's permutation for shuffled traces)."""
    import numpy as np

    for make, frac in ((stream_trace, 0.2), (strided_trace, 0.15)):
        rng = np.random.default_rng(5)
        assert make("w", n, seed=5).writes == [bool(rng.random() < frac) for _ in range(n)]
    n_lines = 2_000
    rng = np.random.default_rng(5)
    rng.permutation(n_lines * 4)  # the arena layout's draw
    flags = []
    while len(flags) < n:
        rng.permutation(n_lines)
        for _ in range(min(n_lines, n - len(flags))):
            flags.append(bool(rng.random() < 0.15))
    assert shuffled_reuse_trace("w", n, seed=5, n_lines=n_lines).writes == flags


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 40), st.booleans()), min_size=1, max_size=80))
def test_sequential_links_match_the_link_by_link_loop(links):
    """The array form equals linking one node at a time, the loop the
    generator ran before (so traces stay byte-identical)."""
    lines = np.array([line for line, _ in links], dtype=np.int64)
    seq = np.array([flag for _, flag in links])
    want = lines.copy()
    for j in range(1, len(want)):
        if seq[j]:
            want[j] = want[j - 1] + 1
    got = _link_sequential(lines, seq)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
