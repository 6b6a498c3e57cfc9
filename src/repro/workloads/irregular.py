"""Irregular-access trace primitives.

Three generators cover the behaviours that matter to temporal
prefetching:

* :func:`chain_trace` -- pointer-chain traversals with a hot/cold reuse
  skew.  Repeated traversals of a fixed chain are exactly the
  PC-localized address correlation Triage memorizes, and the hot/cold
  skew reproduces the paper's Figure 1 ("only 15% of metadata entries are
  reused more than 15 times").
* :func:`graph_walk_trace` -- random walks over a fixed sparse graph.
  Successors repeat only probabilistically, which caps any temporal
  prefetcher's accuracy below 100% (astar/omnetpp-like).
* :func:`shuffled_reuse_trace` -- a cache-resident working set revisited
  in a *different* order every pass: plenty of reuse for OPTgen to see,
  but no stable pair correlations, so temporal prefetching wastes
  capacity (the bzip2 failure mode of Figure 8).

All addresses are cache-line scattered (lines shuffled within a private
arena) so spatial prefetchers find nothing to latch onto.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.workloads.base import HEAP_BASE, Trace, pc_of

#: Each generator carves line arenas out of disjoint gigabyte regions so
#: different traces (e.g. in a multi-programmed mix) never alias.
ARENA_LINES = 1 << 24


def _arena_lines(
    rng: np.random.Generator, n: int, arena: int, spread: int = 4
) -> np.ndarray:
    """``n`` shuffled line addresses inside the given arena.

    ``spread`` controls spatial density: lines are drawn from a window of
    ``n * spread`` lines, so a 2 KB (32-line) region holds about
    ``32 / spread`` of them.  Chains default to 4 (8 lines/region, the
    residue of sequential allocation); graphs use larger spreads to model
    well-scattered nodes.
    """
    base = (HEAP_BASE >> 6) + arena * ARENA_LINES
    offsets = rng.permutation(n * spread)[:n]
    return base + offsets


def chain_trace(
    name: str,
    n_accesses: int,
    seed: int,
    hot_lines: int = 9_000,
    cold_lines: int = 50_000,
    warm_lines: int = 0,
    hot_chains: int = 8,
    cold_chains: int = 40,
    warm_chains: int = 16,
    hot_fraction: float = 0.75,
    warm_fraction: float = 0.0,
    noise: float = 0.01,
    sequential_frac: float = 0.15,
    concurrency: int = 3,
    burst: Tuple[int, int] = (2, 6),
    write_frac: float = 0.1,
    pcs: int = 8,
    mlp: float = 1.3,
    instr_per_access: float = 3.0,
    arena: int = 0,
    category: str = "irregular",
) -> Trace:
    """Pointer-chain workload with a hot/warm/cold reuse skew.

    * **hot** chains (``hot_lines`` total) take ``hot_fraction`` of the
      traversal time -- retraversed many times, the Figure-1 head.
    * **warm** chains take ``warm_fraction`` -- retraversed a few times.
      They are what separates an unbounded metadata store (MISB/ISB
      cover them) from Triage's bounded one (usually evicted).
    * **cold** chains take the rest, swept round-robin about once --
      compulsory misses nobody can prefetch temporally.

    ``sequential_frac`` makes that fraction of chain links point to the
    *next* line (consecutively allocated nodes), the residual spatial
    locality that lets BO/SMS reach their modest irregular coverage.

    ``concurrency`` traversals proceed simultaneously, interleaved in
    bursts of ``burst`` accesses: each PC's stream stays a clean chain
    walk, but the *global* access stream shuffles differently on every
    pass.  This is what separates PC-localized prefetchers
    (ISB/MISB/Triage) from global-stream ones (Markov/STMS/Domino),
    exactly the distinction the paper's related-work section draws.
    """
    rng = np.random.default_rng(seed)
    chains: List[np.ndarray] = []
    tiers: List[str] = []

    def _make_chain(length: int, sub_arena: int) -> np.ndarray:
        lines = _arena_lines(rng, length, sub_arena)
        if sequential_frac > 0:
            seq = rng.random(length) < sequential_frac
            for j in range(1, length):
                if seq[j]:
                    lines[j] = lines[j - 1] + 1
        return lines

    sub_arena = arena * 64
    for tier, total, count in (
        ("hot", hot_lines, hot_chains),
        ("warm", warm_lines, warm_chains),
        ("cold", cold_lines, cold_chains),
    ):
        if total <= 0:
            continue
        for _ in range(count):
            chains.append(_make_chain(max(8, total // count), sub_arena))
            tiers.append(tier)
            sub_arena += 1
    hot_ids = [i for i, t in enumerate(tiers) if t == "hot"]
    warm_ids = [i for i, t in enumerate(tiers) if t == "warm"]
    cold_ids = [i for i, t in enumerate(tiers) if t == "cold"]
    # Each tier draws from its own PC pool: hot structures are walked by
    # hot loops in real programs, which is exactly what lets a PC-indexed
    # predictor (Hawkeye) learn which metadata is worth keeping.
    pools = {"hot": [], "warm": [], "cold": []}
    per_tier = max(1, pcs // 3)
    base_pc = arena * (3 * per_tier)
    for tier_index, tier in enumerate(("hot", "warm", "cold")):
        pools[tier] = [
            pc_of(base_pc + tier_index * per_tier + i) for i in range(per_tier)
        ]
    chain_pc = [
        pools[tiers[i]][(arena * 131 + i) % per_tier] for i in range(len(chains))
    ]

    pcs_out: List[int] = []
    addrs_out: List[int] = []
    writes_out: List[bool] = []
    noise_base = (HEAP_BASE >> 6) + (arena * 64 + 60) * ARENA_LINES
    cold_cursor = 0
    active: List[List[int]] = []  # [chain_id, position]

    def start_traversal() -> List[int]:
        nonlocal cold_cursor
        busy = {t[0] for t in active}
        for _ in range(8):  # avoid two cursors walking the same chain
            draw = rng.random()
            if draw < hot_fraction and hot_ids:
                chain_id = hot_ids[int(rng.integers(len(hot_ids)))]
            elif draw < hot_fraction + warm_fraction and warm_ids:
                chain_id = warm_ids[int(rng.integers(len(warm_ids)))]
            elif cold_ids:
                chain_id = cold_ids[cold_cursor % len(cold_ids)]
                cold_cursor += 1
            else:
                chain_id = int(rng.integers(len(chains)))
            if chain_id not in busy:
                break
        return [chain_id, 0]

    concurrency = max(1, min(concurrency, len(chains)))
    while len(active) < concurrency:
        active.append(start_traversal())
    while len(addrs_out) < n_accesses:
        traversal = active[int(rng.integers(len(active)))]
        chain = chains[traversal[0]]
        pc = chain_pc[traversal[0]]
        for _ in range(int(rng.integers(burst[0], burst[1] + 1))):
            if rng.random() < noise:
                addrs_out.append(int(noise_base + rng.integers(ARENA_LINES)) << 6)
                pcs_out.append(pc_of(999 + arena * 7))
                writes_out.append(False)
            addrs_out.append(int(chain[traversal[1]]) << 6)
            pcs_out.append(pc)
            writes_out.append(bool(rng.random() < write_frac))
            traversal[1] += 1
            if traversal[1] >= len(chain):
                traversal[:] = start_traversal()
                break
            if len(addrs_out) >= n_accesses:
                break

    return Trace(
        name=name,
        pcs=pcs_out[:n_accesses],
        addrs=addrs_out[:n_accesses],
        writes=writes_out[:n_accesses],
        category=category,
        mlp=mlp,
        instr_per_access=instr_per_access,
        metadata={
            "hot_lines": hot_lines,
            "cold_lines": cold_lines,
            "pattern": "chain",
        },
    )


def graph_walk_trace(
    name: str,
    n_accesses: int,
    seed: int,
    n_nodes: int = 40_000,
    out_degree: int = 3,
    primary_prob: float = 0.72,
    walk_len: int = 400,
    noise: float = 0.01,
    spread: int = 32,
    concurrency: int = 3,
    write_frac: float = 0.05,
    pcs: int = 6,
    mlp: float = 1.4,
    instr_per_access: float = 4.0,
    arena: int = 1,
    category: str = "irregular",
) -> Trace:
    """Random walks over a fixed sparse graph (search/tree workloads).

    Each node's *primary* successor is followed with ``primary_prob``;
    otherwise a secondary edge is taken.  Temporal prefetchers learn the
    primary edges quickly but mispredict on the secondaries, bounding
    accuracy near ``primary_prob`` -- the astar/omnetpp regime.
    ``concurrency`` walks interleave (see :func:`chain_trace`).
    """
    rng = np.random.default_rng(seed)
    lines = _arena_lines(rng, n_nodes, arena * 64 + 62, spread=spread)
    # successors[i, k]: node ids of node i's edges; column 0 is primary.
    successors = rng.integers(0, n_nodes, size=(n_nodes, out_degree))
    walk_pcs = [pc_of(200 + arena * pcs + i) for i in range(pcs)]

    pcs_out: List[int] = []
    addrs_out: List[int] = []
    writes_out: List[bool] = []
    # Active walks: [node, pc, steps_left]; each walk sticks to one PC.
    walks: List[List[int]] = []

    def start_walk(slot: int) -> List[int]:
        return [
            int(rng.integers(n_nodes)),
            walk_pcs[slot % len(walk_pcs)],
            walk_len,
        ]

    concurrency = max(1, concurrency)
    walks = [start_walk(i) for i in range(concurrency)]
    while len(addrs_out) < n_accesses:
        slot = int(rng.integers(len(walks)))
        walk = walks[slot]
        for _ in range(int(rng.integers(2, 7))):  # bursty interleave
            node = walk[0]
            addrs_out.append(int(lines[node]) << 6)
            pcs_out.append(walk[1])
            writes_out.append(bool(rng.random() < write_frac))
            if walk[2] <= 1:
                walks[slot] = start_walk(slot)
                break
            if rng.random() < primary_prob:
                walk[0] = int(successors[node, 0])
            else:
                walk[0] = int(successors[node, int(rng.integers(1, out_degree))])
            walk[2] -= 1
            if len(addrs_out) >= n_accesses:
                break

    return Trace(
        name=name,
        pcs=pcs_out[:n_accesses],
        addrs=addrs_out[:n_accesses],
        writes=writes_out[:n_accesses],
        category=category,
        mlp=mlp,
        instr_per_access=instr_per_access,
        metadata={"n_nodes": n_nodes, "pattern": "graph"},
    )


def shuffled_reuse_trace(
    name: str,
    n_accesses: int,
    seed: int,
    n_lines: int = 28_000,
    write_frac: float = 0.15,
    pcs: int = 4,
    mlp: float = 2.0,
    instr_per_access: float = 3.5,
    arena: int = 2,
    category: str = "regular",
) -> Trace:
    """Reuse without repeatable order (the bzip2 failure mode).

    The same ``n_lines`` working set is revisited over and over, but each
    pass is a fresh permutation, so pair correlations are unstable: a
    temporal prefetcher sees plenty of metadata reuse yet its prefetched
    successors sit in the L2 for half a pass before (if ever) being
    demanded, while the lines themselves cache well in the LLC -- exactly
    the case where giving LLC capacity to metadata backfires.
    """
    rng = np.random.default_rng(seed)
    lines = _arena_lines(rng, n_lines, arena * 64 + 63)
    trace_pcs = [pc_of(300 + arena * pcs + i) for i in range(pcs)]

    pcs_out: List[int] = []
    addrs_out: List[int] = []
    writes_out: List[bool] = []
    while len(addrs_out) < n_accesses:
        order = rng.permutation(n_lines)[: n_accesses - len(addrs_out)]
        # A pass draws one double per access after its permutation.
        writes_out.extend((rng.random(len(order)) < write_frac).tolist())
        for i, idx in enumerate(order.tolist()):
            addrs_out.append(int(lines[idx]) << 6)
            pcs_out.append(trace_pcs[i % len(trace_pcs)])

    return Trace(
        name=name,
        pcs=pcs_out[:n_accesses],
        addrs=addrs_out[:n_accesses],
        writes=writes_out[:n_accesses],
        category=category,
        mlp=mlp,
        instr_per_access=instr_per_access,
        metadata={"n_lines": n_lines, "pattern": "shuffled_reuse"},
    )
