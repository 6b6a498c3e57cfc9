"""Regular-access trace primitives (the BO/SMS-friendly patterns).

* :func:`stream_trace` -- interleaved sequential streams (libquantum,
  lbm, streaming-server style); trivially covered by Best-Offset.
* :func:`strided_trace` -- multiple strided streams with configurable
  strides (bwaves/leslie3d style).
* :func:`scan_footprint_trace` -- a compulsory-miss scan over fresh
  regions where each region is touched with a recurring spatial
  footprint: never-seen addresses (temporal prefetchers get nothing) but
  a repeating PC+offset->footprint signature (SMS's home turf).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.workloads.base import HEAP_BASE, Trace, pc_of
from repro.workloads.irregular import ARENA_LINES


def stream_trace(
    name: str,
    n_accesses: int,
    seed: int,
    n_streams: int = 4,
    lines_per_stream: int = 1 << 20,
    write_frac: float = 0.2,
    mlp: float = 6.0,
    instr_per_access: float = 2.5,
    arena: int = 8,
    category: str = "regular",
) -> Trace:
    """Interleaved unit-stride streams over huge arrays."""
    rng = np.random.default_rng(seed)
    bases = [
        (HEAP_BASE >> 6) + (arena * 64 + i) * ARENA_LINES for i in range(n_streams)
    ]
    cursors = [0] * n_streams
    stream_pcs = [pc_of(400 + arena * 8 + i) for i in range(n_streams)]

    pcs_out: List[int] = []
    addrs_out: List[int] = []
    # One draw per access, in order: the same stream of doubles as a
    # scalar draw inside the loop.
    writes_out: List[bool] = (rng.random(n_accesses) < write_frac).tolist()
    for i in range(n_accesses):
        s = i % n_streams
        line = bases[s] + (cursors[s] % lines_per_stream)
        cursors[s] += 1
        pcs_out.append(stream_pcs[s])
        addrs_out.append(line << 6)

    return Trace(
        name=name,
        pcs=pcs_out,
        addrs=addrs_out,
        writes=writes_out,
        category=category,
        mlp=mlp,
        instr_per_access=instr_per_access,
        metadata={"pattern": "stream", "n_streams": n_streams},
    )


def strided_trace(
    name: str,
    n_accesses: int,
    seed: int,
    strides: Sequence[int] = (3, 5, 2, 7),
    lines_per_stream: int = 1 << 20,
    write_frac: float = 0.15,
    mlp: float = 5.0,
    instr_per_access: float = 3.0,
    arena: int = 9,
    category: str = "regular",
) -> Trace:
    """Interleaved constant-stride streams (one stride per stream)."""
    rng = np.random.default_rng(seed)
    n_streams = len(strides)
    bases = [
        (HEAP_BASE >> 6) + (arena * 64 + i) * ARENA_LINES for i in range(n_streams)
    ]
    cursors = [0] * n_streams
    stream_pcs = [pc_of(500 + arena * 8 + i) for i in range(n_streams)]

    pcs_out: List[int] = []
    addrs_out: List[int] = []
    writes_out: List[bool] = (rng.random(n_accesses) < write_frac).tolist()
    for i in range(n_accesses):
        s = i % n_streams
        line = bases[s] + (cursors[s] * strides[s]) % lines_per_stream
        cursors[s] += 1
        pcs_out.append(stream_pcs[s])
        addrs_out.append(line << 6)

    return Trace(
        name=name,
        pcs=pcs_out,
        addrs=addrs_out,
        writes=writes_out,
        category=category,
        mlp=mlp,
        instr_per_access=instr_per_access,
        metadata={"pattern": "strided", "strides": list(strides)},
    )


def scan_footprint_trace(
    name: str,
    n_accesses: int,
    seed: int,
    region_lines: int = 32,  # 2 KB regions, matching SMS's default
    footprint_density: float = 0.4,
    n_signatures: int = 6,
    write_frac: float = 0.05,
    mlp: float = 4.0,
    instr_per_access: float = 4.0,
    arena: int = 10,
    category: str = "server",
) -> Trace:
    """Compulsory-miss scan with recurring per-region spatial footprints.

    Every region is brand new (temporal prefetchers can learn nothing),
    but regions triggered by the same PC share a footprint bit-pattern,
    so SMS and BO recover most of the latency -- the nutch/streaming
    regime of Figure 14.
    """
    rng = np.random.default_rng(seed)
    signatures = []
    for i in range(n_signatures):
        mask = rng.random(region_lines) < footprint_density
        mask[0] = True  # the trigger offset is always touched
        signatures.append(np.flatnonzero(mask))
    sig_pcs = [pc_of(600 + arena * 8 + i) for i in range(n_signatures)]

    base = (HEAP_BASE >> 6) + arena * 64 * ARENA_LINES
    region_cursor = 0
    pcs_out: List[int] = []
    addrs_out: List[int] = []
    writes_out: List[bool] = []
    while len(addrs_out) < n_accesses:
        sig = int(rng.integers(n_signatures))
        region_base = base + region_cursor * region_lines
        region_cursor += 1
        pc = sig_pcs[sig]
        for off in signatures[sig]:
            pcs_out.append(pc)
            addrs_out.append((region_base + int(off)) << 6)
            writes_out.append(bool(rng.random() < write_frac))
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
        metadata={"pattern": "scan_footprint"},
    )
