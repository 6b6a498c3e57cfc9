"""Micro-benchmark for the cache model's hot path.

Times raw :meth:`repro.memory.cache.LruCache.access` / ``fill``
throughput -- the class behind every LRU level of the hierarchy -- in
isolation from any simulation engine, exercising three regimes:

* pure hits (pop and reinsert in the set dict, shared ``_PLAIN_HIT``),
* streaming misses on a cold cache (free-way heap pops, no victim),
* steady-state eviction (the set dict's oldest key on every fill),
  with periodic way repartitioning in the mixed case.

Run with ``pytest benchmarks/bench_cache_microbench.py`` -- the printed
ops/s pairs with the profile in ``docs/performance.md``.
"""

from __future__ import annotations

from repro.memory.cache import LruCache

#: Accesses per timed round; large enough that per-round overhead is noise.
N_OPS = 200_000


def _make_cache() -> LruCache:
    # The paper's LLC geometry: 2 MB, 16-way, 64 B lines, LRU.
    return LruCache("LLC", 2 * 1024 * 1024, 16)


def _report(benchmark, ops: int) -> None:
    mean = benchmark.stats.stats.mean
    print(f"\n[cache-microbench] {ops / mean:,.0f} ops/s (mean {mean:.3f}s)")


def test_cache_hit_path(benchmark):
    """Demand hits on a resident working set: no fills, no victims."""
    cache = _make_cache()
    resident = list(range(4096))
    for line in resident:
        cache.fill(line, 0x400)
    lines = [resident[i % len(resident)] for i in range(N_OPS)]

    def run():
        access = cache.access
        for line in lines:
            access(line, 0x400)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _report(benchmark, N_OPS)
    assert cache.occupancy() == len(resident)
    assert all(cache.access(line).hit for line in resident)


def test_cache_fill_evict_path(benchmark):
    """Streaming misses at 4x capacity: every fill evicts at steady state."""
    num_lines = (2 * 1024 * 1024) // 64
    lines = [i % (4 * num_lines) for i in range(N_OPS)]

    def run():
        cache = _make_cache()
        access = cache.access
        fill = cache.fill
        for line in lines:
            if not access(line, 0x400).hit:
                fill(line, 0x400)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _report(benchmark, N_OPS)


def test_cache_mixed_path_with_resize(benchmark):
    """Hits + evictions with periodic way repartitioning (Triage's LLC)."""
    num_lines = (2 * 1024 * 1024) // 64
    hot = list(range(2048))
    lines = []
    for i in range(N_OPS):
        if i % 4:
            lines.append(hot[i % len(hot)])
        else:
            lines.append(num_lines + i)  # streaming tail forces evictions

    def run():
        cache = _make_cache()
        access = cache.access
        fill = cache.fill
        for i, line in enumerate(lines):
            if not access(line, 0x400).hit:
                fill(line, 0x400)
            if i % 50_000 == 25_000:
                cache.set_active_ways(12 if cache.active_ways == 16 else 16)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    _report(benchmark, N_OPS)
